"""Dispatcher semantics: the mailbox hand-over, the migration gate, and
how a handler's end (return, exception, bad yield) leaves the actor."""

import re

import pytest

from repro.actors import Actor, ActorSystem, Message, RuntimeHooks
from repro.actors.message import CLIENT_KIND
from repro.cluster import Provisioner
from repro.sim import SimulationError, Signal, Simulator


class Recorder(Actor):
    def __init__(self):
        self.seen = []

    def note(self, tag):
        self.seen.append((tag, self._system.sim.now))
        return tag  # plain (non-generator) handler

    def slow_note(self, tag):
        yield self.compute(10.0)
        self.seen.append((tag, self._system.sim.now))
        return tag


class Faulty(Actor):
    def boom(self):
        yield self.compute(5.0)
        raise RuntimeError("handler failed")

    def bad_yield(self):
        yield 42


def make_system(servers=2):
    sim = Simulator()
    prov = Provisioner(sim, default_type="m5.large")
    for _ in range(servers):
        prov.boot_server(immediate=True)
    sim.run()
    return sim, ActorSystem(sim, prov)


def client_message(system, ref, function, *args):
    reply = Signal(system.sim)
    return Message(target_id=ref.actor_id, function=function, args=args,
                   caller_kind=CLIENT_KIND, caller_id=None, size_bytes=64.0,
                   reply=reply, sent_at=system.sim.now)


def test_plain_handler_replies():
    sim, system = make_system(1)
    ref = system.create_actor(Recorder)
    reply = system.client_call(ref, "note", "a")
    sim.run()
    assert reply.triggered and reply.value == "a"


def test_messages_before_the_start_hop_are_handled_in_order():
    sim, system = make_system(1)
    server = system.provisioner.servers[0]
    ref = system.create_actor(Recorder, server=server)
    # Arrivals in the creation instant, before the dispatcher's start
    # hop has run: they wait in the mailbox and keep their order.
    messages = [client_message(system, ref, "note", tag) for tag in "abc"]
    for message in messages:
        system._deliver(message, server)
    assert system.mailbox_depth(ref.actor_id) == 3
    sim.run()
    assert [tag for tag, _ in system.actor_instance(ref).seen] == list("abc")
    assert [m.reply.value for m in messages] == list("abc")


def test_destroy_reclaims_a_delivery_in_flight():
    sim, system = make_system(1)
    ref = system.create_actor(Recorder)
    sim.run()  # the dispatcher is idle, waiting for mail
    instance = system.actor_instance(ref)

    class DestroyOnArrival(RuntimeHooks):
        def on_message_delivered(self, record, message):
            # Runs before the mailbox hands the message over, so the
            # destroy lands between the hand-over and its wake-up hop.
            sim.schedule(0.0, system.destroy_actor, ref)

    system.add_hooks(DestroyOnArrival())
    reply = system.client_call(ref, "note", "late")
    sim.run()
    assert reply.triggered and reply.value is None
    assert instance.seen == []  # no stale delivery to the dead actor


def test_gate_holds_messages_until_the_migration_commits():
    sim, system = make_system(2)
    source, target = system.provisioner.servers
    ref = system.create_actor(Recorder, server=source)
    sim.run()
    done = system.migrate_actor(ref, target)
    replies = [system.client_call(ref, "slow_note", tag) for tag in "xyz"]
    committed = []
    done._subscribe(lambda ok: committed.append((ok, sim.now)))
    sim.run()
    ok, commit_at = committed[0]
    assert ok and system.server_of(ref) is target
    seen = system.actor_instance(ref).seen
    assert [tag for tag, _ in seen] == list("xyz")
    # Handled one at a time, the first only once the gate opened.
    assert seen[0][1] >= commit_at + 10.0
    assert seen[1][1] == seen[0][1] + 10.0
    assert [r.value for r in replies] == list("xyz")


def test_handler_exception_frees_the_actor_then_propagates():
    sim, system = make_system(2)
    source, target = system.provisioner.servers
    ref = system.create_actor(Faulty, server=source)
    sim.run()
    reply = system.client_call(ref, "boom")
    sim.run(until=sim.now + 2.0)  # the handler is computing
    mailbox = system._mailboxes[ref.actor_id]
    assert mailbox.current is not None
    # A migration drains the busy handler first: it waits on the idle
    # signal the handler's end must fire.
    done = system.migrate_actor(ref, target)
    sim.run(until=sim.now + 1.0)
    assert mailbox.idle is not None
    with pytest.raises(RuntimeError, match="handler failed"):
        sim.run()
    assert mailbox.current is None and mailbox.idle is None
    assert not reply.triggered  # no reply for a failed handler
    sim.run()
    assert done.triggered and done.value is True
    assert system.server_of(ref) is target


def test_yielding_a_non_waitable_names_the_actor():
    sim, system = make_system(1)
    ref = system.create_actor(Faulty)
    system.client_call(ref, "bad_yield")
    with pytest.raises(SimulationError, match=re.escape(str(ref))):
        sim.run()
    assert system._mailboxes[ref.actor_id].current is None
