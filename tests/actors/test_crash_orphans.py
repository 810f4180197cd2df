"""Regression: a crashed actor's handler must die with its server.

The server's cores still finish the CPU jobs queued before a crash, so a
handler suspended on ``compute`` used to resume on the dead server and
run on: its later sends had no directory record and went out as if an
external client had sent them.  Destroying an actor now closes its
handler, and an instance that is no longer the live one for its id (the
actor was destroyed, or resurrected as a new instance) can neither
compute nor send.
"""

from repro.actors import Actor, ActorSystem
from repro.cluster import Provisioner
from repro.sim import Simulator


class Sink(Actor):
    def __init__(self):
        self.pings = []

    def ping(self, source):
        self.pings.append((source, self._system.sim.now))
        return "pong"


class Worker(Actor):
    def __init__(self, sink):
        self.sink = sink
        self.closed = False

    def work(self):
        try:
            yield self.compute(10.0)
            self.tell(self.sink, "ping", "work")
            return "done"
        finally:
            self.closed = True

    def ask(self):
        yield self.compute(10.0)
        reply = yield self.call(self.sink, "ping", "ask")
        return reply


def make_system():
    sim = Simulator()
    prov = Provisioner(sim, default_type="m1.small")
    for _ in range(3):
        prov.boot_server(immediate=True)
    sim.run()
    return sim, ActorSystem(sim, prov)


def test_crashed_handler_does_not_send_after_its_compute():
    sim, system = make_system()
    s1, s2, _ = system.provisioner.servers
    sink = system.create_actor(Sink, server=s2)
    worker = system.create_actor(Worker, sink, server=s1)
    instance = system.actor_instance(worker)
    reply = system.client_call(worker, "work")
    sim.schedule(5.0, system.crash_server, s1)
    sim.run(until=100.0)
    assert system.actor_instance(sink).pings == []
    assert reply.triggered and reply.value is None
    assert instance.closed  # the handler was closed at the crash


def test_resurrected_actor_runs_while_the_old_instance_stays_dead():
    sim, system = make_system()
    s1, s2, s3 = system.provisioner.servers
    sink = system.create_actor(Sink, server=s2)
    worker = system.create_actor(Worker, sink, server=s1)
    old = system.actor_instance(worker)
    tombstone = system.directory.lookup(worker.actor_id)
    system.crash_server(s1)
    system.resurrect_actor(tombstone, server=s3)
    assert system.actor_instance(worker) is not old

    # The old instance shares the id but is not the live actor: its
    # tell is dropped, its call fails, its compute never completes.
    old.tell(sink, "ping", "ghost")
    failed = old.call(sink, "ping", "ghost")
    parked = old.compute(1.0)
    woken = []
    parked._subscribe(woken.append)
    reply = system.client_call(worker, "ask")
    sim.run(until=sim.now + 200.0)
    assert failed.triggered and failed.value is None
    assert woken == []
    assert [source for source, _ in system.actor_instance(sink).pings] \
        == ["ask"]
    assert reply.value == "pong"


def test_message_held_by_a_migration_gate_fails_with_its_actor():
    sim, system = make_system()
    s1, s2, s3 = system.provisioner.servers
    sink = system.create_actor(Sink, server=s2)
    worker = system.create_actor(Worker, sink, server=s1)
    instance = system.actor_instance(worker)
    sim.run()
    system.migrate_actor(worker, s3)  # the gate shuts
    reply = system.client_call(worker, "work")
    sim.run(until=sim.now + 5.0)  # arrived, held by the gate
    assert system._mailboxes[worker.actor_id].gated is not None
    system.crash_server(s1)
    sim.run(until=sim.now + 100.0)
    assert reply.triggered and reply.value is None
    assert not instance.closed  # its handler never started
    assert system.actor_instance(sink).pings == []


class SelfDestruct(Actor):
    def __init__(self, sink):
        self.sink = sink
        self.closed = False

    def quit(self):
        try:
            self._system.destroy_actor(self.ref)
            yield self.compute(1.0)  # a dead actor's compute never ends
            self.tell(self.sink, "ping", "after-quit")
        finally:
            self.closed = True


def test_handler_destroying_its_own_actor_is_closed_at_its_yield():
    sim, system = make_system()
    s1, s2, _ = system.provisioner.servers
    sink = system.create_actor(Sink, server=s2)
    ref = system.create_actor(SelfDestruct, sink, server=s1)
    instance = system.actor_instance(ref)
    reply = system.client_call(ref, "quit")
    sim.run(until=100.0)
    assert instance.closed
    assert reply.triggered and reply.value is None
    assert system.actor_instance(sink).pings == []
