"""Unit tests for the simulated server (CPU, memory, utilization)."""

import pytest

from repro.cluster import Server, instance_type
from repro.sim import Simulator, spawn


def make_server(sim, type_name="m5.large"):
    return Server(sim, instance_type(type_name))


def test_execute_completes_after_scaled_demand():
    sim = Simulator()
    server = make_server(sim, "m1.small")  # cpu_speed 0.5
    seen = []

    def body():
        busy = yield server.execute(10.0)
        seen.append((sim.now, busy))

    spawn(sim, body())
    sim.run()
    assert seen == [(20.0, 20.0)]  # 10 ms demand at half speed


def test_cores_run_in_parallel():
    sim = Simulator()
    server = make_server(sim, "m5.large")  # 2 vCPUs
    done_times = []

    def submit():
        signals = [server.execute(10.0) for _ in range(2)]
        for signal in signals:
            yield signal
        done_times.append(sim.now)

    spawn(sim, submit())
    sim.run()
    assert done_times == [10.0]  # both jobs finish together on 2 cores


def test_queueing_when_offered_load_exceeds_cores():
    sim = Simulator()
    server = make_server(sim, "m5.large")
    finish = []

    def submit():
        signals = [server.execute(10.0) for _ in range(4)]
        for signal in signals:
            yield signal
        finish.append(sim.now)

    spawn(sim, submit())
    sim.run()
    assert finish == [20.0]  # 4 x 10ms over 2 cores = 20ms makespan


def test_cpu_percent_reflects_busy_fraction():
    sim = Simulator()
    server = make_server(sim, "m5.large")
    server.execute(10.0)
    sim.run(until=100.0)
    # 10 busy-ms over a 100 ms window with 2 cores = 5%.
    assert server.cpu_percent(100.0) == pytest.approx(5.0, abs=0.5)


def test_cpu_percent_zero_before_any_time_passes():
    sim = Simulator()
    server = make_server(sim)
    assert server.cpu_percent(1_000.0) == 0.0


def test_memory_accounting():
    sim = Simulator()
    server = make_server(sim, "m5.large")  # 8192 MB
    server.allocate_memory(2048.0)
    assert server.memory_percent() == pytest.approx(25.0)
    server.free_memory(1024.0)
    assert server.memory_percent() == pytest.approx(12.5)
    server.free_memory(10_000.0)  # clamps at zero
    assert server.memory_percent() == 0.0


def test_negative_demand_and_memory_rejected():
    sim = Simulator()
    server = make_server(sim)
    with pytest.raises(ValueError):
        server.execute(-1.0)
    with pytest.raises(ValueError):
        server.allocate_memory(-1.0)


def test_net_percent_uses_nic_capacity():
    sim = Simulator()
    server = make_server(sim, "m1.small")  # 250 Mbps
    per_ms = server.itype.net_bytes_per_ms()
    server.net_meter.add(per_ms * 50.0)  # 50 ms worth of line rate
    sim.schedule_at(100.0, lambda: None)
    sim.run()
    assert server.net_percent(100.0) == pytest.approx(50.0, abs=1.0)


def test_shutdown_stops_cores():
    sim = Simulator()
    server = make_server(sim)
    server.shutdown()
    assert not server.running
    server.shutdown()  # idempotent
    sim.run()
    # Work submitted after shutdown is never serviced.
    done = server.execute(1.0)
    sim.run()
    assert not done.triggered


def test_shutdown_drains_queued_jobs_unmetered():
    sim = Simulator()
    server = make_server(sim, "m1.small")  # 1 vCPU at half speed
    queued = [server.execute(10.0) for _ in range(3)]
    sim.run(until=1.0)  # the first job is on the core
    server.shutdown()
    late = server.execute(10.0)
    sim.run()
    # Jobs queued before shutdown still run, back to back, but the
    # meter stops at shutdown; the core stops before the late job.
    assert [signal.value for signal in queued] == [20.0, 20.0, 20.0]
    assert sim.now == 60.0
    assert server.cpu_meter.total(1_000.0) == 0.0
    assert not late.triggered


def test_jobs_in_the_boot_instant_wait_for_the_start_hops():
    sim = Simulator()
    server = make_server(sim, "m5.large")  # 2 vCPUs
    finish = []
    for _ in range(3):
        server.execute(10.0)._subscribe(lambda busy: finish.append(sim.now))
    assert server.run_queue_length() == 3
    sim.run()
    assert finish == [10.0, 10.0, 20.0]
    assert server.cpu_meter.total(1_000.0) == 30.0


def test_run_queue_length_counts_waiting_jobs():
    sim = Simulator()
    server = make_server(sim, "m5.large")
    for _ in range(5):
        server.execute(100.0)
    sim.run(until=1.0)
    # 2 jobs on cores, 3 waiting.
    assert server.run_queue_length() == 3


def test_idle_headroom():
    sim = Simulator()
    server = make_server(sim, "m5.large")
    assert server.idle_cpu_headroom(1_000.0) == pytest.approx(2.0)
