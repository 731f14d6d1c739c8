"""Property-based fuzzing of the substrate invariants.

These are the invariants the whole reproduction rests on: the ring delivers
every frame exactly once (absent purges) in per-sender order; the CPU
eventually runs everything and its books balance; the PC/AT reconstruction
is faithful within its documented error budget for *any* emission pattern.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.cpu import CPU, Exec, SetSpl
from repro.hardware.parallel_port import ParallelPort
from repro.measure.pcat import PcatTimestamper
from repro.ring.frames import Frame
from repro.ring.network import TokenRing
from repro.ring.station import RingStation
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.units import MS, SEC, US

# ---------------------------------------------------------------------------
# Token Ring invariants
# ---------------------------------------------------------------------------

frame_plan = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),      # sender index
        st.integers(min_value=0, max_value=3),      # receiver index
        st.integers(min_value=1, max_value=3000),   # info bytes
        st.integers(min_value=0, max_value=6),      # priority
        st.integers(min_value=0, max_value=50),     # send delay (ms)
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=40, deadline=None)
@given(frame_plan)
def test_ring_delivers_every_unicast_frame_exactly_once(plan):
    sim = Simulator()
    ring = TokenRing(sim)
    stations = [RingStation(ring, f"s{i}") for i in range(4)]
    received: list[tuple[str, int]] = []
    for s in stations:
        s.receive = lambda f, addr=s.address: received.append((addr, f.payload))
    sent_ids = []
    for index, (sender, receiver, nbytes, priority, delay) in enumerate(plan):
        if sender == receiver:
            continue
        frame = Frame(
            src=f"s{sender}", dst=f"s{receiver}", info_bytes=nbytes,
            priority=priority, protocol="ip", payload=index,
        )
        sent_ids.append((f"s{receiver}", index))
        sim.schedule(delay * MS, stations[sender].transmit, frame)
    sim.run(until=10 * SEC)
    # Exactly-once delivery to exactly the right station.
    assert sorted(received) == sorted(sent_ids)


@settings(max_examples=25, deadline=None)
@given(frame_plan)
def test_ring_preserves_per_sender_order_at_equal_priority(plan):
    sim = Simulator()
    ring = TokenRing(sim)
    stations = [RingStation(ring, f"s{i}") for i in range(4)]
    received: dict[str, list[int]] = {}
    sent: dict[str, list[int]] = {}
    seq = 0
    for s in stations:
        def recv(f, addr=s.address):
            received.setdefault(f.src, []).append(f.payload)

        s.receive = recv
    entries = []
    for position, (sender, receiver, nbytes, _priority, delay) in enumerate(plan):
        if sender == receiver:
            continue
        seq += 1
        frame = Frame(
            src=f"s{sender}", dst=f"s{receiver}", info_bytes=nbytes,
            priority=0, protocol="ip", payload=seq,
        )
        entries.append((delay, position, f"s{sender}", seq))
        sim.schedule(delay * MS, stations[sender].transmit, frame)
    sim.run(until=10 * SEC)
    # Expected per-sender order is enqueue order: by (delay, schedule call
    # order) -- the calendar is FIFO within an instant.
    for src, seqs in received.items():
        expected = [s for d, p, who, s in sorted(entries) if who == src]
        assert seqs == expected, src


@settings(max_examples=25, deadline=None)
@given(frame_plan, st.integers(min_value=1, max_value=9))
def test_ring_busy_time_never_exceeds_elapsed(plan, horizon_sec):
    sim = Simulator()
    ring = TokenRing(sim)
    stations = [RingStation(ring, f"s{i}") for i in range(4)]
    for sender, receiver, nbytes, priority, delay in plan:
        if sender == receiver:
            continue
        sim.schedule(
            delay * MS,
            stations[sender].transmit,
            Frame(src=f"s{sender}", dst=f"s{receiver}", info_bytes=nbytes,
                  priority=priority),
        )
    sim.run(until=horizon_sec * SEC)
    sim.run()  # drain
    assert 0.0 <= ring.utilization(sim.now or 1) <= 1.0


# ---------------------------------------------------------------------------
# CPU invariants
# ---------------------------------------------------------------------------

cpu_plan = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=7),       # IRQ level
        st.integers(min_value=1, max_value=2000),    # handler work (us)
        st.integers(min_value=0, max_value=30_000),  # raise time (us)
        st.integers(min_value=0, max_value=7),       # spl inside handler
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=50, deadline=None)
@given(cpu_plan, st.lists(st.integers(min_value=1, max_value=5000), max_size=5))
def test_cpu_runs_everything_and_books_balance(irqs, base_jobs):
    sim = Simulator()
    cpu = CPU(sim, irq_entry_overhead=10 * US, context_switch_cost=20 * US)
    finished = []

    def make_handler(tag, work, spl):
        def handler():
            old = yield SetSpl(max(spl, cpu.spl))
            yield Exec(work * US)
            yield SetSpl(old)
            finished.append(tag)

        return handler

    for i, (level, work, at, spl) in enumerate(irqs):
        sim.schedule(
            at * US, cpu.raise_irq, level, make_handler(("irq", i), work, spl)
        )

    def make_job(tag, work):
        def job():
            yield Exec(work * US)
            finished.append(tag)

        return job

    for i, work in enumerate(base_jobs):
        cpu.spawn_base(make_job(("base", i), work)())

    sim.run(until=5 * SEC)
    sim.run()
    # Everything ran exactly once.
    expected = [("irq", i) for i in range(len(irqs))]
    expected += [("base", i) for i in range(len(base_jobs))]
    assert sorted(map(str, finished)) == sorted(map(str, expected))
    # The processor priority unwound completely.
    assert cpu.spl == 0
    assert cpu.running is None
    # Accounting sanity.
    assert 0 <= cpu.stats_busy_ns <= sim.now + 1
    assert cpu.stats_irq_count == len(irqs)


@settings(max_examples=30, deadline=None)
@given(cpu_plan)
def test_higher_level_irqs_never_wait_for_lower_handlers(irqs):
    """A level-7 IRQ raised while spl==0 must start within entry overhead."""
    sim = Simulator()
    cpu = CPU(sim, irq_entry_overhead=10 * US, context_switch_cost=0)
    started = []

    def make_handler(work):
        def handler():
            yield Exec(work * US)

        return handler

    for level, work, at, _spl in irqs:
        if level == 7:
            continue  # keep level 7 exclusive for the probe
        sim.schedule(at * US, cpu.raise_irq, min(level, 6), make_handler(work))

    def probe():
        started.append(sim.now)
        yield Exec(1 * US)

    probe_at = 15 * MS
    sim.schedule(probe_at, cpu.raise_irq, 7, probe)
    sim.run(until=5 * SEC)
    sim.run()
    assert started
    # Level 7 preempts anything lower; only entry overhead may intervene
    # (no handler in the plan raises spl).
    assert started[0] - probe_at <= 10 * US + 1


# ---------------------------------------------------------------------------
# PC/AT reconstruction
# ---------------------------------------------------------------------------

emission_plan = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),        # channel
        st.integers(min_value=1, max_value=400),      # gap to next (ms)
        st.integers(min_value=0, max_value=127),      # value
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=40, deadline=None)
@given(emission_plan)
def test_pcat_reconstruction_error_is_bounded_for_any_pattern(plan):
    sim = Simulator()
    tool = PcatTimestamper(sim, RandomStreams(9))
    tool.start()
    ports = [ParallelPort(sim, f"p{i}") for i in range(3)]
    for i, port in enumerate(ports):
        tool.connect(i, port)
    truth: list[tuple[int, int, int]] = []
    t = 0
    for channel, gap_ms, value in plan:
        t += gap_ms * MS
        truth.append((channel, t, value))
        sim.schedule(t, ports[channel].emit, value)
    sim.run(until=t + SEC)
    channels = tool.reconstruct()
    for channel in range(3):
        expected = [(tt, v) for (c, tt, v) in truth if c == channel]
        got = channels[channel]
        assert len(got) == len(expected)
        for (measured_t, measured_v), (true_t, true_v) in zip(got, expected):
            assert measured_v == true_v
            err = measured_t - true_t
            assert -4 * US <= err <= 125 * US  # the paper's error budget
