"""Tests for the VCA interrupt source and the parallel measurement port."""

import statistics

from repro.hardware import calibration
from repro.hardware.cpu import CPU, Exec
from repro.hardware.machine import Machine
from repro.hardware.parallel_port import ParallelPort
from repro.hardware.vca import VoiceCommunicationsAdapter
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.units import MS, SEC, US


def make_vca(jitter=calibration.VCA_INTERRUPT_JITTER):
    sim = Simulator()
    cpu = CPU(sim, irq_entry_overhead=0, context_switch_cost=0)
    vca = VoiceCommunicationsAdapter(
        sim, cpu.raise_irq, RandomStreams(3), jitter=jitter
    )
    return sim, cpu, vca


def test_vca_period_is_12ms_within_500ns():
    sim, cpu, vca = make_vca()
    edges = []
    vca.irq_listeners.append(edges.append)
    vca.start()
    sim.run(until=1 * SEC)
    assert len(edges) == 83  # floor(1s / 12ms)
    intervals = [b - a for a, b in zip(edges, edges[1:])]
    # Paper: second pulse varies "on the order of 500 nanoseconds from 12ms".
    assert all(abs(iv - 12 * MS) <= 2 * calibration.VCA_INTERRUPT_JITTER for iv in intervals)
    # Jitter is phase noise, not drift: edge N stays near N*12ms.
    assert abs(edges[-1] - 83 * 12 * MS) <= calibration.VCA_INTERRUPT_JITTER


def test_vca_without_jitter_is_exact():
    sim, cpu, vca = make_vca(jitter=0)
    edges = []
    vca.irq_listeners.append(edges.append)
    vca.start()
    sim.run(until=120 * MS)
    assert edges == [i * 12 * MS for i in range(1, 11)]


def test_vca_raises_host_interrupt():
    sim, cpu, vca = make_vca(jitter=0)
    entries = []

    def handler():
        entries.append(sim.now)
        yield Exec(10 * US)

    vca.attach_handler(handler)
    vca.start()
    sim.run(until=40 * MS)
    assert entries == [12 * MS, 24 * MS, 36 * MS]
    assert vca.stats_interrupts == 3


def test_vca_stop_halts_interrupts():
    sim, cpu, vca = make_vca(jitter=0)
    edges = []
    vca.irq_listeners.append(edges.append)
    vca.start()
    sim.run(until=30 * MS)
    vca.stop()
    sim.run(until=100 * MS)
    assert len(edges) == 2


def test_vca_buffer_is_2k_by_16_bits():
    sim, cpu, vca = make_vca()
    assert vca.buffer.capacity == 4096


def test_parallel_port_delivers_latched_value_on_strobe():
    sim = Simulator()
    port = ParallelPort(sim)
    got = []
    port.sink = lambda t, v: got.append((t, v))
    port.write(0x7F)
    sim.run(until=5 * US)
    assert got == []  # write alone does not present data
    port.strobe()
    assert got == [(5 * US, 0x7F)]


def test_parallel_port_masks_to_8_bits():
    sim = Simulator()
    port = ParallelPort(sim)
    got = []
    port.sink = lambda t, v: got.append(v)
    port.emit(0x1FF)
    assert got == [0xFF]


def test_parallel_port_without_sink_is_safe():
    sim = Simulator()
    port = ParallelPort(sim)
    port.emit(1)
    assert port.stats_strobes == 1


def test_machine_assembles_and_forks_rng():
    sim = Simulator()
    m1 = Machine(sim, "transmitter", RandomStreams(1))
    m2 = Machine(sim, "receiver", RandomStreams(1))
    assert m1.rng.get("x").random() != m2.rng.get("x").random()
    m1.add_adapter("tr0", object())
    try:
        m1.add_adapter("tr0", object())
        raise AssertionError("duplicate slot accepted")
    except ValueError:
        pass


def test_machine_without_iocm_card():
    sim = Simulator()
    machine = Machine(sim, "stock", has_io_channel_memory=False)
    assert not machine.memory.has_io_channel_memory


def test_vca_restart_aligned_to_now_does_not_burst():
    # A failover replica starts its DSP mid-run: the tick grid counts from
    # the restart, so no edge since time zero is replayed as a burst.
    sim, cpu, vca = make_vca(jitter=0)
    edges = []
    vca.irq_listeners.append(edges.append)
    vca.start()
    sim.run(until=1 * SEC)
    vca.stop()
    sim.run(until=1500 * MS)
    vca.start(align_to_now=True)
    sim.run(until=2 * SEC)
    after = [t for t in edges if t > 1500 * MS]
    assert after[0] == 1500 * MS + 12 * MS
    assert all(b - a == 12 * MS for a, b in zip(after, after[1:]))
