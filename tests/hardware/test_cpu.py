"""Unit tests for the preemptive CPU model."""

import pytest

from repro.hardware.cpu import CPU, Exec, SetSpl, Wait
from repro.sim.engine import SimulationError, Simulator
from repro.sim.units import MS, US


def make_cpu(irq_entry=0, ctx=0):
    sim = Simulator()
    cpu = CPU(sim, irq_entry_overhead=irq_entry, context_switch_cost=ctx)
    return sim, cpu


def test_base_frame_executes_work():
    sim, cpu = make_cpu()
    trace = []

    def body():
        yield Exec(100 * US)
        trace.append(sim.now)

    cpu.spawn_base(body())
    sim.run()
    assert trace == [100 * US]


def test_base_frames_run_one_at_a_time():
    sim, cpu = make_cpu()
    trace = []

    def body(tag):
        yield Exec(50 * US)
        trace.append((tag, sim.now))

    cpu.spawn_base(body("a"))
    cpu.spawn_base(body("b"))
    sim.run()
    assert trace == [("a", 50 * US), ("b", 100 * US)]


def test_interrupt_preempts_base_and_stretches_it():
    sim, cpu = make_cpu()
    trace = []

    def base():
        yield Exec(100 * US)
        trace.append(("base-done", sim.now))

    def handler():
        yield Exec(30 * US)
        trace.append(("irq-done", sim.now))

    cpu.spawn_base(base())
    sim.schedule(40 * US, cpu.raise_irq, 3, handler)
    sim.run()
    # base ran 40us, handler 30us, base finishes its remaining 60us at 130us.
    assert trace == [("irq-done", 70 * US), ("base-done", 130 * US)]


def test_irq_entry_overhead_delays_handler_body():
    sim, cpu = make_cpu(irq_entry=60 * US)
    trace = []

    def handler():
        trace.append(sim.now)
        yield Exec(0)

    cpu.raise_irq(5, handler)
    sim.run()
    assert trace == [60 * US]


def test_higher_level_irq_preempts_lower_handler():
    sim, cpu = make_cpu()
    trace = []

    def low():
        yield Exec(100 * US)
        trace.append(("low-done", sim.now))

    def high():
        yield Exec(10 * US)
        trace.append(("high-done", sim.now))

    cpu.raise_irq(2, low)
    sim.schedule(20 * US, cpu.raise_irq, 6, high)
    sim.run()
    assert trace == [("high-done", 30 * US), ("low-done", 110 * US)]


def test_same_or_lower_level_irq_pends_until_handler_exits():
    sim, cpu = make_cpu()
    trace = []

    def first():
        yield Exec(100 * US)
        trace.append(("first", sim.now))

    def second():
        yield Exec(10 * US)
        trace.append(("second", sim.now))

    cpu.raise_irq(4, first)
    sim.schedule(5 * US, cpu.raise_irq, 4, second)
    sim.run()
    assert trace == [("first", 100 * US), ("second", 110 * US)]
    assert cpu.stats_irq_pended == 1


def test_spl_blocks_interrupt_until_lowered():
    sim, cpu = make_cpu()
    trace = []

    def base():
        old = yield SetSpl(5)
        yield Exec(200 * US)  # protected section
        yield SetSpl(old)
        yield Exec(50 * US)
        trace.append(("base-done", sim.now))

    def handler():
        trace.append(("irq-ran", sim.now))
        yield Exec(10 * US)

    cpu.spawn_base(base())
    sim.schedule(50 * US, cpu.raise_irq, 3, handler)
    sim.run()
    # IRQ at 50us is masked by spl 5 until 200us, runs then; base resumes.
    assert trace[0] == ("irq-ran", 200 * US)
    assert trace[1] == ("base-done", 260 * US)


def test_setspl_returns_previous_level():
    sim, cpu = make_cpu()
    seen = []

    def base():
        old = yield SetSpl(6)
        seen.append(old)
        old2 = yield SetSpl(2)
        seen.append(old2)
        yield SetSpl(0)

    cpu.spawn_base(base())
    sim.run()
    assert seen == [0, 6]


def test_pending_irqs_dispatch_highest_level_first():
    sim, cpu = make_cpu()
    trace = []

    def blocker():
        yield SetSpl(7)
        yield Exec(100 * US)
        yield SetSpl(0)
        yield Exec(1 * US)

    def make_handler(tag):
        def handler():
            trace.append(tag)
            yield Exec(1 * US)

        return handler

    cpu.spawn_base(blocker())
    sim.schedule(10 * US, cpu.raise_irq, 2, make_handler("low"))
    sim.schedule(20 * US, cpu.raise_irq, 5, make_handler("high"))
    sim.run()
    assert trace == ["high", "low"]


def test_handler_spl_restored_on_exit():
    sim, cpu = make_cpu()

    def handler():
        yield Exec(10 * US)

    def base():
        yield SetSpl(2)
        yield Exec(50 * US)
        assert cpu.spl == 2
        yield SetSpl(0)

    cpu.spawn_base(base())
    sim.schedule(5 * US, cpu.raise_irq, 6, handler)
    sim.run()
    assert cpu.spl == 0


def test_wait_blocks_base_frame_and_resumes_with_value():
    sim, cpu = make_cpu()
    ev = sim.event()
    got = []

    def base():
        value = yield Wait(ev)
        got.append((value, sim.now))
        yield Exec(10 * US)

    cpu.spawn_base(base())
    sim.schedule(500 * US, ev.succeed, "data")
    sim.run()
    assert got == [("data", 500 * US)]


def test_other_base_frame_runs_while_first_waits():
    sim, cpu = make_cpu()
    ev = sim.event()
    trace = []

    def sleeper():
        yield Wait(ev)
        trace.append(("sleeper", sim.now))

    def worker():
        yield Exec(100 * US)
        trace.append(("worker", sim.now))

    cpu.spawn_base(sleeper())
    cpu.spawn_base(worker())
    sim.schedule(30 * US, ev.succeed, None)
    sim.run()
    # Worker occupies the CPU; sleeper wakes at 30us but must wait its turn.
    assert trace == [("worker", 100 * US), ("sleeper", 100 * US)]


def test_handler_may_not_wait():
    sim, cpu = make_cpu()
    ev = sim.event()

    def handler():
        yield Wait(ev)

    with pytest.raises(SimulationError):
        cpu.raise_irq(3, handler)


def test_round_robin_preemption_on_resched():
    sim, cpu = make_cpu()
    trace = []

    def long_job(tag):
        yield Exec(100 * US)
        trace.append((tag, sim.now))

    def clock_handler():
        cpu.preempt_base_round_robin()
        yield Exec(1 * US)

    cpu.spawn_base(long_job("a"))
    cpu.spawn_base(long_job("b"))
    sim.schedule(50 * US, cpu.raise_irq, 6, clock_handler)
    sim.run()
    # a runs 50us, clock fires, b gets the CPU, then a finishes.
    assert trace[0][0] == "b"
    assert trace[1][0] == "a"


def test_dma_contention_stretches_execution():
    sim, cpu = make_cpu()
    cpu.interference_per_source = 0.5
    trace = []

    def base():
        yield Exec(100 * US)
        trace.append(sim.now)

    cpu.spawn_base(base())
    # DMA into system memory runs from t=0 to t=60us.
    cpu.contention_started()
    sim.schedule(60 * US, cpu.contention_ended)
    sim.run()
    # First 60us progress at 1/1.5 rate -> 40us of work done; the remaining
    # 60us of work runs at full speed: total 120us.
    assert trace == [120 * US]


def test_contention_factor_accumulates_per_source():
    sim, cpu = make_cpu()
    cpu.interference_per_source = 0.5
    trace = []

    def base():
        yield Exec(100 * US)
        trace.append(sim.now)

    cpu.spawn_base(base())
    # Two system-memory DMA transfers from t=0; one ends at t=100us.
    cpu.contention_started()
    cpu.contention_started()
    sim.schedule(100 * US, cpu.contention_ended)
    sim.run()
    # 100us at 1/2.0 rate -> 50us of work done; the remaining 50us runs
    # at 1/1.5 rate and takes 75us: total 175us.
    assert trace == [175 * US]


def test_contention_underflow_is_an_error():
    sim, cpu = make_cpu()
    with pytest.raises(SimulationError):
        cpu.contention_ended()


def test_context_switch_cost_applied():
    sim, cpu = make_cpu(ctx=80 * US)
    trace = []

    def body():
        yield Exec(20 * US)
        trace.append(sim.now)

    cpu.spawn_base(body())
    sim.run()
    assert trace == [100 * US]


def test_spawn_base_done_event_carries_return_value():
    sim, cpu = make_cpu()

    def body():
        yield Exec(1 * US)
        return "finished"

    done = cpu.spawn_base(body())
    sim.run()
    assert done.triggered and done.value == "finished"


def test_nested_preemption_three_levels():
    sim, cpu = make_cpu()
    trace = []

    def base():
        yield Exec(1 * MS)
        trace.append(("base", sim.now))

    def mid():
        yield Exec(200 * US)
        trace.append(("mid", sim.now))

    def top():
        yield Exec(50 * US)
        trace.append(("top", sim.now))

    cpu.spawn_base(base())
    sim.schedule(100 * US, cpu.raise_irq, 3, mid)
    sim.schedule(150 * US, cpu.raise_irq, 6, top)
    sim.run()
    assert trace == [
        ("top", 200 * US),      # 150 + 50
        ("mid", 350 * US),      # mid did 50us before preemption, 150 left
        ("base", 1 * MS + 250 * US),
    ]


def test_utilization_accounting():
    sim, cpu = make_cpu()

    def body():
        yield Exec(300 * US)

    cpu.spawn_base(body())
    sim.run(until=1 * MS)
    assert cpu.utilization(1 * MS) == pytest.approx(0.3, abs=0.01)


def test_lowering_spl_dispatches_pending_immediately():
    sim, cpu = make_cpu()
    trace = []

    def base():
        yield SetSpl(7)
        yield Exec(100 * US)
        yield SetSpl(0)  # pended IRQ must run *here*, before next Exec
        trace.append(("resumed", sim.now))
        yield Exec(1 * US)

    def handler():
        trace.append(("irq", sim.now))
        yield Exec(25 * US)

    cpu.spawn_base(base())
    sim.schedule(10 * US, cpu.raise_irq, 4, handler)
    sim.run()
    assert trace == [("irq", 100 * US), ("resumed", 125 * US)]
