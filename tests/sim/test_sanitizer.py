"""The same-instant race detector and the kernel's tie-break guarantees.

Covers the sim kernel's determinism contract from both sides: identical
seeds reproduce identical event traces (the property the whole testbed
rests on), and the sanitizer's seeded tie-break permutation flags a model
whose end state depends on same-instant FIFO order.
"""

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.rng import RandomStreams
from repro.sim.sanitizer import OrderRaceError, check_tiebreak_invariance


# ----------------------------------------------------------------------
# trace determinism: same seed, same schedule
# ----------------------------------------------------------------------
def _traced_run(seed: int) -> list[tuple[int, str]]:
    """A stochastic toy workload driven entirely by named seeded streams."""
    sim = Simulator(record_trace=True)
    rng = RandomStreams(seed).get("toy.workload")

    def tick(i: int) -> None:
        if i < 200:
            sim.schedule(rng.randrange(1, 5_000), tick, i + 1)
        if rng.random() < 0.3:
            sim.schedule(rng.randrange(0, 100), noop)

    def noop() -> None:
        pass

    sim.schedule(0, tick, 0)
    sim.run()
    return sim.trace


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_identical_seeds_produce_identical_event_traces(seed):
    first = _traced_run(seed)
    second = _traced_run(seed)
    assert len(first) > 200
    assert first == second


def test_different_seeds_produce_different_traces():
    assert _traced_run(1) != _traced_run(2)


def test_trace_off_by_default():
    sim = Simulator()
    sim.schedule(5, lambda: None)
    sim.run()
    assert sim.trace == []


# ----------------------------------------------------------------------
# tie-break policies
# ----------------------------------------------------------------------
def test_unknown_tiebreak_rejected():
    with pytest.raises(SimulationError):
        Simulator(tiebreak="chronological")


def test_random_tiebreak_is_deterministic_per_seed():
    def run(tb_seed: int) -> list[tuple[int, str]]:
        sim = Simulator(tiebreak="random", tiebreak_seed=tb_seed, record_trace=True)
        order: list[int] = []
        for i in range(20):
            sim.schedule(10, order.append, i)
        sim.run()
        return order

    assert run(3) == run(3)
    assert run(3) != run(4)  # a different permutation of the same instant


def test_random_tiebreak_actually_permutes():
    sim = Simulator(tiebreak="random", tiebreak_seed=1)
    order: list[int] = []
    for i in range(20):
        sim.schedule(10, order.append, i)
    sim.run()
    assert sorted(order) == list(range(20))
    assert order != list(range(20))


def test_random_tiebreak_preserves_causality():
    """An entry scheduled *during* an instant still runs after its cause."""
    for tb_seed in range(10):
        sim = Simulator(tiebreak="random", tiebreak_seed=tb_seed)
        log: list[str] = []

        def parent() -> None:
            log.append("parent")
            sim.schedule(0, child)

        def child() -> None:
            assert "parent" in log
            log.append("child")

        for _ in range(5):
            sim.schedule(10, parent)
        sim.run()
        assert log.count("parent") == 5 and log.count("child") == 5


def test_random_tiebreak_never_reorders_across_instants():
    sim = Simulator(tiebreak="random", tiebreak_seed=9, record_trace=True)
    order: list[int] = []
    for i in range(50):
        sim.schedule(i, order.append, i)
    sim.run()
    assert order == list(range(50))


# ----------------------------------------------------------------------
# the sanitizer itself
# ----------------------------------------------------------------------
def _race_free_model(sim: Simulator):
    """Same-instant writers that commute: end state is order-invariant."""
    state = {"total": 0}
    for i in range(8):
        sim.schedule(100, lambda i=i: state.__setitem__("total", state["total"] + i))
    return lambda: state["total"]


def _racy_model(sim: Simulator):
    """Deliberate order dependence: last same-instant writer wins."""
    state = {"value": 0}
    for i in range(8):
        sim.schedule(100, lambda i=i: state.__setitem__("value", i))
    return lambda: state["value"]


def test_sanitizer_passes_race_free_model():
    fingerprint = check_tiebreak_invariance(_race_free_model, trials=8, seed=0)
    assert fingerprint == sum(range(8))


def test_sanitizer_flags_order_dependent_model():
    with pytest.raises(OrderRaceError) as excinfo:
        check_tiebreak_invariance(_racy_model, trials=8, seed=0)
    err = excinfo.value
    assert err.reference == 7  # FIFO: last scheduled writer wins
    assert err.divergences, "no divergent trial recorded"
    assert "same-instant event-order race" in str(err)


def test_sanitizer_divergence_is_replayable():
    """The reported tie-break seed reproduces the losing order exactly."""
    with pytest.raises(OrderRaceError) as excinfo:
        check_tiebreak_invariance(_racy_model, trials=4, seed=2)
    divergence = excinfo.value.divergences[0]
    sim = Simulator(tiebreak="random", tiebreak_seed=divergence.tiebreak_seed)
    fingerprint = _racy_model(sim)
    sim.run()
    assert fingerprint() == divergence.fingerprint


def test_sanitizer_is_deterministic():
    def capture():
        try:
            check_tiebreak_invariance(_racy_model, trials=6, seed=11)
        except OrderRaceError as err:
            return [(d.tiebreak_seed, d.fingerprint) for d in err.divergences]
        return []

    first, second = capture(), capture()
    assert first and first == second


def test_sanitizer_respects_until():
    def late_model(sim: Simulator):
        state = {"value": 0}
        sim.schedule(100, lambda: state.__setitem__("value", 1))
        sim.schedule(100, lambda: state.__setitem__("value", 2))
        return lambda: state["value"]

    # Horizon before the racy instant: nothing ran, states agree.
    assert check_tiebreak_invariance(late_model, trials=4, seed=0, until=50) == 0
    with pytest.raises(OrderRaceError):
        check_tiebreak_invariance(late_model, trials=8, seed=0, until=200)


def test_sanitizer_rejects_zero_trials():
    with pytest.raises(ValueError):
        check_tiebreak_invariance(_race_free_model, trials=0)
