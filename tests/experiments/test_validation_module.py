"""Tests for the model-validation library."""

from repro.experiments.validation import (
    AGREEMENT_TOLERANCE_NS,
    random_plan,
    validate,
)


def test_random_plan_is_deterministic_and_well_formed():
    a = random_plan(seed=5, n_frames=20)
    b = random_plan(seed=5, n_frames=20)
    assert a == b
    assert len(a) == 20
    for sender, receiver, nbytes, priority, delay, tag in a:
        assert sender != receiver
        assert 1 <= nbytes <= 2500
        assert priority in (0, 4)
        assert 0 <= delay <= 400


def test_validate_agrees_on_default_workload():
    result = validate(seed=1, n_frames=40)
    assert result.frames == 40
    assert result.mean_delivery_skew_ns < AGREEMENT_TOLERANCE_NS
    # Worst case bounded by one maximum wire time (knife-edge order flip).
    assert result.max_delivery_skew_ns <= 5_100_000


def test_different_seeds_give_different_workloads():
    assert random_plan(1, 10) != random_plan(2, 10)
