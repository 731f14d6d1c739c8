"""Tests for declarative fault plans."""

import random

import pytest

from repro.faults.plan import (
    ADAPTER_KINDS,
    FAULT_KINDS,
    HOST_KINDS,
    RING_KINDS,
    SERVER_KINDS,
    FaultEvent,
    FaultPlan,
)
from repro.sim.units import MS, SEC


def test_taxonomy_is_partitioned():
    families = (RING_KINDS, ADAPTER_KINDS, HOST_KINDS, SERVER_KINDS)
    union = frozenset().union(*families)
    assert union == FAULT_KINDS
    for i, a in enumerate(families):
        for b in families[i + 1:]:
            assert not a & b


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultPlan().add(0, "cosmic_ray")


def test_ring_kind_must_not_target_a_host():
    with pytest.raises(ValueError, match="ring-level"):
        FaultPlan().add(0, "purge", host="receiver")


def test_host_kind_needs_a_target():
    with pytest.raises(ValueError, match="needs a target host"):
        FaultPlan().add(0, "cpu_steal", duration_ns=SEC)


def test_negative_time_rejected():
    with pytest.raises(ValueError, match="past"):
        FaultEvent(at_ns=-1, kind="purge").validate()


def test_builders_chain_and_record_params():
    plan = (
        FaultPlan()
        .purge(1 * SEC)
        .purge_burst(2 * SEC, count=10)
        .token_starvation(3 * SEC, duration_ns=SEC)
        .cpu_steal(4 * SEC, duration_ns=SEC, host="receiver", layers=2)
        .frame_loss(5 * SEC, duration_ns=100 * MS)
    )
    assert len(plan) == 5
    kinds = [e.kind for e in plan]
    assert kinds == [
        "purge", "purge_burst", "token_starvation", "cpu_steal", "frame_loss",
    ]
    steal = plan.events[3]
    assert steal.host == "receiver"
    assert steal.params["layers"] == 2
    plan.validate()


def test_sorted_events_orders_by_time():
    plan = FaultPlan().purge(3 * SEC).purge(1 * SEC).purge(2 * SEC)
    assert [e.at_ns for e in plan.sorted_events()] == [1 * SEC, 2 * SEC, 3 * SEC]


def test_describe_lists_every_event():
    plan = FaultPlan().purge(1 * SEC).cpu_steal(2 * SEC, duration_ns=SEC, host="rx")
    text = plan.describe()
    assert "purge" in text and "cpu_steal" in text and "rx" in text


def test_random_plan_is_deterministic():
    def build():
        return FaultPlan.random(
            random.Random(99),
            duration_ns=10 * SEC,
            intensity=1.5,
            hosts=["transmitter", "receiver"],
        )

    a, b = build(), build()
    assert [  # identical event for event
        (e.at_ns, e.kind, e.host, sorted(e.params.items())) for e in a
    ] == [(e.at_ns, e.kind, e.host, sorted(e.params.items())) for e in b]
    assert len(a) >= 1


def test_random_plans_differ_across_seeds():
    a = FaultPlan.random(random.Random(1), duration_ns=10 * SEC, hosts=["h"])
    b = FaultPlan.random(random.Random(2), duration_ns=10 * SEC, hosts=["h"])
    assert [(e.at_ns, e.kind) for e in a] != [(e.at_ns, e.kind) for e in b]


def test_random_plan_respects_start_and_duration():
    plan = FaultPlan.random(
        random.Random(5), duration_ns=10 * SEC, intensity=3.0, hosts=["h"]
    )
    for event in plan:
        assert 250 * MS <= event.at_ns < 10 * SEC


def test_random_without_hosts_emits_only_ring_kinds():
    plan = FaultPlan.random(random.Random(7), duration_ns=10 * SEC, intensity=2.0)
    assert len(plan) >= 1
    for event in plan:
        assert event.kind in RING_KINDS


def test_random_intensity_zero_is_empty():
    assert len(FaultPlan.random(random.Random(1), duration_ns=SEC, intensity=0)) == 0


def test_random_negative_intensity_rejected():
    with pytest.raises(ValueError):
        FaultPlan.random(random.Random(1), duration_ns=SEC, intensity=-1)
