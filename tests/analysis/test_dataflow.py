"""Unit dataflow: integer-ns discipline enforced through assignments,
arithmetic, scheduling calls, and cross-module positional arguments.

Per-file findings ride along in :func:`summarize_module`'s raw set;
cross-module positional-argument checks come from
:func:`check_graph_units` over the linked graph.
"""

import textwrap

from repro.analysis.dataflow import check_graph_units, dim_of_name, incompatible
from repro.analysis.graph import ProjectGraph, summarize_module


def raw_rules(source: str, path: str = "repro/core/example.py"):
    m = summarize_module(textwrap.dedent(source), path)
    return [(f.rule, f.line) for f in m.raw]


def graph_rules(*files: tuple[str, str]):
    g = ProjectGraph(
        [summarize_module(textwrap.dedent(src), path) for path, src in files]
    )
    return [(f.rule, f.file, f.line) for f in check_graph_units(g)]


# ----------------------------------------------------------------------
# naming conventions and dimension algebra
# ----------------------------------------------------------------------
def test_dim_of_name_conventions():
    assert dim_of_name("delay_ns") == "ns"
    assert dim_of_name("budget_bytes") == "bytes"
    assert dim_of_name("rate_bytes_per_sec") == "Bps"
    assert dim_of_name("now") == "ns"
    assert dim_of_name("n_frames_count") == "count"
    # Conversion helpers name their *input* unit, not their result.
    assert dim_of_name("from_sec") is None
    assert dim_of_name("per_byte") is None


def test_incompatible_pairs():
    assert incompatible("ns", "s")
    assert incompatible("bytes", "bits")
    assert incompatible("ns", "bytes")
    assert not incompatible("ns", "ns")
    assert not incompatible("ns", "count")
    assert not incompatible("ns", None)


# ----------------------------------------------------------------------
# CTMS211 -- float contamination of *_ns values
# ----------------------------------------------------------------------
def test_float_bound_to_ns_name_flagged():
    assert ("CTMS211", 3) in raw_rules(
        """
        def go(period_ns):
            smoothed_ns = period_ns * 0.5
            return smoothed_ns
        """
    )


def test_int_laundered_float_is_clean():
    assert raw_rules(
        """
        def go(period_ns):
            smoothed_ns = int(period_ns * 0.5)
            return smoothed_ns
        """
    ) == []


def test_float_return_from_ns_function_flagged():
    assert any(
        rule == "CTMS211"
        for rule, _ in raw_rules(
            """
            def mean_gap_ns(gaps):
                return sum(gaps) / len(gaps)
            """
        )
    )


def test_explicit_float_annotation_exempts_return():
    # `-> float` makes the boundary visible; no silent contamination.
    assert raw_rules(
        """
        def mean_gap_ns(gaps) -> float:
            return sum(gaps) / len(gaps)
        """
    ) == []


# ----------------------------------------------------------------------
# CTMS212 -- unit mismatches
# ----------------------------------------------------------------------
def test_seconds_bound_to_ns_name_flagged():
    assert ("CTMS212", 3) in raw_rules(
        """
        def go(timeout_s):
            timeout_ns = timeout_s
            return timeout_ns
        """
    )


def test_adding_bytes_and_bits_flagged():
    assert any(
        rule == "CTMS212"
        for rule, _ in raw_rules(
            """
            def total(hdr_bits, payload_bytes):
                return hdr_bits + payload_bytes
            """
        )
    )


def test_unit_constant_conversion_is_clean():
    assert raw_rules(
        """
        def go(timeout_s, SEC):
            timeout_ns = timeout_s * SEC
            return timeout_ns
        """
    ) == []


def test_division_by_sec_of_unknown_value_stays_unknown():
    # rate * period / SEC is a per-second normalization, not a time --
    # the regression that once tagged bytes_per_period as seconds.
    assert raw_rules(
        """
        def go(rate_bytes_per_sec, PERIOD, SEC):
            budget_bytes = round(rate_bytes_per_sec * PERIOD / SEC)
            return budget_bytes
        """
    ) == []


def test_named_factor_erases_dimension():
    # nbytes * ns_per_byte is a time, not bytes: the product of a
    # dimensioned value and an unknown named factor must stay unknown.
    assert raw_rules(
        """
        def wire_time(nbytes, ns_per_byte):
            wire_ns = nbytes * ns_per_byte
            return wire_ns
        """
    ) == []


def test_rate_times_seconds_gives_bytes():
    assert raw_rules(
        """
        def burst(rate_bytes_per_sec, window_s):
            burst_bytes = rate_bytes_per_sec * window_s
            return burst_bytes
        """
    ) == []
    assert any(
        rule == "CTMS212"
        for rule, _ in raw_rules(
            """
            def burst(rate_bytes_per_sec, window_s):
                burst_ns = rate_bytes_per_sec * window_s
                return burst_ns
            """
        )
    )


def test_schedule_first_argument_checked():
    assert any(
        rule == "CTMS212"
        for rule, _ in raw_rules(
            """
            def arm(sim, fn, gap_bytes):
                sim.schedule(gap_bytes, fn)
            """
        )
    )
    for method in ("schedule_fast", "at_fast"):
        assert any(
            rule == "CTMS212"
            for rule, _ in raw_rules(
                f"""
                def arm(sim, fn, wait_us):
                    sim.{method}(wait_us, fn)
                """
            )
        )


# ----------------------------------------------------------------------
# cross-module positional arguments (needs the graph)
# ----------------------------------------------------------------------
def test_cross_module_second_unit_passed_to_ns_parameter():
    findings = graph_rules(
        (
            "repro/sim/timers.py",
            """
            def arm(delay_ns, fn): ...
            """,
        ),
        (
            "repro/core/user.py",
            """
            from repro.sim.timers import arm


            def go(fn, grace_s):
                arm(grace_s, fn)
            """,
        ),
    )
    assert [(r, f) for r, f, _l in findings] == [("CTMS212", "repro/core/user.py")]


def test_cross_module_matching_units_clean():
    assert graph_rules(
        (
            "repro/sim/timers.py",
            """
            def arm(delay_ns, fn): ...
            """,
        ),
        (
            "repro/core/user.py",
            """
            from repro.sim.timers import arm


            def go(fn, grace_ns):
                arm(grace_ns, fn)
            """,
        ),
    ) == []
