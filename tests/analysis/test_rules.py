"""Fixture-based detection tests: every ctms-lint rule class fires.

Each fixture plants one deliberate violation (unseeded RNG, wall-clock
call, float delay, layering import, ...) and asserts the engine reports
exactly that rule at the right place -- plus the negative twins showing
the compliant spelling stays clean.
"""

import textwrap

from repro.analysis.engine import lint_source
from repro.analysis.layering import package_of
from repro.analysis.rules import RULES


def lint(source: str, path: str = "repro/core/example.py"):
    return lint_source(textwrap.dedent(source), path)


def rule_ids(source: str, path: str = "repro/core/example.py"):
    return [f.rule for f in lint(source, path)]


# ----------------------------------------------------------------------
# CTMS101 -- global random functions
# ----------------------------------------------------------------------
def test_global_random_call_flagged():
    findings = lint(
        """
        import random

        def jitter():
            return random.random() * 5
        """
    )
    assert [f.rule for f in findings] == ["CTMS101"]
    assert "global RNG" in findings[0].message
    assert "RandomStreams" in findings[0].hint


def test_module_alias_tracked():
    assert rule_ids(
        """
        import random as rnd

        x = rnd.randint(1, 6)
        """
    ) == ["CTMS101"]


def test_named_stream_use_is_clean():
    assert rule_ids(
        """
        from repro.sim.rng import RandomStreams

        rng = RandomStreams(7).get("arp")
        x = rng.random()
        """
    ) == []


# ----------------------------------------------------------------------
# CTMS102 -- unseeded random.Random()
# ----------------------------------------------------------------------
def test_unseeded_random_constructor_flagged():
    assert rule_ids(
        """
        import random

        rng = random.Random()
        """
    ) == ["CTMS102"]


def test_seeded_random_constructor_is_clean():
    assert rule_ids(
        """
        import random

        rng = random.Random(1234)
        """
    ) == []


def test_sim_rng_home_is_exempt():
    source = """
    import random

    stream = random.Random()
    """
    assert rule_ids(source, path="src/repro/sim/rng.py") == []
    assert rule_ids(source, path="src/repro/sim/engine.py") == ["CTMS102"]


# ----------------------------------------------------------------------
# CTMS103 -- wall clocks
# ----------------------------------------------------------------------
def test_time_time_flagged():
    assert rule_ids(
        """
        import time

        start = time.time()
        """
    ) == ["CTMS103"]


def test_perf_counter_and_sleep_flagged():
    assert rule_ids(
        """
        import time

        t = time.perf_counter()
        time.sleep(1)
        """
    ) == ["CTMS103", "CTMS103"]


def test_from_time_import_flagged_at_import():
    findings = lint(
        """
        from time import perf_counter
        """
    )
    assert [f.rule for f in findings] == ["CTMS103"]
    assert findings[0].line == 2


def test_datetime_now_flagged_via_type_and_module():
    assert rule_ids(
        """
        from datetime import datetime

        stamp = datetime.now()
        """
    ) == ["CTMS103"]
    assert rule_ids(
        """
        import datetime

        stamp = datetime.datetime.now()
        """
    ) == ["CTMS103"]


def test_simulator_now_is_clean():
    assert rule_ids(
        """
        def stamp(sim):
            return sim.now
        """
    ) == []


# ----------------------------------------------------------------------
# CTMS104 -- unordered iteration feeding the calendar
# ----------------------------------------------------------------------
def test_set_iteration_scheduling_flagged():
    findings = lint(
        """
        def arm(sim, stations):
            for station in set(stations):
                sim.schedule(10, station.wake)
        """
    )
    assert [f.rule for f in findings] == ["CTMS104"]
    assert "hash order" in findings[0].message
    # The allocation-free tier schedules just the same.
    assert rule_ids(
        """
        def arm(sim, stations):
            for station in set(stations):
                sim.schedule_fast(10, station.wake)
        """
    ) == ["CTMS104"]


def test_keys_iteration_scheduling_flagged():
    assert rule_ids(
        """
        def arm(sim, hosts):
            for name in hosts.keys():
                sim.schedule_fast(10, hosts[name].boot)
        """
    ) == ["CTMS104"]


def test_sorted_iteration_is_clean():
    assert rule_ids(
        """
        def arm(sim, stations):
            for station in sorted(set(stations)):
                sim.schedule(10, station.wake)
        """
    ) == []


def test_set_iteration_without_scheduling_is_clean():
    assert rule_ids(
        """
        def total(weights):
            acc = 0
            for w in set(weights):
                acc += w
            return acc
        """
    ) == []


# ----------------------------------------------------------------------
# CTMS105 -- from random import ...
# ----------------------------------------------------------------------
def test_from_random_import_flagged():
    assert rule_ids(
        """
        from random import choice
        """
    ) == ["CTMS105"]


# ----------------------------------------------------------------------
# CTMS201 -- float delays
# ----------------------------------------------------------------------
def test_float_literal_delay_flagged():
    findings = lint(
        """
        def arm(sim, fn):
            sim.schedule(1.5, fn)
        """
    )
    assert [f.rule for f in findings] == ["CTMS201"]
    assert "units.NS/US/MS/SEC" in findings[0].hint
    for call in ("sim.schedule_fast(1.5, fn)", "sim.at_fast(1.5, fn)"):
        assert rule_ids(f"def arm(sim, fn):\n    {call}\n") == ["CTMS201"]


def test_float_expression_delay_flagged():
    assert rule_ids(
        """
        MS = 1_000_000

        def arm(sim, fn):
            sim.at(0.5 * MS, fn)
        """
    ) == ["CTMS201"]


def test_true_division_delay_flagged():
    assert rule_ids(
        """
        def arm(sim, fn, period, n):
            sim.timeout(period / n)
        """
    ) == ["CTMS201"]


def test_float_ns_keyword_flagged():
    assert rule_ids(
        """
        def go(bed, SEC):
            bed.run(duration_ns=1.5 * SEC)
        """
    ) == ["CTMS201"]


def test_int_laundered_delay_is_clean():
    assert rule_ids(
        """
        def arm(sim, fn, period, n):
            sim.schedule(round(period / n), fn)
            sim.schedule(int(1.5 * 1000), fn)
        """
    ) == []


def test_from_ms_conversion_is_clean():
    assert rule_ids(
        """
        from repro.sim.units import from_ms

        def arm(sim, fn):
            sim.schedule(from_ms(1.5), fn)
        """
    ) == []


# ----------------------------------------------------------------------
# CTMS301/302 -- layering
# ----------------------------------------------------------------------
def test_package_of():
    assert package_of("src/repro/hardware/cpu.py") == "hardware"
    assert package_of("src/repro/cli.py") == ""
    assert package_of("somewhere/else.py") is None


def test_hardware_importing_drivers_flagged():
    findings = lint(
        """
        from repro.drivers.vca import VCADriver
        """,
        path="repro/hardware/adapter.py",
    )
    assert [f.rule for f in findings] == ["CTMS301"]
    assert "`hardware` sits below `drivers`" in findings[0].message


def test_hardware_importing_core_and_experiments_flagged():
    assert rule_ids(
        """
        from repro.core.session import CTMSSession
        import repro.experiments.testbed
        """,
        path="repro/hardware/adapter.py",
    ) == ["CTMS301", "CTMS301"]


def test_drivers_importing_experiments_flagged_even_lazily():
    assert rule_ids(
        """
        def run():
            from repro.experiments.testbed import Testbed
            return Testbed
        """,
        path="repro/drivers/token_ring.py",
    ) == ["CTMS301"]


def test_drivers_importing_hardware_is_clean():
    assert rule_ids(
        """
        from repro.hardware.cpu import CPU
        from repro.core.ctmsp import Packet
        """,
        path="repro/drivers/vca.py",
    ) == []


def test_sim_kernel_purity():
    assert rule_ids(
        """
        from repro.hardware.cpu import CPU
        """,
        path="repro/sim/engine.py",
    ) == ["CTMS301"]


def test_measure_observe_only():
    findings = lint(
        """
        from repro.drivers.vca import VCADriver
        from repro.core.ctmsp import Packet
        """,
        path="repro/measure/pcat.py",
    )
    assert [f.rule for f in findings] == ["CTMS302"]
    assert "observe-only" in findings[0].message


def test_experiments_may_import_anything():
    assert rule_ids(
        """
        from repro.core.session import CTMSSession
        from repro.drivers.vca import VCADriver
        from repro.faults.plan import FaultPlan
        """,
        path="repro/experiments/chaos.py",
    ) == []


# ----------------------------------------------------------------------
# CTMS303 -- process machinery confined to the fleet supervisor
# ----------------------------------------------------------------------
def test_multiprocessing_import_flagged():
    findings = lint(
        """
        import multiprocessing
        """
    )
    assert [f.rule for f in findings] == ["CTMS303"]
    assert "fleet supervisor" in findings[0].message
    assert "repro/experiments/fleet.py" in findings[0].hint


def test_all_process_machinery_modules_flagged():
    assert rule_ids(
        """
        import subprocess
        import threading
        import signal
        from concurrent.futures import ProcessPoolExecutor
        """
    ) == ["CTMS303", "CTMS303", "CTMS303", "CTMS303"]


def test_fleet_home_may_use_processes_and_wall_clock():
    source = """
    import multiprocessing
    import signal
    import time

    def watchdog():
        return time.monotonic_ns()
    """
    assert rule_ids(source, path="src/repro/experiments/fleet.py") == []
    assert sorted(rule_ids(source, path="repro/experiments/chaos.py")) == [
        "CTMS103",
        "CTMS303",
        "CTMS303",
    ]


def test_signal_suffix_module_is_not_confused():
    # Only the *top-level* modules count; repro's own names that merely
    # contain a machinery word must stay clean.
    assert rule_ids(
        """
        from repro.core.signalling import Heartbeat
        """,
        path="repro/experiments/example.py",
    ) == []


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------
def test_inline_suppression_by_rule():
    assert rule_ids(
        """
        def arm(sim, fn):
            sim.schedule(1.5, fn)  # ctms-lint: disable=CTMS201
        """
    ) == []


def test_inline_suppression_all():
    assert rule_ids(
        """
        import random

        x = random.random()  # ctms-lint: disable=all
        """
    ) == []


def test_suppression_of_other_rule_does_not_apply():
    assert rule_ids(
        """
        def arm(sim, fn):
            sim.schedule(1.5, fn)  # ctms-lint: disable=CTMS101
        """
    ) == ["CTMS201"]


def test_suppression_comma_list():
    source = """
    import time

    def bad(sim, fn):
        sim.schedule(1.5 * time.time(), fn){comment}
    """
    assert sorted(rule_ids(source.format(comment=""))) == ["CTMS103", "CTMS201"]
    assert rule_ids(
        source.format(comment="  # ctms-lint: disable=CTMS103,CTMS201")
    ) == []


# ----------------------------------------------------------------------
# registry hygiene
# ----------------------------------------------------------------------
def test_every_rule_has_hint_and_severity():
    for rule in RULES.values():
        assert rule.id.startswith("CTMS")
        assert rule.severity in ("error", "warning")
        assert rule.summary and rule.hint


# ----------------------------------------------------------------------
# CTMS302 -- per-module observe-only coverage (telemetry, rollup)
# ----------------------------------------------------------------------
def test_rollup_module_is_observe_only_by_name():
    # experiments is otherwise unconstrained (it orchestrates), but the
    # journal aggregator is held observe-only: importing an actuator or
    # model layer from rollup.py is CTMS302, same source elsewhere in
    # experiments is clean.
    source = """
    from repro.core.session import CTMSSession
    from repro.faults.plan import FaultPlan
    """
    findings = lint(source, path="repro/experiments/rollup.py")
    assert [f.rule for f in findings] == ["CTMS302", "CTMS302"]
    assert "observe-only" in findings[0].message
    assert "experiments/rollup.py" in findings[0].message
    assert rule_ids(source, path="repro/experiments/chaos.py") == []


def test_rollup_may_import_fleet_and_reporting():
    # The journal loader and the table renderer (an observe-only obs
    # module) are exactly what the rollup is for.
    assert rule_ids(
        """
        from repro.experiments.fleet import Journal
        from repro.obs.metrics import format_table
        """,
        path="repro/experiments/rollup.py",
    ) == []


def test_telemetry_module_named_in_observe_only_map():
    # obs/telemetry.py is already covered by the obs package rule; the
    # per-module entry keeps the contract if the module ever moves.
    findings = lint(
        """
        from repro.experiments.fleet import run_fleet
        """,
        path="repro/obs/telemetry.py",
    )
    assert [f.rule for f in findings] == ["CTMS302"]
    assert "obs/telemetry.py" in findings[0].message


# ----------------------------------------------------------------------
# CTMS103/303 -- the fleet supervisor is the one host-clock home
# ----------------------------------------------------------------------
def test_fleet_is_the_only_sanctioned_clock_home():
    source = """
    import time

    def stopwatch():
        return time.perf_counter()
    """
    assert rule_ids(source, path="src/repro/experiments/fleet.py") == []
    assert rule_ids(source, path="src/repro/bench/harness.py") == ["CTMS103"]


# ----------------------------------------------------------------------
# CTMS304 -- control-plane policy confined to repro/core/control.py
# ----------------------------------------------------------------------
def test_policy_function_outside_control_home_flagged():
    findings = lint(
        """
        def decide_admission(request, ledger):
            return "admit"
        """,
        path="repro/experiments/failover.py",
    )
    assert [f.rule for f in findings] == ["CTMS304"]
    assert "control-plane policy" in findings[0].message
    assert "repro/core/control.py" in findings[0].hint


def test_every_policy_name_is_guarded():
    source = """
    def decide_admission(): ...
    def select_server(): ...
    def select_victims(): ...
    def plan_failover(): ...
    """
    assert rule_ids(source, path="repro/experiments/example.py") == [
        "CTMS304",
        "CTMS304",
        "CTMS304",
        "CTMS304",
    ]


def test_control_home_may_define_policy():
    source = """
    def decide_admission(request, ledger):
        return "admit"

    def select_victims(sessions):
        return []
    """
    assert rule_ids(source, path="src/repro/core/control.py") == []


def test_policy_methods_flagged_too():
    # A class wrapper is not an escape hatch: the policy decision still
    # lives outside its home.
    assert rule_ids(
        """
        class ShadowPlane:
            def select_victims(self):
                return []
        """,
        path="repro/experiments/example.py",
    ) == ["CTMS304"]


def test_calling_policy_is_not_defining_it():
    assert rule_ids(
        """
        from repro.core.control import SessionControlPlane

        def run(plane):
            return plane.select_victims()
        """,
        path="repro/experiments/failover.py",
    ) == []
