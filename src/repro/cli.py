"""Command-line interface: run the paper's experiments from a shell.

::

    python -m repro list                  # what can be run
    python -m repro fig5-2 [--seconds 60] [--seed 1]
    python -m repro fig5-3
    python -m repro fig5-4 [--minutes 6]
    python -m repro histograms {a,b}
    python -m repro baseline
    python -m repro copies
    python -m repro quickstart
    python -m repro lint src/repro [--json] [--baseline lint-baseline.json] [--no-cache]
    python -m repro chaos --jobs 4 --seeds 8 [--resume]
    python -m repro fleet status [--state-dir .fleet]
    python -m repro fleet watch [--interval 1.0] [--campaign SUBSTR]
    python -m repro fleet rollup [--json]
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from repro.sim.units import MINUTE, SEC


#: The commands that print one claim-table entry, by ``results/`` name.
ENTRY_COMMANDS = {"fig5-2": "fig_5_2", "fig5-3": "fig_5_3", "fig5-4": "fig_5_4",
                  "baseline": "baseline_rates", "copies": "copy_counts"}


def _cmd_entry(args) -> int:
    """One ``results/`` table (paper vs measured) at the command's duration."""
    from repro.experiments.claims import ENTRIES

    entry = ENTRIES[ENTRY_COMMANDS[args.command]]
    minutes = getattr(args, "minutes", None)  # fig5-4 is sized in minutes
    duration = minutes * MINUTE if minutes else args.seconds * SEC
    print(entry.report(entry.run(duration, args.seed)))
    return 0


def _cmd_histograms(args) -> int:
    from repro.experiments.claims import ENTRIES

    entry = ENTRIES[f"histograms_case_{args.case}"]
    result = entry.run(args.seconds * SEC, args.seed)
    print(entry.report(result))
    for i in sorted(result.histograms):
        print()
        print(result.histograms[i].to_ascii(width=50, max_rows=25))
    return 0


def _cmd_ablate(args) -> int:
    from repro.experiments.ablations import ablation_fleet_spec
    from repro.experiments.claims import ABLATIONS

    if args.jobs >= 1 or args.seeds > 1 or args.resume:
        spec = ablation_fleet_spec(
            args.seconds * SEC,
            seeds=range(args.seed, args.seed + args.seeds),
        )
        return _run_fleet_cli(spec, args)
    print(ABLATIONS.report(ABLATIONS.run(args.seconds * SEC, args.seed)))
    return 0


def _cmd_chaos(args) -> int:
    from repro.experiments.chaos import (
        chaos_fleet_spec,
        run_campaign,
        run_smoke,
    )

    if getattr(args, "scenario", "survival") == "failover":
        return _cmd_chaos_failover(args)
    if args.jobs >= 1 or args.seeds > 1 or args.resume:
        spec = chaos_fleet_spec(
            seeds=range(args.seed, args.seed + args.seeds),
            duration_ns=args.seconds * SEC,
            intensities=(
                tuple(args.intensities) if args.intensities else (0.5, 1.0, 2.0)
            ),
        )
        return _run_fleet_cli(spec, args)
    if args.smoke:
        report = run_smoke(seed=args.seed)
    elif args.intensities:
        report = run_campaign(
            seed=args.seed,
            duration_ns=args.seconds * SEC,
            intensities=tuple(args.intensities),
        )
    else:
        report = run_campaign(seed=args.seed, duration_ns=args.seconds * SEC)
    print(report.render())
    return 0


def _cmd_chaos_failover(args) -> int:
    """The control-plane scenario: admission + shedding + failover."""
    from repro.experiments.failover import (
        failover_fleet_spec,
        run_failover_campaign,
        run_failover_smoke,
    )

    if args.jobs >= 1 or args.seeds > 1 or args.resume:
        spec = failover_fleet_spec(
            seeds=range(args.seed, args.seed + args.seeds),
            duration_ns=args.seconds * SEC,
        )
        return _run_fleet_cli(spec, args)
    if args.smoke:
        report = run_failover_smoke(seed=args.seed)
    else:
        report = run_failover_campaign(
            seed=args.seed, duration_ns=args.seconds * SEC
        )
    print(report.render())
    return 0


def _resume_command(args) -> str:
    """The exact invocation that continues this campaign after a kill."""
    parts = [
        f"python -m repro {args.command}",
        f"--jobs {max(1, args.jobs)}",
        f"--seeds {args.seeds}",
        f"--seed {args.seed}",
        f"--seconds {args.seconds}",
    ]
    if getattr(args, "scenario", "survival") != "survival":
        parts.append(f"--scenario {args.scenario}")
    if getattr(args, "intensities", None):
        parts.append(
            "--intensities " + " ".join(f"{i:g}" for i in args.intensities)
        )
    if args.state_dir != ".fleet":
        parts.append(f"--state-dir {args.state_dir}")
    if args.point_timeout != 120.0:
        parts.append(f"--point-timeout {args.point_timeout:g}")
    parts.append("--resume")
    return " ".join(parts)


def _run_fleet_cli(spec, args) -> int:
    """Shared fleet driver for campaign subcommands.

    The merged report is the only thing written to stdout -- progress and
    fleet counters go to stderr, so ``--jobs 1`` and ``--jobs 4`` stdout
    stay byte-identical (the golden fleet test relies on this).
    """
    from repro.experiments.fleet import FleetInterrupted, run_fleet
    from repro.obs.fleetstats import fleet_summary

    resume_cmd = _resume_command(args)
    try:
        result = run_fleet(
            spec,
            jobs=max(1, args.jobs),
            state_dir=args.state_dir,
            resume=args.resume,
            point_timeout_s=args.point_timeout,
            resume_hint=resume_cmd,
            log=lambda msg: print(f"fleet: {msg}", file=sys.stderr),
        )
        print(result.render())
        print(fleet_summary(result.registry), file=sys.stderr)
    except FleetInterrupted as intr:
        print(
            f"fleet: interrupted -- {intr.completed}/{intr.total} points "
            f"safely journalled at {intr.journal}",
            file=sys.stderr,
        )
        print(f"fleet: resume with: {intr.resume_hint}", file=sys.stderr)
        return 130
    except KeyboardInterrupt:
        # An interrupt outside run_fleet's own windows (spec building,
        # the final render) risks nothing -- every journalled point is
        # already on disk; re-running with --resume just re-renders.
        print(f"fleet: interrupted; resume with: {resume_cmd}", file=sys.stderr)
        return 130
    if not result.ok():
        print(
            f"fleet: {len(result.failures)} point(s) failed permanently; "
            "see the FAILED POINTS section above",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_fleet(args) -> int:
    from repro.experiments.fleet import fleet_status, fleet_watch

    if args.action == "status":
        print(fleet_status(args.state_dir))
        return 0
    if args.action == "watch":
        progress = fleet_watch(
            args.state_dir,
            campaign=args.campaign,
            interval_s=args.interval,
            follow=not args.once,
            # \r-overwrite one live line; argparse gave us a TTY-ish CLI.
            emit=lambda line: print(f"\r\x1b[2K{line}", end="", flush=True),
        )
        print()
        return 0 if progress is not None else 1
    if args.action == "rollup":
        from repro.experiments.rollup import rollup

        report = rollup(args.state_dir)
        print(report.to_json() if args.json else report.render())
        return 0
    return 2  # pragma: no cover - argparse restricts choices


def _cmd_trace(args) -> int:
    from repro.experiments.tracing import run_traced, trace_stock_vs_ctmsp
    from repro.obs.export import write_chrome_trace

    if args.profile_only:
        runs = [
            run_traced(
                args.profile_only, seed=args.seed, duration_ns=args.seconds * SEC
            )
        ]
    else:
        runs = trace_stock_vs_ctmsp(
            seed=args.seed, duration_ns=args.seconds * SEC
        )
    write_chrome_trace(args.out, [(r.profile, r.recorder) for r in runs])
    for r in runs:
        print(
            f"{r.profile:<6} {len(r.recorder.spans)} spans in "
            f"{len(r.recorder.categories())} categories "
            f"({', '.join(r.recorder.categories())}), "
            f"{r.session.sink_tracker.delivered} packets delivered"
        )
    print(f"wrote {args.out} -- open with https://ui.perfetto.dev "
          "or chrome://tracing")
    return 0


def _cmd_metrics(args) -> int:
    from repro.experiments.claims import ENTRIES
    from repro.experiments.runner import run_scenario
    from repro.experiments.scenarios import test_case_a, test_case_b
    from repro.obs.instrument import DataPathTracer
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.span import SpanRecorder

    factory = test_case_a if args.case == "a" else test_case_b
    scenario = factory(duration_ns=args.seconds * SEC, seed=args.seed)
    registry = MetricsRegistry()
    # The span tracer rides along purely to fill per-layer instruments; the
    # four-point pcat histograms are computed exactly as without it.
    tracer = DataPathTracer(SpanRecorder(), registry)
    result = run_scenario(scenario, tracer=tracer)
    if args.json:
        print(registry.to_json())
        return 0
    print(ENTRIES[f"histograms_case_{args.case}"].report(result))
    print()
    print(registry.render_tables())
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis.baseline import load_baseline, write_baseline
    from repro.analysis.v2 import DEFAULT_CACHE_PATH, run_lint_v2

    try:
        baseline = load_baseline(args.baseline) if args.baseline else {}
    except (ValueError, OSError) as exc:
        print(f"ctms-lint: cannot read baseline {args.baseline}: {exc}",
              file=sys.stderr)
        return 2
    report = run_lint_v2(
        args.paths,
        baseline,
        cache_path=None if args.no_cache else args.cache or DEFAULT_CACHE_PATH,
    )
    if args.write_baseline:
        write_baseline(report.findings, args.write_baseline)
        print(
            f"ctms-lint: wrote {len(report.findings)} finding(s) to "
            f"{args.write_baseline}"
        )
        return 0
    print(report.render_json() if args.json else report.render_text())
    return 0 if report.ok() else 1


def _cmd_quickstart(args) -> int:
    from repro.core.session import CTMSSession
    from repro.experiments.testbed import HostConfig, Testbed

    bed = Testbed(seed=args.seed)
    tx = bed.add_host(HostConfig(name="transmitter"))
    rx = bed.add_host(HostConfig(name="receiver"))
    session = CTMSSession(tx.kernel, rx.kernel)
    session.establish()
    bed.run(args.seconds * SEC)
    stats = session.stats
    print(
        f"delivered {stats.delivered} packets at "
        f"{stats.throughput_bytes_per_sec() / 1000:.1f} KB/s, "
        f"{session.sink_tracker.lost_packets} lost"
    )
    return 0


COMMANDS = {
    "fig5-2": (_cmd_entry, "Figure 5-2: Test B transmit-path histogram"),
    "fig5-3": (_cmd_entry, "Figure 5-3: Test A tx-to-rx histogram"),
    "fig5-4": (_cmd_entry, "Figure 5-4: Test B tx-to-rx with ring insertions"),
    "histograms": (_cmd_histograms, "All seven histograms for one test case"),
    "baseline": (_cmd_entry, "Stock UNIX relay at 16 vs 150 KB/s"),
    "copies": (_cmd_entry, "Copy counts for the three transfer paths"),
    "ablate": (_cmd_ablate, "Section 5.3 ablation matrix"),
    "quickstart": (_cmd_quickstart, "Minimal two-machine CTMS stream"),
    "chaos": (_cmd_chaos, "Chaos campaign: stock vs CTMSP under fault plans"),
    "fleet": (_cmd_fleet, "Fleet state: status / live watch / cross-journal rollup"),
    "trace": (_cmd_trace, "Export a Chrome-trace/Perfetto JSON of a traced run"),
    "metrics": (_cmd_metrics, "Per-layer metrics registry for one test case"),
    "lint": (_cmd_lint, "ctms-lint: determinism & layering static analysis"),
}


#: ``chaos --seconds`` when not given (smoke runs have their own duration).
CHAOS_SECONDS = 8


def _int_at_least(text: str, floor: int) -> int:
    value = int(text)
    if value < floor:
        raise argparse.ArgumentTypeError(
            f"must be at least {floor}, got {value}"
        )
    return value


def positive_int(text: str) -> int:
    """argparse type: an int; a value below 1 is a usage error (exit 2)."""
    return _int_at_least(text, 1)


def non_negative_int(text: str) -> int:
    """argparse type: an int; a value below 0 is a usage error (exit 2)."""
    return _int_at_least(text, 0)


def non_negative_float(text: str) -> float:
    """argparse type: a finite float; a value below 0, ``nan`` or ``inf``
    is a usage error (exit 2) instead of a traceback mid-campaign."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text}")
    return value


def lint_path(text: str) -> str:
    """argparse type: an existing directory or ``.py`` file, else a usage
    error (exit 2) -- a mistyped path must not pass the gate as clean."""
    path = Path(text)
    if not path.exists():
        raise argparse.ArgumentTypeError(f"{text}: no such file or directory")
    if not (path.is_dir() or path.suffix == ".py"):
        raise argparse.ArgumentTypeError(f"{text}: not a directory or .py file")
    return text


def _chaos_flag_conflict(args) -> str | None:
    """Why a ``chaos`` flag combination would be ignored or crash
    mid-run, else None; ``main`` turns it into a usage error (exit 2)."""
    if args.smoke and (args.jobs >= 1 or args.seeds > 1 or args.resume):
        return "--smoke cannot be combined with --jobs, --seeds or --resume"
    if args.smoke and args.seconds is not None:
        return "--smoke runs a fixed duration; drop --seconds"
    if not args.intensities:
        return None
    if args.scenario == "failover":
        return "--intensities applies only to --scenario survival"
    if args.smoke:
        return "--smoke runs one fixed intensity; drop --intensities"
    if len(set(args.intensities)) < len(args.intensities):
        return "argument --intensities: values must be distinct"
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CTMS reproduction experiments (USENIX 1991)",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available experiments")
    for name, (_fn, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == "lint":
            p.add_argument(
                "paths",
                nargs="+",
                type=lint_path,
                help="directories and .py files to lint",
            )
            p.add_argument(
                "--json",
                action="store_true",
                help="machine-readable output (file/line/rule/severity)",
            )
            p.add_argument(
                "--baseline",
                default=None,
                help="baseline JSON; baselined findings do not fail the run",
            )
            p.add_argument(
                "--write-baseline",
                default=None,
                metavar="PATH",
                help="write current findings to PATH as a new baseline and exit 0",
            )
            p.add_argument(
                "--cache",
                default=None,
                metavar="PATH",
                help="incremental-analysis cache file (default: "
                "repro.analysis.v2.DEFAULT_CACHE_PATH)",
            )
            p.add_argument(
                "--no-cache",
                action="store_true",
                help="analyze every file from scratch (results are identical; "
                "the cache only skips work)",
            )
            continue
        if name == "fleet":
            p.add_argument(
                "action",
                choices=["status", "watch", "rollup"],
                help="status: journalled campaign progress; watch: live "
                "progress line tailing the journal; rollup: aggregate "
                "every journal into survival/quality summaries",
            )
            p.add_argument(
                "--state-dir",
                default=".fleet",
                help="fleet journal root (default .fleet)",
            )
            p.add_argument(
                "--campaign",
                default=None,
                help="watch: select a campaign by directory-name substring "
                "(default: most recently appended journal)",
            )
            p.add_argument(
                "--interval",
                type=float,
                default=1.0,
                help="watch: seconds between journal polls (default 1.0)",
            )
            p.add_argument(
                "--once",
                action="store_true",
                help="watch: render one progress line and exit",
            )
            p.add_argument(
                "--json",
                action="store_true",
                help="rollup: machine-readable aggregate",
            )
            continue
        p.add_argument("--seed", type=int, default=1)
        if name == "fig5-4":
            p.add_argument("--minutes", type=positive_int, default=6)
        elif name == "chaos":
            # None until parsed, so --smoke can reject an explicit value.
            p.add_argument("--seconds", type=positive_int, default=None)
        else:
            p.add_argument("--seconds", type=positive_int, default=30)
        if name == "histograms":
            p.add_argument("case", choices=["a", "b"])
        if name == "trace":
            p.add_argument(
                "--out",
                default="trace.json",
                help="output path for the Chrome-trace JSON",
            )
            p.add_argument(
                "--profile-only",
                choices=["stock", "ctmsp"],
                default=None,
                help="trace a single profile instead of both side by side",
            )
        if name == "metrics":
            p.add_argument(
                "--case", choices=["a", "b"], default="a",
                help="measurement test case (default a)",
            )
            p.add_argument(
                "--json", action="store_true",
                help="machine-readable registry dump",
            )
        if name == "chaos":
            p.add_argument(
                "--scenario",
                choices=["survival", "failover"],
                default="survival",
                help="survival: one stream vs fault weather; failover: "
                "the session control plane vs a server crash",
            )
            p.add_argument(
                "--smoke",
                action="store_true",
                help="single fast intensity (for test suites / make chaos)",
            )
            p.add_argument(
                "--intensities",
                type=non_negative_float,
                nargs="+",
                help="intensity sweep values (default: 0.5 1.0 2.0)",
            )
        if name in {"chaos", "ablate"}:
            p.add_argument(
                "--jobs",
                type=non_negative_int,
                default=0,
                help="fleet mode: worker processes (1 = serial fleet; "
                "0 = legacy single-seed run)",
            )
            p.add_argument(
                "--seeds",
                type=positive_int,
                default=1,
                help="fleet mode: number of consecutive seeds starting "
                "at --seed",
            )
            p.add_argument(
                "--resume",
                action="store_true",
                help="continue a killed campaign from its journal",
            )
            p.add_argument(
                "--state-dir",
                default=".fleet",
                help="fleet journal root (default .fleet)",
            )
            p.add_argument(
                "--point-timeout",
                type=float,
                default=120.0,
                help="seconds before the supervisor kills a hung worker",
            )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None or args.command == "list":
        print("available experiments:")
        for name, (_fn, help_text) in COMMANDS.items():
            print(f"  {name:<12} {help_text}")
        return 0
    if args.command == "chaos":
        conflict = _chaos_flag_conflict(args)
        if conflict:
            parser.exit(2, f"{parser.prog} chaos: error: {conflict}\n")
        if args.seconds is None:
            args.seconds = CHAOS_SECONDS
    fn, _help = COMMANDS[args.command]
    return fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
