"""Every public import path resolves through the lazy package façades.

Each package ``__init__`` maps its public names to their defining modules
and imports a module only when one of its names is first used.  A stale
map entry, or a doc snippet that names something the API no longer has,
would only fail when someone happened to touch that name; these tests
touch every one of them.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: The names each façade exports: the public API, pinned.
EXPORTS = {
    "repro": {
        "CTMSSession", "FaultInjector", "FaultPlan", "Host", "HostConfig",
        "Scenario", "SessionEstablishTimeout", "StreamInvariantMonitor",
        "Testbed", "__version__", "test_case_a", "test_case_b",
    },
    "repro.analysis": {
        "Finding", "LintReport", "ModuleSummary", "ProjectGraph", "RULES",
        "Rule", "apply_baseline", "iter_python_files", "lint_source",
        "load_baseline", "run_lint_v2", "summarize_module", "write_baseline",
    },
    "repro.bench": {
        "WORKLOADS", "check_bench", "compare_bench", "load_bench", "run_bench",
        "write_bench",
    },
    "repro.core": {
        "BandwidthLedger", "CTMSPPacket", "CTMSP_HEADER_BYTES",
        "CTMSP_RING_PRIORITY", "CTMSSession", "ControlPlaneConfig",
        "FailoverRecord", "ManagedSession", "PlayoutBuffer",
        "PresentationMachine", "SequenceTracker", "SessionControlPlane",
        "StreamStats", "required_buffer_bytes",
    },
    "repro.drivers": {
        "TokenRingDriver", "TokenRingDriverConfig", "VCADriver",
        "VCADriverConfig",
    },
    "repro.experiments": {
        "Host", "Scenario", "Testbed", "test_case_a", "test_case_b",
    },
    "repro.faults": {
        "ADAPTER_KINDS", "FAULT_KINDS", "FaultEvent", "FaultInjector",
        "FaultPlan", "HOST_KINDS", "RING_KINDS", "SERVER_KINDS",
        "StreamInvariantMonitor", "Violation",
    },
    "repro.hardware": {
        "CPU", "DMAEngine", "Exec", "Frame", "Machine", "MemoryRegion",
        "MemorySystem", "ParallelPort", "RaiseSpl", "Region", "SetSpl",
        "VoiceCommunicationsAdapter", "Wait", "calibration",
    },
    "repro.measure": {
        "Histogram", "LogicAnalyzer", "PcatRecord", "PcatTimestamper",
        "PseudoDriverTracer", "TapMonitor",
    },
    "repro.obs": {
        "CATEGORIES", "CATEGORY_ADAPTER", "CATEGORY_CONTROL", "CATEGORY_DISK",
        "CATEGORY_KERNEL_COPY", "CATEGORY_PLAYOUT", "CATEGORY_PROTOCOL",
        "CATEGORY_RING", "CONTROL_COUNTERS", "CampaignProgress",
        "ControlPlaneMetrics", "Counter", "DataPathTracer", "FLEET_COUNTERS",
        "FlightRecorder", "FlightSnapshot", "Gauge", "HistogramInstrument",
        "InstantEvent", "MetricsRegistry", "PointEvent", "Span",
        "SpanRecorder", "TraceContext", "WorkerSpotlight", "chrome_trace",
        "fleet_counts", "fleet_summary", "is_telemetry", "packet_key",
        "progress", "render_chrome_json", "write_chrome_trace",
    },
    "repro.protocols": {"NetStack", "Socket"},
    "repro.ring": {
        "ActiveMonitor", "BROADCAST", "Frame", "FrameClass",
        "InsertionProcess", "RingStation", "TokenRing", "mac_frame",
        "wire_time_ns",
    },
    "repro.sim": {
        "Divergence", "Event", "Handle", "MS", "NS", "OrderRaceError",
        "Process", "ProcessKilled", "RandomStreams", "SEC", "SimulationError",
        "Simulator", "US", "check_tiebreak_invariance", "format_time",
        "from_us", "seeded_stream", "to_ms", "to_us",
    },
    "repro.unix": {
        "CopyLedger", "Kernel", "Mbuf", "MbufChain", "MbufExhausted",
        "MbufPool", "cpu_copy",
    },
    "repro.workloads": {
        "BackgroundTraffic", "CD_AUDIO", "COMPRESSED_VIDEO", "ChurnDriver",
        "ChurnSchedule", "HOLD_FOREVER", "LightweightSender", "MediaSource",
        "SessionRequest", "TELEPHONE_AUDIO",
    },
}

FACADES = sorted(EXPORTS)


def test_every_package_has_a_pinned_facade():
    src = REPO_ROOT / "src"
    packages = {
        ".".join(init.parent.relative_to(src).parts)
        for init in src.glob("repro/**/__init__.py")
    }
    assert packages == set(EXPORTS)


@pytest.mark.parametrize("package", FACADES)
def test_exports_match_the_pinned_api(package):
    assert set(importlib.import_module(package).__all__) == EXPORTS[package]


@pytest.mark.parametrize("package", FACADES)
def test_every_export_resolves_and_is_listed(package):
    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        value = getattr(module, name)
        assert name in listed
        defined_in = getattr(value, "__module__", None)
        if defined_in is not None:
            # Classes and functions come from inside the package.
            assert defined_in.startswith(f"{package}."), (name, defined_in)


@pytest.mark.parametrize("package", FACADES)
def test_star_import_binds_exactly_the_exports(package):
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == EXPORTS[package]


@pytest.mark.parametrize("package", FACADES)
def test_unknown_name_is_an_attribute_error(package):
    module = importlib.import_module(package)
    assert not hasattr(module, "no_such_name")
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name", {})


def documented_imports() -> list[tuple[str, str]]:
    """(file, statement) for every ``from repro... import ...`` in the
    README, ``docs/*.md`` and ``examples/*.py``."""
    found = []
    for path in sorted(REPO_ROOT.glob("docs/*.md")) + [REPO_ROOT / "README.md"]:
        pattern = r"^[ \t]*(from repro[\w.]* import (?:\([^)]*\)|[^\n]*))"
        for match in re.finditer(pattern, path.read_text(), re.MULTILINE):
            found.append((path.name, match.group(1)))
    for path in sorted(REPO_ROOT.glob("examples/*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                found.append((path.name, ast.unparse(node)))
    return found


@pytest.mark.parametrize(
    "statement", [stmt for _name, stmt in documented_imports()],
    ids=[name for name, _stmt in documented_imports()],
)
def test_documented_import_resolves(statement):
    exec(statement, {})
