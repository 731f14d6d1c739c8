"""Import boundaries, checked in a fresh interpreter.

Every import names its defining module and a package ``__init__.py``
holds only its docstring, so importing a module runs only the modules it
really needs.  Every process compiles what it imports (the bytecode cache
may be off), so set-up time is the import graph; these tests keep it from
growing back:

* importing a package loads no module under it;
* ctms-lint (``repro.analysis``) loads nothing of the simulator, so it
  can lint a tree whose simulator modules do not even parse;
* the event kernel (``repro.sim``) loads nothing above itself;
* no simulator module loads the lint engine;
* a serial campaign (``run_fleet(jobs=1)``) never loads ``multiprocessing``;
* the fleet supervisor and the journal rollup load no campaign kind's
  experiment module (rolling up loads only the kinds its journals hold),
  and the chaos and failover experiments load no fleet code until a fleet
  spec is built.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"

SIMULATOR_PACKAGES = (
    "sim", "hardware", "ring", "unix", "drivers", "core", "experiments", "faults",
)


def loaded_after(*modules: str) -> dict[str, list[str]]:
    """Module name -> the ``repro`` modules loaded once it is imported,
    importing ``modules`` in turn in one fresh interpreter."""
    script = (
        "import importlib, json, sys\n"
        "loaded = {}\n"
        f"for name in {list(modules)!r}:\n"
        "    importlib.import_module(name)\n"
        "    loaded[name] = sorted(m for m in sys.modules if m.split('.')[0] == 'repro')\n"
        "print(json.dumps(loaded))\n"
    )
    return json.loads(run_fresh(script))


def run_fresh(script: str) -> str:
    """``script``'s stdout, run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


def outside(loaded: list[str], *allowed: str) -> list[str]:
    return [
        m for m in loaded
        if m != "repro" and not any(m == a or m.startswith(a + ".") for a in allowed)
    ]


def test_lint_engine_loads_only_itself():
    loaded = loaded_after("repro.analysis.v2")["repro.analysis.v2"]
    assert outside(loaded, "repro.analysis") == []


def test_event_kernel_loads_only_itself():
    loaded = loaded_after("repro.sim.engine")["repro.sim.engine"]
    assert outside(loaded, "repro.sim") == []


def simulator_modules() -> list[str]:
    return sorted(
        ".".join(path.with_suffix("").relative_to(SRC).parts)
        for package in SIMULATOR_PACKAGES
        for path in (SRC / "repro" / package).glob("*.py")
        if path.name != "__init__.py"
    )


def test_no_simulator_module_loads_the_lint_engine():
    modules = simulator_modules()
    assert len(modules) > 40
    for name, loaded in loaded_after(*modules).items():
        assert not [m for m in loaded if m.startswith("repro.analysis")], name


PACKAGES = sorted(
    ".".join(init.parent.relative_to(SRC).parts) for init in SRC.glob("repro/**/__init__.py")
)


@pytest.mark.parametrize("package", PACKAGES)
def test_importing_a_package_loads_no_other_module(package):
    loaded = loaded_after(package)[package]
    assert loaded == sorted({"repro", package})


def test_serial_campaign_never_loads_multiprocessing(tmp_path):
    script = (
        "import sys\n"
        "from repro.experiments.chaos import chaos_fleet_spec\n"
        "from repro.experiments.fleet import run_fleet\n"
        "from repro.sim.units import SEC\n"
        "spec = chaos_fleet_spec([1], duration_ns=SEC // 10, intensities=(1.0,))\n"
        f"assert run_fleet(spec, jobs=1, state_dir={str(tmp_path)!r}).ok()\n"
        "print('multiprocessing' in sys.modules)\n"
    )
    assert run_fresh(script).strip() == "False"


@pytest.mark.parametrize(
    "module", ["repro.experiments.fleet", "repro.experiments.rollup"]
)
def test_supervisor_loads_no_campaign_kind(module):
    from repro.experiments.fleet import KIND_MODULES

    loaded = loaded_after(module)[module]
    assert set(loaded) & set(KIND_MODULES.values()) == set()


def test_rollup_loads_only_the_kinds_it_finds(tmp_path):
    from repro.experiments.fleet import KIND_MODULES, run_fleet
    from repro.experiments.validation import validation_fleet_spec

    assert run_fleet(
        validation_fleet_spec([1], n_frames=12), jobs=1, state_dir=tmp_path
    ).ok()
    script = (
        "import json, sys\n"
        "from repro.experiments.rollup import rollup\n"
        f"rollup({str(tmp_path)!r}).render()\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    loaded = set(json.loads(run_fresh(script)))
    assert loaded & set(KIND_MODULES.values()) == {KIND_MODULES["validation"]}


@pytest.mark.parametrize(
    "module", ["repro.experiments.chaos", "repro.experiments.failover"]
)
def test_experiment_loads_no_fleet_code(module):
    loaded = loaded_after(module)[module]
    assert "repro.experiments.fleet" not in loaded

