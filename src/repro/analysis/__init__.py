"""ctms-lint: the repo's determinism & layering static-analysis pass.

The reproduction's claims rest on a bit-reproducible simulated data path
(integer-ns event calendar, named seeded RNG streams, strict layering).
This package enforces those disciplines mechanically -- see
``docs/ANALYSIS.md`` for every rule ID, its rationale, and the
``# ctms-lint: disable=RULE`` suppression syntax.  Run it as
``repro lint <paths>`` or ``make lint``.

The package is self-contained by design (it imports nothing from the
rest of :mod:`repro`) so it can lint the tree it lives in without import
cycles; its own purity is enforced by rule CTMS301.  Because every
:mod:`repro` package façade is lazy, that also holds at runtime: a lint
run loads no simulator module, so it still reports a simulator module
that does not parse instead of crashing on it
(``tests/test_import_boundaries.py`` is the reference).
"""

from importlib import import_module

# ctms-lint imports nothing from the rest of repro (CTMS301), so this
# façade carries its own copy of ``repro._lazy_facade``'s lookup.
_EXPORTS = {
    "Finding": "findings",
    "LintReport": "engine",
    "ModuleSummary": "graph",
    "ProjectGraph": "graph",
    "RULES": "rules",
    "Rule": "rules",
    "apply_baseline": "baseline",
    "iter_python_files": "engine",
    "lint_source": "engine",
    "load_baseline": "baseline",
    "run_lint_v2": "v2",
    "summarize_module": "graph",
    "write_baseline": "baseline",
}
__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        source = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f"{__name__}.{source}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _EXPORTS.keys())
