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
:mod:`repro` package ``__init__`` holds only its docstring, that also
holds at runtime: a lint run loads no simulator module, so it still
reports a simulator module that does not parse instead of crashing on it
(``tests/test_import_boundaries.py`` is the reference).
"""
