"""VALIDATE: the lazy token-ring model against the hop-level reference.

The cheap ring model against an explicit per-hop 802.5 simulation across
random workloads.  (The reference parks its token when the ring is idle,
so its event count is not the raw speedup measure.)  The asserted bands:
``repro.experiments.claims.MODEL_VALIDATION``.
"""

from repro.experiments.claims import MODEL_VALIDATION
from repro.experiments.reporting import emit


def test_lazy_model_agrees_with_hop_level_reference():
    results = MODEL_VALIDATION.run()
    emit(MODEL_VALIDATION.name, MODEL_VALIDATION.report(results))

    for claim, value in MODEL_VALIDATION.banded(results):
        assert claim.holds(value), (claim.label, value, claim.band)
    for r in results:
        assert r.frames == 50
