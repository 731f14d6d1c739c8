"""ABLATE: the Section 5.3 toggle matrix, one switch at a time.

Each ablation flips one of the paper's modifications off Test Case B and
reports the effect -- *why* each is in the design.  The asserted effects:
``repro.experiments.claims.ABLATIONS`` (also ``python -m repro ablate``).
"""

from repro.experiments.claims import ABLATIONS, RING_PRIORITY_HEAVY
from repro.experiments.reporting import emit


def test_ablations():
    summary = ABLATIONS.run()
    emit(ABLATIONS.name, ABLATIONS.report(summary))

    for claim, value in ABLATIONS.banded(summary):
        assert claim.holds(value), (claim.label, value, claim.band)
    # All variants still deliver (the modifications buy margin, not
    # correctness, on this workload).
    for name, entry in summary.items():
        assert entry.delivered > 1900, name
        assert entry.lost == 0, name


def test_ring_priority_matters_under_ring_load():
    """Section 3: "CTMSP uses a Token Ring priority above any other traffic"
    -- under a compile storm occupying ~45% of the wire, the priority keeps
    CTMSP's token access delay flat; without it the wait grows severalfold."""
    runs = RING_PRIORITY_HEAVY.run()
    emit(RING_PRIORITY_HEAVY.name, RING_PRIORITY_HEAVY.report(runs))

    for claim, value in RING_PRIORITY_HEAVY.banded(runs):
        assert claim.holds(value), (claim.label, value, claim.band)
    # The prioritized stream still delivers (the ring has capacity;
    # priority buys latency).
    assert runs[4].lost == 0
