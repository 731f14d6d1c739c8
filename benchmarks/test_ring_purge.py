"""PURGE: Ring Purge behaviour and the recovery options (Sections 4-5).

Insertions run at ~20/day, each a back-to-back burst of ~10 purges.  A
purge may lose exactly the frame in flight -- "the sole source of dropped
packets for which no correction can be made": the stock adapter hides it
and the sink skips the gap; the wished-for purge-interrupt adapter
retransmits from the fixed DMA buffer.  The paper's claims:
``repro.experiments.claims.RING_PURGE_STOCK`` and ``RING_PURGE_RETRANSMIT``.
"""

from repro.experiments.claims import RING_PURGE_RETRANSMIT, RING_PURGE_STOCK
from repro.experiments.reporting import emit
from repro.experiments.ring_studies import run_insertions


def test_purge_loses_single_packets_and_sink_recovers():
    run = RING_PURGE_STOCK.run()
    emit(RING_PURGE_STOCK.name, RING_PURGE_STOCK.report(run))

    for claim, value in RING_PURGE_STOCK.banded(run):
        assert claim.holds(value), (claim.label, value, claim.band)
    assert run.lost_on_ring >= 5  # the phase-locked purges caught real frames
    # Every wire loss shows up as a single-packet gap at the sink; the
    # stream continues (the paper's "adding code to recover").
    assert run.tracker.lost_packets == run.lost_on_ring
    assert run.tracker.gaps == run.lost_on_ring
    assert run.tracker.duplicates == 0


def test_hypothetical_purge_interrupt_recovers_by_retransmission():
    run = RING_PURGE_RETRANSMIT.run()
    emit(RING_PURGE_RETRANSMIT.name, RING_PURGE_RETRANSMIT.report(run))

    for claim, value in RING_PURGE_RETRANSMIT.banded(run):
        assert claim.holds(value), (claim.label, value, claim.band)
    assert run.lost_on_ring >= 5
    # The Section 4 adapter-with-purge-interrupt retransmits every frame
    # the ring lost.
    assert run.retransmits == run.lost_on_ring


def test_insertion_rate_statistics():
    """~20 insertions/day at ~10 purges each, measured over simulated hours."""
    bed = run_insertions()
    inserter = bed.inserter
    # 20/day over 6 hours -> ~5 expected; Poisson tolerance.
    assert 1 <= inserter.stats_insertions <= 12
    per_insertion = bed.ring.stats_purges / max(1, inserter.stats_insertions)
    assert 8 <= per_insertion <= 13  # "on the order of 10 ... back to back"
