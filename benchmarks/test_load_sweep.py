"""SWEEP: CTMSP service quality versus background load.

An extension: the paper measures a silent ring and "normal loading"; the
sweep fills in the curve and shows delivery stays lossless well past
"normal".  The asserted bands: ``repro.experiments.claims.LOAD_SWEEP``.
"""

from repro.experiments.claims import LOAD_SWEEP
from repro.experiments.reporting import emit


def test_load_sweep():
    points = LOAD_SWEEP.run()
    emit(LOAD_SWEEP.name, LOAD_SWEEP.report(points))

    for claim, value in LOAD_SWEEP.banded(points):
        assert claim.holds(value), (claim.label, value, claim.band)
