"""HIST-1..6A: the histograms the paper says "showed values which could
easily be explained given the total system and its interactions": the
inter-occurrence histograms 1-4 track the 12 ms VCA period, histogram 5
stays within the logic analyzer's 440 us, and Test Case A's histogram 6
is unimodal.  Each test case's histograms come from the run its figures
read (Figure 5-3's for Test A, Figures 5-2 and 5-4's for Test B).  The
asserted bands: ``repro.experiments.claims.HISTOGRAMS_A`` and
``HISTOGRAMS_B``.
"""

from repro.experiments.claims import HISTOGRAMS_A, HISTOGRAMS_B
from repro.experiments.reporting import emit


def test_histograms_test_case_a():
    result = HISTOGRAMS_A.run()
    emit(HISTOGRAMS_A.name, HISTOGRAMS_A.report(result))

    for claim, value in HISTOGRAMS_A.banded(result):
        assert claim.holds(value), (claim.label, value, claim.band)


def test_histograms_test_case_b():
    result = HISTOGRAMS_B.run()
    emit(HISTOGRAMS_B.name, HISTOGRAMS_B.report(result))

    for claim, value in HISTOGRAMS_B.banded(result):
        assert claim.holds(value), (claim.label, value, claim.band)
    h5 = result.histograms[5]
    assert h5.max() > h5.min()  # load varies the IRQ entry time
