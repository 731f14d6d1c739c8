"""Measurement instruments -- with their error models.

Section 5 of the paper is unusually candid that the *tools* have error
budgets, and spends pages characterizing them.  We model each tool with its
documented distortion so the reproduction's histograms inherit realistic
measurement noise:

* :mod:`~repro.measure.histogram` -- the histogram/statistics toolkit the
  analysis machines ran;
* :mod:`~repro.measure.pcat` -- the PC/AT parallel-port timestamper: 2 us
  16-bit clock, 50 Hz rollover-marker channel, polling-loop service delay
  (60 us worst case), and the two-PC store pipeline;
* :mod:`~repro.measure.pseudo_driver` -- the in-kernel pseudo-driver tracer:
  122 us clock granularity and measurement intrusion;
* :mod:`~repro.measure.logic_analyzer` -- the reference instrument: exact
  edge capture, but no histogramming depth (the reason the paper built the
  PC/AT tool).
"""
