"""Experiment harnesses reproducing the paper's evaluation.

* :mod:`~repro.experiments.testbed` -- assembles machines, ring, kernels,
  adapters and drivers into the paper's testbed;
* :mod:`~repro.experiments.scenarios` -- Test Case A and Test Case B plus
  the full Section 5.3 toggle matrix;
* :mod:`~repro.experiments.runner` -- runs a scenario and collects the seven
  histograms of Section 5.3;
* :mod:`~repro.experiments.baseline` -- the stock-UNIX relay at 16 and
  150 KB/s (Section 1);
* :mod:`~repro.experiments.copies` -- the Section 2 copy-count measurement;
* :mod:`~repro.experiments.playout`, :mod:`~repro.experiments.ring_studies`
  and :mod:`~repro.experiments.instruments` -- the runs behind the other
  ``results/`` tables (buffer sizing and CD audio; MAC frames, Ring Purge,
  ring priority and stream capacity; the Section 5.2 tools);
* :mod:`~repro.experiments.claims` -- every ``results/`` table: its pinned
  run, its renderer, the paper's claims and their asserted bands;
* :mod:`~repro.experiments.reporting` -- where reports are written.
"""
