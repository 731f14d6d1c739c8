"""The paper reproductions, one pytest module per figure or in-text result.

Each benchmark regenerates one of the paper's figures or in-text results,
prints a paper-vs-measured table (persisted under ``results/``), and asserts
the *shape* claims -- who wins, rough factors, where the modes sit -- not
absolute microsecond equality.  Every table is an entry in
``repro.experiments.claims`` (its run, renderer, paper text and asserted
bands); a benchmark runs its entry, emits its report, checks each banded
claim, and keeps only the asserts that are not claims (sample counts, no
reordering, retransmits equal losses).  The load sweep, multi-stream,
model validation and ring-priority-under-load tables are extensions: the
paper has no number for them.  Per-figure host times come from
``pytest benchmarks/ --durations=0``; host performance proper is
perfbench's job.
"""
