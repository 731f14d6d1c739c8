"""The paper reproductions, one pytest module per figure or in-text result.

Each benchmark regenerates one of the paper's figures or in-text results,
prints a paper-vs-measured table (persisted under ``results/``), and asserts
the *shape* claims -- who wins, rough factors, where the modes sit -- not
absolute microsecond equality.  Per-figure host times come from
``pytest benchmarks/ --durations=0``; host performance proper is
perfbench's job.
"""
