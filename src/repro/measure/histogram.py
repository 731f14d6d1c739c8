"""Histogram and statistics toolkit.

The paper's central analysis artifact: "Histograms as well as means and
standard deviations were computed for the inter-packet departure and arrival
times from this data."  This module computes the same summaries, plus the
paper's idioms for describing a distribution -- "68% of the data points
within 500 microseconds of 2600 microseconds" -- as first-class queries, and
renders ASCII plots for the benchmark reports.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from repro.sim.units import US, format_time


class Histogram:
    """A collection of time samples (integer nanoseconds)."""

    def __init__(
        self,
        samples: Optional[Iterable[int]] = None,
        name: str = "",
        bin_width: int = 100 * US,
    ) -> None:
        if bin_width <= 0:
            raise ValueError("bin width must be positive")
        self.name = name
        self.bin_width = bin_width
        self.samples: list[int] = list(samples) if samples is not None else []

    def add(self, value: int) -> None:
        self.samples.append(value)

    def __len__(self) -> int:
        return len(self.samples)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return len(self.samples)

    def mean(self) -> float:
        if not self.samples:
            raise ValueError(f"histogram {self.name!r} is empty")
        return sum(self.samples) / len(self.samples)

    def std(self) -> float:
        if len(self.samples) < 2:
            return 0.0
        mu = self.mean()
        var = sum((x - mu) ** 2 for x in self.samples) / (len(self.samples) - 1)
        return math.sqrt(var)

    def min(self) -> int:
        return min(self.samples)

    def max(self) -> int:
        return max(self.samples)

    def percentile(self, p: float) -> int:
        """Nearest-rank percentile, 0 <= p <= 100."""
        if not 0 <= p <= 100:
            raise ValueError("percentile out of range")
        if not self.samples:
            raise ValueError(f"histogram {self.name!r} is empty")
        ordered = sorted(self.samples)
        rank = max(1, math.ceil(p / 100 * len(ordered)))
        return ordered[rank - 1]

    # ------------------------------------------------------------------
    # the paper's distribution-description idioms
    # ------------------------------------------------------------------
    def fraction_within(self, center: int, halfwidth: int) -> float:
        """Fraction of samples within ``halfwidth`` of ``center``.

        The phrasing of Figure 5-2's caption: "68% of the data points within
        500 microseconds of 2600 microseconds".
        """
        if not self.samples:
            return 0.0
        hits = sum(1 for x in self.samples if abs(x - center) <= halfwidth)
        return hits / len(self.samples)

    def fraction_between(self, lo: int, hi: int) -> float:
        """Fraction of samples in the closed interval [lo, hi]."""
        if not self.samples:
            return 0.0
        hits = sum(1 for x in self.samples if lo <= x <= hi)
        return hits / len(self.samples)

    def count_between(self, lo: int, hi: int) -> int:
        return sum(1 for x in self.samples if lo <= x <= hi)

    def primary_mode(self) -> int:
        """Center of the fullest bin -- where a histogram's main peak sits."""
        bins = self.bins()
        if not bins:
            raise ValueError(f"histogram {self.name!r} is empty")
        best = max(bins.items(), key=lambda kv: kv[1])
        return best[0] * self.bin_width + self.bin_width // 2

    def modes(self, min_separation: int, min_fraction: float = 0.05) -> list[int]:
        """Local maxima at least ``min_separation`` apart, for bimodality tests.

        A bin is a mode if it is a local maximum holding at least
        ``min_fraction`` of all samples.
        """
        bins = self.bins()
        if not bins:
            return []
        total = len(self.samples)
        indices = sorted(bins)
        peaks = []
        for i in indices:
            height = bins[i]
            if height / total < min_fraction:
                continue
            left = bins.get(i - 1, 0)
            right = bins.get(i + 1, 0)
            if height >= left and height >= right:
                peaks.append((height, i))
        peaks.sort(reverse=True)
        chosen: list[int] = []
        for _height, i in peaks:
            center = i * self.bin_width + self.bin_width // 2
            if all(abs(center - c) >= min_separation for c in chosen):
                chosen.append(center)
        return sorted(chosen)

    # ------------------------------------------------------------------
    # binning / rendering
    # ------------------------------------------------------------------
    def bins(self) -> dict[int, int]:
        """Map of bin index -> sample count."""
        out: dict[int, int] = {}
        for x in self.samples:
            out[x // self.bin_width] = out.get(x // self.bin_width, 0) + 1
        return out

    def to_ascii(self, width: int = 60, max_rows: int = 40) -> str:
        """Render the histogram the way the paper's figures look."""
        bins = self.bins()
        if not bins:
            return f"{self.name}: (empty)"
        lo, hi = min(bins), max(bins)
        if hi - lo + 1 > max_rows:
            # Coarsen to fit: merge adjacent bins.
            merge = math.ceil((hi - lo + 1) / max_rows)
            coarse: dict[int, int] = {}
            for i, n in bins.items():
                coarse[(i - lo) // merge] = coarse.get((i - lo) // merge, 0) + n
            rows = sorted(coarse.items())
            label = lambda j: format_time((lo + j * merge) * self.bin_width)
        else:
            rows = [(i - lo, bins.get(i, 0)) for i in range(lo, hi + 1)]
            label = lambda j: format_time((lo + j) * self.bin_width)
        peak = max(n for _j, n in rows)
        lines = [f"{self.name}  (n={self.count})"]
        for j, n in rows:
            bar = "#" * max(0, round(n / peak * width))
            lines.append(f"{label(j):>12} |{bar} {n if n else ''}")
        return "\n".join(lines)

    def summary(self) -> dict[str, float]:
        """The numbers the paper reports for every histogram."""
        return {
            "count": self.count,
            "mean_us": self.mean() / US,
            "std_us": self.std() / US,
            "min_us": self.min() / US,
            "max_us": self.max() / US,
        }
