"""Cross-journal rollups: many campaigns, one deterministic summary.

A fleet campaign answers one question for one seed population; the
paper-scale question -- *can the necessary data rates be supported?* --
is answered by the aggregate over every journal in a state dir.  What
that aggregate is belongs to each campaign kind: the kind module named
in :data:`~repro.experiments.fleet.KIND_MODULES` defines
``rollup(results) -> dict`` and ``render_rollup(summary) -> str`` next
to its ``run_point``/``render_fleet``.  This module loads journals,
renders the overview table, and calls those hooks, one section per kind
in ``KIND_MODULES`` order.  A kind with no ok result gets no section,
and its module is never imported; a journal of a kind not in
``KIND_MODULES`` keeps its overview row and gets no section.

This module reads journals and produces text/JSON; it drives nothing.
ctms-lint holds it to that by name: CTMS302 forbids
``experiments/rollup.py`` from importing any actuator or model layer
(``core``/``drivers``/``faults``/...), exactly like ``repro.obs``.

Determinism contract: each hook receives its kind's results in
campaign-id order, then point-key order, never journal (completion)
order -- so ``jobs=1`` and ``jobs=4`` runs of the same spec roll up
byte-identically (pinned by a golden test).  Telemetry records
(wall-clock timestamps, worker ids) are never loaded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

from repro.experiments.fleet import (
    KIND_MODULES,
    Journal,
    _campaign_journals,
    kind_module,
)
from repro.obs.metrics import format_table


@dataclass
class CampaignData:
    """One journal, loaded: the unit every rollup aggregates over."""

    path: Path
    header: dict[str, Any]
    #: Point-key -> last journalled record (``status`` ok/failed).
    records: dict[str, dict[str, Any]]

    @property
    def campaign(self) -> str:
        return str(self.header.get("campaign", "?"))

    @property
    def kind(self) -> str:
        return str(self.header.get("kind", "?"))

    def ok_results(self) -> list[dict[str, Any]]:
        """The ``result`` dicts of completed points, in point-key order."""
        return [
            rec["result"]
            for _key, rec in sorted(self.records.items())
            if rec.get("status") == "ok" and isinstance(rec.get("result"), dict)
        ]

    def counts(self) -> tuple[int, int, int]:
        """(total, ok, failed) for the overview table."""
        total = int(self.header.get("total_points") or 0)
        ok = sum(1 for r in self.records.values() if r.get("status") == "ok")
        failed = sum(
            1 for r in self.records.values() if r.get("status") == "failed"
        )
        return total, ok, failed


def load_campaigns(
    state_dirs: Iterable[str | Path] | str | Path,
) -> list[CampaignData]:
    """Load every campaign journal under one or more fleet state dirs.

    Ordered by (kind, campaign id, path name) so a rollup over the same
    journals renders identically no matter how the dirs were listed.
    """
    if isinstance(state_dirs, (str, Path)):
        state_dirs = [state_dirs]
    campaigns: list[CampaignData] = []
    for root in state_dirs:
        for path in _campaign_journals(Path(root)):
            header, records = Journal.load(path)
            campaigns.append(
                CampaignData(path=path, header=header, records=records)
            )
    campaigns.sort(key=lambda c: (c.kind, c.campaign, c.path.name))
    return campaigns


@dataclass
class RollupReport:
    """Everything the aggregated journals say, render- and JSON-ready."""

    campaigns: list[CampaignData]

    def sections(self) -> list[tuple[Any, dict[str, Any]]]:
        """(kind module, its ``rollup`` summary) per kind with ok results,
        in ``KIND_MODULES`` order."""
        out = []
        for kind in KIND_MODULES:
            results = [
                result
                for campaign in self.campaigns
                if campaign.kind == kind
                for result in campaign.ok_results()
            ]
            if results:
                module = kind_module(kind)
                out.append((module, module.rollup(results)))
        return out

    def as_dict(self) -> dict[str, Any]:
        """Deterministic plain-data view (the ``--json`` output)."""
        overview = []
        for campaign in self.campaigns:
            total, ok, failed = campaign.counts()
            overview.append(
                {
                    "campaign": campaign.campaign,
                    "kind": campaign.kind,
                    "total": total,
                    "ok": ok,
                    "failed": failed,
                }
            )
        out: dict[str, Any] = {"campaigns": overview}
        for _module, summary in self.sections():
            out.update(summary)
        return out

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    def render(self) -> str:
        """Deterministic text rollup across every loaded journal."""
        if not self.campaigns:
            return "no campaign journals found (nothing to roll up)"
        counts = [campaign.counts() for campaign in self.campaigns]
        total_points, ok_points, failed_points = map(sum, zip(*counts))
        overview = format_table(
            f"Campaign rollup: {len(self.campaigns)} journal(s), "
            f"{ok_points}/{total_points} points ok, "
            f"{failed_points} failed",
            ["campaign", "kind", "points", "ok", "failed"],
            [
                [campaign.campaign, campaign.kind, *map(str, count)]
                for campaign, count in zip(self.campaigns, counts)
            ],
        )
        return "\n\n".join(
            [overview]
            + [module.render_rollup(summary) for module, summary in self.sections()]
        )


def rollup(
    state_dirs: Iterable[str | Path] | str | Path = ".fleet",
) -> RollupReport:
    """Aggregate every campaign journal under the given state dir(s)."""
    return RollupReport(campaigns=load_campaigns(state_dirs))
