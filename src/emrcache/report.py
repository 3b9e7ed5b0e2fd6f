"""Rollup reporting: scheme comparison, improvement matrix, sharing summary.

Everything here is derived from a scenario plus a placement mode, and every
report carries the scenario digest so its numbers can be recomputed. The
rows (for tables and CSV) and the dicts (for JSON) of the allocation, scheme
delays, improvements and sharing are built here once, as are all table, JSON and
CSV texts. The CLI builds its other rows itself: the `delay` cases and terms,
Monte Carlo estimates, the sweep series and the camera volumes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from functools import cached_property

from .delay import (
    SCHEME_BASELINE,
    SCHEME_EDGE,
    SCHEME_FEMTO,
    DelayCase,
    DelayReport,
    expected_delay,
    improvement_pct,
)
from .placement import REFERENCE_ALLOCATION, AllocationPlan, PlacementMode, plan_scenario
from .scenario import EdgeScenario, matches_reference_layout
from .records import subset_label, value_class


def compare_schemes(scenario: EdgeScenario, plan: AllocationPlan) -> dict:
    """Delay reports by scheme label: the edge-cached scheme under `plan`, then the
    scenario's conventional-cache and no-edge reports."""
    reports = (expected_delay(plan, scenario.locations, scenario.rates),
               scenario.femtocache_report, scenario.baseline_report)
    return {report.scheme: report for report in reports}


def plan_divergences(scenario: EdgeScenario, mode: PlacementMode, plan: AllocationPlan):
    """Each device where `plan` departs from the published allocation, as a JSON dict of
    its id and both subsets' labels; None when the comparison does not apply."""
    if mode is PlacementMode.REFERENCE or not matches_reference_layout(scenario):
        return None
    return [{"device": e.device_id, "published": subset_label(REFERENCE_ALLOCATION[e.device_id]),
             "chosen": subset_label(e.subset)}
            for e in plan.entries if e.subset != REFERENCE_ALLOCATION[e.device_id]]


@value_class
class RunReport:
    """A scenario's results under one placement mode: the plan, built first so a bad mode
    or weights fail at once, and each read-only result derived from it, on first use."""

    scenario: EdgeScenario
    mode: PlacementMode
    plan: AllocationPlan

    @cached_property
    def schemes(self) -> dict:
        return compare_schemes(self.scenario, self.plan)

    @cached_property
    def improvements(self) -> list:
        """How much the edge-cached scheme saves against each reference scheme, as JSON
        dicts; `pct` is None against a zero reference delay, or when the ratio overflows."""
        edge = self.schemes[SCHEME_EDGE]
        rows = []
        for ref_label in (SCHEME_FEMTO, SCHEME_BASELINE):
            ref = self.schemes[ref_label]
            for case in (DelayCase.BEST, DelayCase.WORST):
                ref_minutes, new_minutes = ref.minutes(case), edge.minutes(case)
                pct = improvement_pct(ref_minutes, new_minutes) if ref_minutes > 0 else math.inf
                rows.append({"reference_scheme": ref_label, "case": case.value,
                             "reference_minutes": ref_minutes, "new_minutes": new_minutes,
                             "pct": pct if math.isfinite(pct) else None})
        return rows

    @property
    def sharing(self) -> dict:
        return self.scenario.sharing

    @cached_property
    def divergences(self):
        return plan_divergences(self.scenario, self.mode, self.plan)


def build_report(scenario: EdgeScenario, mode: PlacementMode, weights=None) -> RunReport:
    return RunReport(scenario, mode, plan_scenario(scenario, mode, weights=weights))


PLAN_HEADERS = ["device", "location", "cached", "cached_gb", "residual_gb"]
SCHEME_HEADERS = ["scheme", "best_minutes", "worst_minutes"]
CASE_HEADERS = ["scheme", "case", "minutes"]
IMPROVEMENT_HEADERS = ["reference", "case", "reference_minutes", "edge_minutes",
                       "improvement_pct"]
SHARING_HEADERS = ["device", "capacity_gb", "patients"]


def fmt_minutes(minutes: float) -> str:
    return f"{minutes:.3f}"


def plan_to_rows(plan: AllocationPlan) -> list:
    return [[e.device_id, e.location, subset_label(e.subset),
             f"{e.cached_gb:.3f}", f"{e.residual_gb:.3f}"] for e in plan.entries]


def plan_to_dict(plan: AllocationPlan) -> dict:
    return {
        "mode": plan.mode.value,
        "video_mode": plan.video_mode.value,
        "entries": [{"device": e.device_id, "location": e.location,
                     "subset": subset_label(e.subset), "cached_gb": e.cached_gb,
                     "residual_gb": e.residual_gb} for e in plan.entries],
    }


def divergences_to_notes(divergences) -> list:
    return [f"note: {d['device']} diverges from the published allocation: "
            f"caches {d['chosen']} instead of {d['published']}" for d in divergences]


def delay_cases_to_rows(reports, cases) -> list:
    """[scheme, case, minutes] for each report and case."""
    return [[rep.scheme, case.value, fmt_minutes(rep.minutes(case))]
            for rep in reports for case in cases]


def delay_report_to_dict(report: DelayReport) -> dict:
    return {
        "scheme": report.scheme,
        "best_minutes": report.best_minutes,
        "worst_minutes": report.worst_minutes,
        "terms": [{"location": t.location, "probability": t.probability,
                   "best_minutes": t.best_minutes, "worst_minutes": t.worst_minutes}
                  for t in report.terms],
    }


def schemes_to_rows(items) -> list:
    """[label, best, worst] for (label, DelayReport) pairs, in the order given."""
    return [[label, fmt_minutes(rep.best_minutes), fmt_minutes(rep.worst_minutes)]
            for label, rep in items]


def improvements_to_rows(improvements) -> list:
    return [[r["reference_scheme"], r["case"], fmt_minutes(r["reference_minutes"]),
             fmt_minutes(r["new_minutes"]), "n/a" if r["pct"] is None else f"{r['pct']:.2f}"]
            for r in improvements]


def sharing_to_dict(summary: dict) -> dict:
    """A copy of a sharing summary, rows included, for a payload: each scenario caches one
    summary for every report on it, so a caller that edits its payload edits only the copy."""
    return {**summary, "per_device": [dict(row) for row in summary["per_device"]]}


def sharing_to_rows(summary: dict) -> list:
    return [[r["device"], f"{r['capacity_gb']:g}", str(r["patients"])]
            for r in summary["per_device"]]


def schemes_to_dict(schemes: dict) -> dict:
    return {label: delay_report_to_dict(rep) for label, rep in sorted(schemes.items())}


def report_to_dict(report: RunReport) -> dict:
    return {
        "digest": report.scenario.digest,
        "mode": report.mode.value,
        "plan": plan_to_dict(report.plan),
        "schemes": schemes_to_dict(report.schemes),
        "improvements": report.improvements,
        "sharing": sharing_to_dict(report.sharing),
        "divergences": report.divergences or [],
    }


def format_table(headers, rows) -> str:
    """Plain aligned-column rendering."""
    table = [list(map(str, headers))] + [list(map(str, r)) for r in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = [" | ".join(cell.ljust(w) for cell, w in zip(table[0], widths)),
             "-+-".join("-" * w for w in widths)]
    for row in table[1:]:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def csv_text(headers, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(headers)
    writer.writerows(rows)
    return buf.getvalue()


def json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_text(path, text: str) -> None:
    """Write `text` over the file at `path`, then cut it at the end of `text`.

    Opening with truncation (`"w"`) makes ext4 wait for the write-back of the old
    contents, tens of milliseconds per file on a rewrite; writing in place and
    truncating after does not. Like `"w"`, it follows symlinks and keeps the file's
    inode, mode and hard links."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", newline="") as fh:
        fh.write(text)
        fh.truncate()


def write_csv(path, headers, rows) -> None:
    _write_text(path, csv_text(headers, rows))


def write_json(path, payload) -> None:
    _write_text(path, json_text(payload))
