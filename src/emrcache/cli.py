"""Command-line front end: scenario in, tables / CSV / JSON out.

Exit codes: 0 success, 2 validation failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import csv as csv_mod
import io
import json
import sys
from dataclasses import dataclass, field, replace

from .delay import (
    DelayCase,
    MonteCarloConfig,
    baseline_delay,
    baseline_observation,
    calibrate_rates,
    expected_delay,
    monte_carlo_delay,
    plan_observation,
    poisson_partial_sums,
)
from .dvs import (
    ActivityTimeline,
    SensorModel,
    event_volume,
    frame_volume,
)
from .placement import PlacementMode, plan_scenario, reference_divergences
from .records import VideoMode, subset_label
from .report import (
    SCHEME_BASELINE,
    SCHEME_EDGE,
    SCHEME_FEMTO,
    build_report,
    compare_schemes,
    delay_report_to_dict,
    ensure_out_dir,
    format_table,
    improvement_rows,
    plan_to_dict,
    plan_to_rows,
    report_to_dict,
    sharing_summary,
    write_csv,
    write_json,
)
from .scenario import ScenarioError, load_scenario, matches_reference_layout, scenario_digest
from .sharing import capacity_sweep


@dataclass
class Emission:
    """Everything a subcommand wants shown or written."""

    name: str
    payload: dict
    tables: list = field(default_factory=list)  # (title, headers, rows)
    notes: list = field(default_factory=list)
    csv_files: list = field(default_factory=list)  # (filename, headers, rows)


def _fmt_min(minutes: float) -> str:
    return f"{minutes:.3f}"


def _fmt_pct(pct: float) -> str:
    return f"{pct:.2f}"


def _resolve_mode(args, scenario) -> PlacementMode:
    if args.mode is not None:
        return PlacementMode(args.mode)
    return (PlacementMode.REFERENCE if matches_reference_layout(scenario)
            else PlacementMode.OMISSION)


def _parse_weights(args) -> tuple | None:
    if getattr(args, "weights", None) is None:
        return None
    parts = [p for p in args.weights.split(",") if p.strip()]
    if len(parts) != 3:
        raise ValueError("weights must be three comma-separated numbers")
    return tuple(float(p) for p in parts)


def _cases(args) -> list:
    if getattr(args, "case", None) is None:
        return [DelayCase.BEST, DelayCase.WORST]
    return [DelayCase(args.case)]


def _divergence_notes(plan) -> list:
    notes = []
    for device_id, published, chosen in reference_divergences(plan):
        notes.append(
            f"note: {device_id} diverges from the published allocation: "
            f"caches {subset_label(chosen)} instead of {subset_label(published)}")
    return notes


def cmd_allocate(args, scenario) -> Emission:
    mode = _resolve_mode(args, scenario)
    plan = plan_scenario(scenario, mode, weights=_parse_weights(args))
    payload = {"digest": scenario_digest(scenario), "plan": plan_to_dict(plan)}
    notes = []
    if mode is not PlacementMode.REFERENCE and matches_reference_layout(scenario):
        notes = _divergence_notes(plan)
        payload["divergences"] = [
            {"device": d, "published": subset_label(ref), "chosen": subset_label(got)}
            for d, ref, got in reference_divergences(plan)]
    headers = ["device", "location", "cached", "cached_gb", "residual_gb"]
    rows = plan_to_rows(plan)
    return Emission("allocation", payload, tables=[(f"allocation ({mode.value})", headers, rows)],
                    notes=notes, csv_files=[("allocation.csv", headers, rows)])


def cmd_delay(args, scenario) -> Emission:
    scheme = args.scheme
    plan = None
    if scheme == "edge":
        mode = _resolve_mode(args, scenario)
        plan = plan_scenario(scenario, mode, weights=_parse_weights(args))
        active = scenario
        report = expected_delay(plan, active.locations, active.rates, scheme=SCHEME_EDGE)
    elif scheme == "femtocache":
        active = scenario.with_video_mode(VideoMode.CONVENTIONAL)
        plan = plan_scenario(active, PlacementMode.MIN_COMBO)
        report = expected_delay(plan, active.locations, active.rates, scheme=SCHEME_FEMTO)
    else:
        active = scenario
        report = baseline_delay(scenario.demand, scenario.records, scenario.locations,
                                scenario.rates)
    cases = _cases(args)
    payload = {"digest": scenario_digest(scenario), "report": delay_report_to_dict(report)}
    summary_rows = [[case.value, _fmt_min(report.minutes(case))] for case in cases]
    term_headers = ["location", "probability", "best_minutes", "worst_minutes"]
    term_rows = [[t.location, f"{t.probability:.6f}", _fmt_min(t.best_minutes),
                  _fmt_min(t.worst_minutes)] for t in report.terms]
    tables = [(f"{report.scheme} delay", ["case", "minutes"], summary_rows),
              ("per-location terms", term_headers, term_rows)]
    csv_rows = [[report.scheme, case.value, _fmt_min(report.minutes(case))] for case in cases]
    emission = Emission(f"delay_{report.scheme}", payload, tables=tables,
                        csv_files=[(f"delay_{report.scheme}.csv",
                                    ["scheme", "case", "minutes"], csv_rows)])
    if args.monte_carlo:
        if plan is None:
            raise ValueError("monte carlo estimation needs a plan-based scheme (edge or femtocache)")
        config = MonteCarloConfig(samples=args.samples, seed=args.seed,
                                  truncation=args.truncation, partitions=args.partitions)
        mc_rows = []
        payload["monte_carlo"] = {}
        for case in cases:
            result = monte_carlo_delay(plan, config, active.locations, active.rates, case)
            payload["monte_carlo"][case.value] = {
                "minutes": result.minutes, "std_error": result.std_error,
                "samples": result.samples, "seed": result.seed,
                "partitions": result.partitions}
            mc_rows.append([case.value, _fmt_min(result.minutes),
                            f"{result.std_error:.6f}", str(result.samples)])
        partials = poisson_partial_sums([loc.probability for loc in active.locations],
                                        config.truncation)
        payload["poisson_partial_sums"] = {
            loc.name: p for loc, p in zip(active.locations, partials)}
        emission.tables.append(("monte carlo", ["case", "minutes", "std_error", "samples"],
                                mc_rows))
    return emission


def cmd_compare(args, scenario) -> Emission:
    mode = _resolve_mode(args, scenario)
    plan = plan_scenario(scenario, mode, weights=_parse_weights(args))
    schemes = compare_schemes(scenario, plan)
    improvements = improvement_rows(schemes)
    payload = {
        "digest": scenario_digest(scenario),
        "mode": mode.value,
        "schemes": {label: delay_report_to_dict(rep) for label, rep in sorted(schemes.items())},
        "improvements": [{"reference_scheme": r.reference_scheme, "case": r.case.value,
                          "reference_minutes": r.reference_minutes,
                          "new_minutes": r.new_minutes, "pct": r.pct}
                         for r in improvements],
    }
    delay_headers = ["scheme", "best_minutes", "worst_minutes"]
    delay_rows = [[label, _fmt_min(rep.best_minutes), _fmt_min(rep.worst_minutes)]
                  for label, rep in ((SCHEME_EDGE, schemes[SCHEME_EDGE]),
                                     (SCHEME_FEMTO, schemes[SCHEME_FEMTO]),
                                     (SCHEME_BASELINE, schemes[SCHEME_BASELINE]))]
    imp_headers = ["reference", "case", "reference_minutes", "edge_minutes", "improvement_pct"]
    imp_rows = [[r.reference_scheme, r.case.value, _fmt_min(r.reference_minutes),
                 _fmt_min(r.new_minutes), _fmt_pct(r.pct)] for r in improvements]
    bar_headers = ["scheme", "case", "minutes"]
    bar_rows = [[label, case.value, _fmt_min(rep.minutes(case))]
                for label, rep in sorted(schemes.items())
                for case in (DelayCase.BEST, DelayCase.WORST)]
    return Emission(
        "compare", payload,
        tables=[("delay comparison", delay_headers, delay_rows),
                ("improvements", imp_headers, imp_rows)],
        csv_files=[("compare.csv", bar_headers, bar_rows),
                   ("improvements.csv", imp_headers, imp_rows)])


def cmd_share(args, scenario) -> Emission:
    summary = sharing_summary(scenario)
    payload = {
        "digest": scenario_digest(scenario),
        "per_device": [{"device": d, "capacity_gb": c, "patients": p}
                       for d, c, p in summary.per_device],
        "total": summary.total,
        "total_with_hosts": summary.total_with_hosts,
    }
    headers = ["device", "capacity_gb", "patients"]
    rows = [[d, f"{c:g}", str(p)] for d, c, p in summary.per_device]
    notes = [f"total patients: {summary.total}"]
    if args.count_hosts:
        notes.append(f"total counting unshared hosts: {summary.total_with_hosts}")
    return Emission("sharing", payload, tables=[("shared capacity", headers, rows)],
                    notes=notes, csv_files=[("sharing.csv", headers, rows)])


def cmd_sweep(args, scenario) -> Emission:
    min_gb = args.min_gb if args.min_gb is not None else scenario.policy.host_requirement_gb
    series = capacity_sweep(min_gb, args.max_gb, args.step_gb, scenario.policy)
    payload = {"digest": scenario_digest(scenario),
               "series": [{"capacity_gb": c, "patients": p} for c, p in series]}
    headers = ["capacity_gb", "patients"]
    rows = [[f"{c:g}", str(p)] for c, p in series]
    return Emission("sweep", payload, tables=[("capacity sweep", headers, rows)],
                    csv_files=[("sweep.csv", headers, rows)])


def cmd_dvs_size(args, scenario) -> Emission:
    timeline = (ActivityTimeline.from_csv(args.timeline) if args.timeline
                else scenario.timeline)
    frame_bps = args.frame_kbps * 1e3
    sensor = SensorModel.event_based(fast_bps=args.fast_kbps * 1e3,
                                     slow_bps=args.slow_kbps * 1e3)
    frame_bytes = frame_volume(frame_bps, timeline.total_duration_s)
    event_bytes = event_volume(timeline, sensor)
    ratio = event_bytes / frame_bytes if frame_bytes > 0 else 0.0
    payload = {
        "duration_s": timeline.total_duration_s,
        "frame_bitrate_bps": frame_bps,
        "frame_bytes": frame_bytes,
        "event_bytes": event_bytes,
        "event_to_frame_ratio": ratio,
    }
    headers = ["camera", "bytes", "gb"]
    rows = [["frame", f"{frame_bytes:.0f}", f"{frame_bytes / 1e9:.4f}"],
            ["event", f"{event_bytes:.0f}", f"{event_bytes / 1e9:.4f}"]]
    notes = [f"event/frame ratio: {ratio:.4f}"]
    return Emission("dvs_size", payload, tables=[("recording volume", headers, rows)],
                    notes=notes, csv_files=[("dvs_size.csv", headers, rows)])


def _parse_observation(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"observation must be scheme:case:minutes, got {spec!r}")
    scheme, case, minutes = parts
    if scheme not in ("edge", "femtocache", "baseline"):
        raise ValueError(f"unknown observation scheme {scheme!r}")
    return scheme, DelayCase(case), float(minutes)


def cmd_calibrate(args, scenario) -> Emission:
    specs = args.observation or ["edge:best:9.872", "baseline:worst:247.467"]
    mode = _resolve_mode(args, scenario)
    edge_plan = plan_scenario(scenario, mode, weights=_parse_weights(args))
    conventional = scenario.with_video_mode(VideoMode.CONVENTIONAL)
    femto_plan = plan_scenario(conventional, PlacementMode.MIN_COMBO)
    observations = []
    for spec in specs:
        scheme, case, minutes = _parse_observation(spec)
        if scheme == "edge":
            observations.append(plan_observation(edge_plan, scenario.locations, case, minutes))
        elif scheme == "femtocache":
            observations.append(plan_observation(femto_plan, conventional.locations,
                                                 case, minutes))
        else:
            observations.append(baseline_observation(scenario.demand, scenario.records,
                                                     scenario.locations, case, minutes))
    rates = calibrate_rates(observations)
    recalibrated = replace(scenario, rates=rates)
    # Placement ignores link rates, so the edge plan holds for the new rates too.
    schemes = compare_schemes(recalibrated, edge_plan)
    payload = {
        "digest": scenario_digest(scenario),
        "observations": specs,
        "edge_rate": rates.edge_rate,
        "macro_rate": rates.macro_rate,
        "reproduced": {label: {"best_minutes": rep.best_minutes,
                               "worst_minutes": rep.worst_minutes}
                       for label, rep in sorted(schemes.items())},
    }
    headers = ["scheme", "best_minutes", "worst_minutes"]
    rows = [[label, _fmt_min(rep.best_minutes), _fmt_min(rep.worst_minutes)]
            for label, rep in sorted(schemes.items())]
    notes = [f"edge_rate: {rates.edge_rate:.9f} GB/s",
             f"macro_rate: {rates.macro_rate:.9f} GB/s"]
    return Emission("calibration", payload,
                    tables=[("delays reproduced with calibrated rates", headers, rows)],
                    notes=notes, csv_files=[("calibration.csv", headers, rows)])


def cmd_report(args, scenario) -> Emission:
    mode = _resolve_mode(args, scenario)
    report = build_report(scenario, mode, weights=_parse_weights(args))
    payload = report_to_dict(report)
    if args.out:
        payload["emitted"] = [f"{args.out}/report.json"] + [
            f"{args.out}/{name}" for name in
            ("allocation.csv", "compare.csv", "improvements.csv", "sharing.csv")]
    plan_headers = ["device", "location", "cached", "cached_gb", "residual_gb"]
    plan_rows = plan_to_rows(report.plan)
    delay_headers = ["scheme", "best_minutes", "worst_minutes"]
    delay_rows = [[label, _fmt_min(rep.best_minutes), _fmt_min(rep.worst_minutes)]
                  for label, rep in sorted(report.schemes.items())]
    imp_headers = ["reference", "case", "reference_minutes", "edge_minutes", "improvement_pct"]
    imp_rows = [[r.reference_scheme, r.case.value, _fmt_min(r.reference_minutes),
                 _fmt_min(r.new_minutes), _fmt_pct(r.pct)] for r in report.improvements]
    share_headers = ["device", "capacity_gb", "patients"]
    share_rows = [[d, f"{c:g}", str(p)] for d, c, p in report.sharing.per_device]
    notes = [f"digest: {report.digest}", f"total patients: {report.sharing.total}"]
    notes += [f"note: {d} diverges from the published allocation: caches "
              f"{subset_label(got)} instead of {subset_label(ref)}"
              for d, ref, got in report.divergences]
    return Emission(
        "report", payload,
        tables=[(f"allocation ({mode.value})", plan_headers, plan_rows),
                ("delay comparison", delay_headers, delay_rows),
                ("improvements", imp_headers, imp_rows),
                ("shared capacity", share_headers, share_rows)],
        notes=notes,
        csv_files=[("allocation.csv", plan_headers, plan_rows),
                   ("compare.csv", delay_headers, delay_rows),
                   ("improvements.csv", imp_headers, imp_rows),
                   ("sharing.csv", share_headers, share_rows)])


def _csv_text(headers, rows) -> str:
    buf = io.StringIO()
    writer = csv_mod.writer(buf)
    writer.writerow(headers)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(args, emission: Emission) -> None:
    if args.format == "json":
        print(json.dumps(emission.payload, indent=2, sort_keys=True))
    elif args.format == "csv":
        name, headers, rows = emission.csv_files[0]
        sys.stdout.write(_csv_text(headers, rows))
    else:
        for title, headers, rows in emission.tables:
            print(f"== {title}")
            print(format_table(headers, rows))
            print()
        for note in emission.notes:
            print(note)
    if args.out:
        out_dir = ensure_out_dir(args.out)
        json_path = f"{out_dir}/{emission.name}.json"
        write_json(json_path, emission.payload)
        written = [json_path]
        for name, headers, rows in emission.csv_files:
            path = f"{out_dir}/{name}"
            write_csv(path, headers, rows)
            written.append(path)
        for path in written:
            print(f"wrote {path}", file=sys.stderr)


def _add_common(sub: argparse.ArgumentParser, default_format: str = "table") -> None:
    sub.add_argument("--scenario", default="paper",
                     help="scenario JSON path, or 'paper' for the built-in scenario")
    sub.add_argument("--out", default=None, help="directory for CSV and JSON artifacts")
    sub.add_argument("--format", choices=("table", "csv", "json"), default=default_format)


def _add_mode(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--mode", choices=[m.value for m in PlacementMode], default=None,
                     help="placement mode (default: paper for the built-in scenario, "
                          "omission otherwise)")
    sub.add_argument("--weights", default=None,
                     help="custom mode weights as 'staying,value,combo'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emrcache",
        description="Edge caching simulator and optimizer for tiered medical record sets")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("allocate", help="optimize the per-device cached subsets")
    _add_common(p)
    _add_mode(p)
    p.set_defaults(handler=cmd_allocate)

    p = commands.add_parser("delay", help="expected-delay report for one scheme")
    _add_common(p)
    _add_mode(p)
    p.add_argument("--scheme", choices=("edge", "femtocache", "baseline"), default="edge")
    p.add_argument("--case", choices=[c.value for c in DelayCase], default=None)
    p.add_argument("--monte-carlo", action="store_true",
                   help="add a seeded sampling estimate")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--partitions", type=int, default=1)
    p.add_argument("--truncation", type=int, default=20)
    p.set_defaults(handler=cmd_delay)

    p = commands.add_parser("compare", help="all schemes plus the improvement matrix")
    _add_common(p)
    _add_mode(p)
    p.set_defaults(handler=cmd_compare)

    p = commands.add_parser("share", help="patients served per device and in total")
    _add_common(p)
    p.add_argument("--count-hosts", action="store_true",
                   help="also count owners of devices too small to share")
    p.set_defaults(handler=cmd_share)

    p = commands.add_parser("sweep", help="patients served across a capacity grid")
    _add_common(p, default_format="csv")
    p.add_argument("--min-gb", type=float, default=None,
                   help="grid start (default: the host requirement)")
    p.add_argument("--max-gb", type=float, default=600.0)
    p.add_argument("--step-gb", type=float, default=1.0)
    p.set_defaults(handler=cmd_sweep)

    p = commands.add_parser("dvs-size", help="frame versus event camera recording volume")
    _add_common(p)
    p.add_argument("--timeline", default=None,
                   help="CSV of duration_seconds,level rows (default: scenario timeline)")
    p.add_argument("--frame-kbps", type=float, default=512.0)
    p.add_argument("--fast-kbps", type=float, default=256.0)
    p.add_argument("--slow-kbps", type=float, default=64.0)
    p.set_defaults(handler=cmd_dvs_size)

    p = commands.add_parser("calibrate", help="recover link rates from reported delays")
    _add_common(p)
    _add_mode(p)
    p.add_argument("--observation", action="append", default=None,
                   metavar="SCHEME:CASE:MINUTES",
                   help="reported delay, e.g. edge:best:9.872 (repeatable)")
    p.set_defaults(handler=cmd_calibrate)

    p = commands.add_parser("report", help="full rollup: allocation, delays, sharing")
    _add_common(p)
    _add_mode(p)
    p.set_defaults(handler=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        emission = args.handler(args, scenario)
        _emit(args, emission)
        return 0
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
