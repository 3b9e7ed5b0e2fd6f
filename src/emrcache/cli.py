"""Command-line front end: scenario in, tables / CSV / JSON out.

Exit codes: 0 success, 2 validation failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import namedtuple

from .delay import (
    SCHEME_BASELINE,
    SCHEME_EDGE,
    SCHEME_FEMTO,
    DelayCase,
    MonteCarloConfig,
    baseline_loads,
    calibrate_rates,
    delay_report,
    expected_delay,
    femtocache_plan,
    load_observation,
    monte_carlo_delay,
    plan_loads,
)
from .dvs import (
    CIF_FRAME_BITRATE_BPS,
    EVENT_FAST_BITRATE_BPS,
    EVENT_SLOW_BITRATE_BPS,
    ActivityTimeline,
    SensorModel,
    event_volume,
    frame_volume,
)
from .placement import PlacementMode
from .report import (
    CASE_HEADERS,
    IMPROVEMENT_HEADERS,
    PLAN_HEADERS,
    SCHEME_HEADERS,
    SHARING_HEADERS,
    RunReport,
    build_report,
    csv_text,
    delay_cases_to_rows,
    delay_report_to_dict,
    divergences_to_notes,
    fmt_minutes,
    format_table,
    improvements_to_rows,
    json_text,
    plan_to_dict,
    plan_to_rows,
    report_to_dict,
    schemes_to_dict,
    schemes_to_rows,
    sharing_to_dict,
    sharing_to_rows,
    write_csv,
    write_json,
)
from .scenario import load_scenario, matches_reference_layout
from .sharing import SWEEP_END_GB, capacity_sweep

SCHEME_NAMES = ("edge", "femtocache", "baseline")  # the --scheme choices


# Everything a subcommand wants shown or written. Each of `sections` is (table title |
# None, CSV file name | None, headers, rows); `--format csv` prints the first section
# with a file name.
Emission = namedtuple("Emission", "name payload sections notes", defaults=((),))


def _report(args, scenario) -> RunReport:
    """The run that --mode and --weights select; `_MODE` documents the default mode."""
    weights = None
    if args.weights is not None:
        parts = args.weights.split(",")
        if len(parts) != 3 or not all(p.strip() for p in parts):
            raise ValueError("weights must be three comma-separated numbers")
        weights = tuple(float(p) for p in parts)
    mode = PlacementMode(args.mode) if args.mode is not None else (
        PlacementMode.REFERENCE if matches_reference_layout(scenario) else PlacementMode.OMISSION)
    return build_report(scenario, mode, weights=weights)


def cmd_allocate(args, scenario) -> Emission:
    run = _report(args, scenario)
    payload = {"digest": scenario.digest, "plan": plan_to_dict(run.plan)}
    if run.divergences is not None:
        payload["divergences"] = run.divergences
    return Emission("allocation", payload,
                    [(f"allocation ({run.mode.value})", "allocation.csv", PLAN_HEADERS,
                      plan_to_rows(run.plan))], notes=divergences_to_notes(run.divergences or ()))


def cmd_delay(args, scenario) -> Emission:
    # Every scheme builds the run, so --mode and --weights are checked for each. The
    # edge report is computed here, as run.schemes would plan the femtocache scheme too.
    plan = _report(args, scenario).plan
    if args.scheme == "edge":
        report = expected_delay(plan, scenario.locations, scenario.rates)
    elif args.scheme == "femtocache":
        plan = femtocache_plan(scenario)
        report = expected_delay(plan, scenario.locations, scenario.rates, scheme=SCHEME_FEMTO)
    else:
        plan, report = None, scenario.baseline_report
    cases = [DelayCase(args.case)] if args.case else [DelayCase.BEST, DelayCase.WORST]
    payload = {"digest": scenario.digest, "report": delay_report_to_dict(report)}
    summary_rows = [[case.value, fmt_minutes(report.minutes(case))] for case in cases]
    term_headers = ["location", "probability", "best_minutes", "worst_minutes"]
    term_rows = [[t.location, f"{t.probability:.6f}", fmt_minutes(t.best_minutes),
                  fmt_minutes(t.worst_minutes)] for t in report.terms]
    emission = Emission(f"delay_{report.scheme}", payload, [
        (f"{report.scheme} delay", None, ["case", "minutes"], summary_rows),
        ("per-location terms", None, term_headers, term_rows),
        (None, f"delay_{report.scheme}.csv", CASE_HEADERS, delay_cases_to_rows([report], cases)),
    ])
    if args.monte_carlo:
        if plan is None:
            raise ValueError("monte carlo estimation needs a plan-based scheme (edge or femtocache)")
        config = MonteCarloConfig(samples=args.samples, seed=args.seed,
                                  partitions=args.partitions)
        payload["monte_carlo"] = {
            case.value: monte_carlo_delay(plan, config, scenario.locations, scenario.rates,
                                          case)._asdict()
            for case in cases}
        mc_rows = [[case, fmt_minutes(r["minutes"]), f"{r['std_error']:.6f}", str(r["samples"])]
                   for case, r in payload["monte_carlo"].items()]
        emission.sections.append(("monte carlo", None,
                                  ["case", "minutes", "std_error", "samples"], mc_rows))
    return emission


def cmd_compare(args, scenario) -> Emission:
    run = _report(args, scenario)
    payload = {"digest": scenario.digest, "mode": run.mode.value,
               "schemes": schemes_to_dict(run.schemes), "improvements": run.improvements}
    # The table keeps compare_schemes' order (edge, femtocache, baseline); the
    # CSV lists one row per scheme and case, sorted by scheme.
    case_rows = delay_cases_to_rows([rep for _, rep in sorted(run.schemes.items())],
                                    (DelayCase.BEST, DelayCase.WORST))
    return Emission("compare", payload, [
        ("delay comparison", None, SCHEME_HEADERS, schemes_to_rows(run.schemes.items())),
        (None, "compare.csv", CASE_HEADERS, case_rows),
        ("improvements", "improvements.csv", IMPROVEMENT_HEADERS,
         improvements_to_rows(run.improvements)),
    ])


def cmd_share(args, scenario) -> Emission:
    summary = scenario.sharing
    payload = {"digest": scenario.digest, **sharing_to_dict(summary)}
    notes = [f"total patients: {summary['total']}"]
    if args.count_hosts:
        notes.append(f"total counting unshared hosts: {summary['total_with_hosts']}")
    return Emission("sharing", payload, [("shared capacity", "sharing.csv", SHARING_HEADERS,
                                          sharing_to_rows(summary))], notes=notes)


def cmd_sweep(args, scenario) -> Emission:
    min_gb = args.min_gb if args.min_gb is not None else scenario.policy.host_requirement_gb
    max_gb = args.max_gb if args.max_gb is not None else max(SWEEP_END_GB, min_gb)
    series = capacity_sweep(min_gb, max_gb, args.step_gb, scenario.policy)
    payload = {"digest": scenario.digest,
               "series": [{"capacity_gb": c, "patients": p} for c, p in series]}
    rows = [[f"{c:g}", str(p)] for c, p in series]
    return Emission("sweep", payload,
                    [("capacity sweep", "sweep.csv", ["capacity_gb", "patients"], rows)])


def cmd_dvs_size(args, scenario) -> Emission:
    timeline = (ActivityTimeline.from_csv(args.timeline) if args.timeline
                else scenario.timeline)
    frame_bps = args.frame_kbps * 1e3
    sensor = SensorModel.event_based(fast_bps=args.fast_kbps * 1e3,
                                     slow_bps=args.slow_kbps * 1e3)
    frame_bytes = frame_volume(frame_bps, timeline.total_duration_s)
    event_bytes = event_volume(timeline, sensor)
    # Undefined with no frame volume to compare against, like an improvement
    # against a zero reference delay.
    ratio = event_bytes / frame_bytes if frame_bytes > 0 else None
    if ratio is not None and not math.isfinite(ratio):
        raise ValueError("event/frame ratio is not finite: the inputs overflow the float range")
    payload = {
        "duration_s": timeline.total_duration_s,
        "frame_bitrate_bps": frame_bps,
        "frame_bytes": frame_bytes,
        "event_bytes": event_bytes,
        "event_to_frame_ratio": ratio,
    }
    rows = [["frame", f"{frame_bytes:.0f}", f"{frame_bytes / 1e9:.4f}"],
            ["event", f"{event_bytes:.0f}", f"{event_bytes / 1e9:.4f}"]]
    notes = [f"event/frame ratio: {'n/a' if ratio is None else f'{ratio:.4f}'}"]
    return Emission("dvs_size", payload,
                    [("recording volume", "dvs_size.csv", ["camera", "bytes", "gb"], rows)],
                    notes=notes)


def _parse_observation(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"observation must be scheme:case:minutes, got {spec!r}")
    scheme, case, minutes = parts
    if scheme not in SCHEME_NAMES:
        raise ValueError(f"unknown observation scheme {scheme!r}")
    case, minutes = DelayCase(case), float(minutes)
    if not math.isfinite(minutes):
        raise ValueError(f"observation minutes must be finite, got {spec!r}")
    return scheme, case, minutes


def cmd_calibrate(args, scenario) -> Emission:
    specs = args.observation or ["edge:best:9.872", "baseline:worst:247.467"]
    # Placement ignores link rates, so each load table holds for the calibrated rates too.
    locations = scenario.locations
    tables = {"edge": (SCHEME_EDGE, plan_loads(_report(args, scenario).plan, locations)),
              "femtocache": (SCHEME_FEMTO, plan_loads(femtocache_plan(scenario), locations)),
              "baseline": (SCHEME_BASELINE,
                           baseline_loads(scenario.demand, scenario.records, locations))}
    rates = calibrate_rates(load_observation(tables[scheme][1], case, minutes)
                            for scheme, case, minutes in map(_parse_observation, specs))
    schemes = sorted((label, delay_report(label, loads, rates)) for label, loads in tables.values())
    payload = {
        "digest": scenario.digest,
        "observations": specs,
        "edge_rate": rates.edge_rate,
        "macro_rate": rates.macro_rate,
        "reproduced": {label: {"best_minutes": rep.best_minutes,
                               "worst_minutes": rep.worst_minutes}
                       for label, rep in schemes},
    }
    notes = [f"edge_rate: {rates.edge_rate:.9f} GB/s", f"macro_rate: {rates.macro_rate:.9f} GB/s"]
    return Emission("calibration", payload,
                    [("delays reproduced with calibrated rates", "calibration.csv",
                      SCHEME_HEADERS, schemes_to_rows(schemes))], notes=notes)


def cmd_report(args, scenario) -> Emission:
    run = _report(args, scenario)
    sections = [
        (f"allocation ({run.mode.value})", "allocation.csv", PLAN_HEADERS, plan_to_rows(run.plan)),
        ("delay comparison", "compare.csv", SCHEME_HEADERS,
         schemes_to_rows(sorted(run.schemes.items()))),
        ("improvements", "improvements.csv", IMPROVEMENT_HEADERS,
         improvements_to_rows(run.improvements)),
        ("shared capacity", "sharing.csv", SHARING_HEADERS, sharing_to_rows(scenario.sharing)),
    ]
    payload = report_to_dict(run)
    if args.out:
        payload["emitted"] = [f"{args.out}/{name}"
                              for name in ["report.json"] + [s[1] for s in sections]]
    notes = [f"digest: {scenario.digest}", f"total patients: {scenario.sharing['total']}"]
    return Emission("report", payload, sections,
                    notes=notes + divergences_to_notes(payload["divergences"]))


def _non_finite(value):
    """Path of the first NaN or infinite float in a JSON-ready dict or list, or None."""
    for key, item in (value.items() if isinstance(value, dict) else enumerate(value)):
        found = (_non_finite(item) if isinstance(item, (dict, list)) else
                 "" if isinstance(item, float) and not math.isfinite(item) else None)
        if found is not None:
            return (f".{key}" if isinstance(key, str) else f"[{key}]") + found
    return None


def _emit(args, emission: Emission) -> None:
    path = _non_finite(emission.payload)  # every number shown is in the payload
    if path is not None:
        raise ValueError(f"{path.lstrip('.')} is not finite")
    if args.format == "json":
        sys.stdout.write(json_text(emission.payload))
    elif args.format == "csv":
        headers, rows = next((h, r) for _, name, h, r in emission.sections if name is not None)
        sys.stdout.write(csv_text(headers, rows))
    else:
        for title, _, headers, rows in emission.sections:
            if title is not None:
                print(f"== {title}")
                print(format_table(headers, rows))
                print()
        for note in emission.notes:
            print(note)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        written = [f"{args.out}/{emission.name}.json"]
        write_json(written[0], emission.payload)
        for _, name, headers, rows in emission.sections:
            if name is not None:
                written.append(f"{args.out}/{name}")
                write_csv(written[-1], headers, rows)
        for path in written:
            print(f"wrote {path}", file=sys.stderr)


_COMMON = [
    ("--scenario", dict(default="paper",
                        help="scenario JSON path, or 'paper' for the built-in scenario")),
    ("--out", dict(help="directory for CSV and JSON artifacts")),
]
_MODE = [
    ("--mode", dict(choices=[m.value for m in PlacementMode],
                    help="placement mode (default: paper for the built-in scenario, "
                         "omission otherwise)")),
    ("--weights", dict(help="custom mode weights as 'staying,value,combo'")),
]

# name -> (handler, help, default --format, takes _MODE, own options as (flag, kwargs))
COMMANDS = {
    "allocate": (cmd_allocate, "optimize the per-device cached subsets", "table", True, []),
    "delay": (cmd_delay, "expected-delay report for one scheme", "table", True, [
        ("--scheme", dict(choices=SCHEME_NAMES, default="edge")),
        ("--case", dict(choices=[c.value for c in DelayCase])),
        ("--monte-carlo", dict(action="store_true", help="add a seeded sampling estimate")),
        ("--samples", dict(type=int, default=1_000_000)),
        ("--seed", dict(type=int, default=0)),
        ("--partitions", dict(type=int, default=1))]),
    "compare": (cmd_compare, "all schemes plus the improvement matrix", "table", True, []),
    "share": (cmd_share, "patients served per device and in total", "table", False, [
        ("--count-hosts", dict(action="store_true",
                               help="also count owners of devices too small to share"))]),
    "sweep": (cmd_sweep, "patients served across a capacity grid", "csv", False, [
        ("--min-gb", dict(type=float, help="grid start (default: the host requirement)")),
        ("--max-gb", dict(type=float,
                          help="grid end (default: 600, or the start when that is larger)")),
        ("--step-gb", dict(type=float, default=1.0))]),
    "dvs-size": (cmd_dvs_size, "frame versus event camera recording volume", "table", False, [
        ("--timeline", dict(help="CSV of duration_seconds,level rows (default: scenario timeline)")),
        ("--frame-kbps", dict(type=float, default=CIF_FRAME_BITRATE_BPS / 1e3)),
        ("--fast-kbps", dict(type=float, default=EVENT_FAST_BITRATE_BPS / 1e3)),
        ("--slow-kbps", dict(type=float, default=EVENT_SLOW_BITRATE_BPS / 1e3))]),
    "calibrate": (cmd_calibrate, "recover link rates from reported delays", "table", True, [
        ("--observation", dict(action="append", metavar="SCHEME:CASE:MINUTES",
                               help="reported delay, e.g. edge:best:9.872 (repeatable)"))]),
    "report": (cmd_report, "full rollup: allocation, delays, sharing", "table", True, []),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emrcache",
        description="Edge caching simulator and optimizer for tiered medical record sets")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, default_format, takes_mode, own) in COMMANDS.items():
        sub = commands.add_parser(name, help=help_text)
        formats = [("--format", dict(choices=("table", "csv", "json"), default=default_format))]
        for flag, kwargs in _COMMON + formats + (_MODE if takes_mode else []) + own:
            sub.add_argument(flag, **kwargs)
        sub.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        emission = args.handler(args, scenario)
        _emit(args, emission)
        return 0
    except ValueError as exc:  # ScenarioError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
