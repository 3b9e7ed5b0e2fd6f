"""The three benchmark workloads: a fixed cycle of operations, and a check for each.

Each workload builds its inputs from the seed in its constructor, runs one
operation per `run(item)` call, and `check(item, output)` raises
`model.CheckError` when an output disagrees with the independent model.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import re
import resource
import subprocess
import sys
import threading

import model
from model import expect
from emrcache import delay, placement, report, scenario
from emrcache.delay import DelayCase, MonteCarloConfig
from emrcache.placement import PlacementMode
from emrcache.records import VideoMode

HERE = os.path.dirname(os.path.abspath(__file__))
PLAN_HEADERS = ["device", "location", "cached", "cached_gb", "residual_gb"]


def _self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _csv_rows(text: str) -> list:
    return list(csv.reader(io.StringIO(text)))


def _plan_rows(plan_payload) -> list:
    return [[e["device"], e["location"], e["subset"], f"{e['cached_gb']:.3f}",
             f"{e['residual_gb']:.3f}"] for e in plan_payload["entries"]]


class ScenarioEval:
    """Load one scenario file, report it in three placement modes, render the results."""

    name = "scenario-eval"
    MODES = ("omission", "min-combo", "custom")
    # Four corpus files for every location count 1..24, so every seed gives the same cost mix.
    LOCATION_SCHEDULE = tuple(n for n in range(1, 25) for _ in range(4))

    def __init__(self, seed: int, workdir: str, trace: bool):
        rng = random.Random(seed)
        self.items = [("paper", model.PAPER_DOC, ("paper",) + self.MODES,
                       model.custom_weights(rng))]
        for i, n in enumerate(self.LOCATION_SCHEDULE):
            doc = model.corpus_doc(rng, n)
            path = model.write_doc(doc, os.path.join(workdir, f"s{i:03d}.json"))
            self.items.append((path, doc, self.MODES, model.custom_weights(rng)))
        self.digests = {}

    def warm_up(self):
        for item in self.items:
            self.run(item)

    def run(self, item):
        path, _doc, modes, weights = item
        loaded = scenario.load_scenario(path)
        out = []
        for mode in modes:
            rep = report.build_report(loaded, PlacementMode(mode),
                                      weights=weights if mode == "custom" else None)
            rows = report.plan_to_rows(rep.plan)
            out.append((mode, report.report_to_dict(rep), rows,
                        report.format_table(PLAN_HEADERS, rows)))
        return out

    def check(self, item, out):
        path, doc, modes, weights = item
        expect([o[0] for o in out] == list(modes), f"{path}: modes {[o[0] for o in out]}")
        for mode, payload, rows, table in out:
            where = f"{path} {mode}"
            model.check_report(doc, payload, mode, weights if mode == "custom" else None, where)
            expect(self.digests.setdefault(path, payload["digest"]) == payload["digest"],
                   f"{where}: digest changed between loads")
            expect(json.loads(json.dumps(payload)) == payload,
                   f"{where}: payload does not round-trip through JSON")
            expected = _plan_rows(payload["plan"])
            expect(rows == expected, f"{where}: plan rows disagree with the payload")
            expect(_table_rows(table.splitlines()) == expected, f"{where}: table rows")

    def peak_rss_mb(self):
        return _self_peak_rss_mb()


class MonteCarloEstimate:
    """One `monte_carlo_delay` at 10^6 samples per operation, over a fixed set of plans."""

    name = "mc-estimate"
    SAMPLES = 1_000_000
    # Cost grows with the location count: an odd number of equal groups puts the
    # median and the 90th percentile inside a group, not on a boundary between two.
    LOCATIONS = (3, 6, 12, 18, 24)
    PARTITIONS = (1, 4)

    def __init__(self, seed: int, workdir: str, trace: bool):
        rng = random.Random(seed)
        self.items = []
        for i, n in enumerate(self.LOCATIONS):
            doc, terms = self._draw(rng, n)
            loaded = scenario.load_scenario(model.write_doc(doc, os.path.join(workdir, f"m{i}.json")))
            conventional = loaded.with_video_mode(VideoMode.CONVENTIONAL)
            plans = {"edge": (placement.plan_scenario(loaded, PlacementMode.OMISSION), loaded),
                     "femtocache": (placement.plan_scenario(conventional, PlacementMode.MIN_COMBO),
                                    conventional)}
            for kind, (plan, scen) in plans.items():
                for case in ("best", "worst"):
                    for partitions in self.PARTITIONS:
                        config = MonteCarloConfig(samples=self.SAMPLES,
                                                  seed=seed * 1000 + len(self.items),
                                                  partitions=partitions)
                        self.items.append((f"m{i} {kind} {case} p{partitions}", plan, scen,
                                           config, DelayCase(case), terms[kind]))
        self.first = {}

    @staticmethod
    def _draw(rng, n):
        """A corpus scenario whose plans give both cases a nonzero variance."""
        while True:
            doc = model.corpus_doc(rng, n)
            terms = {"edge": model.plan_terms(doc, model.plan(doc, "omission")),
                     "femtocache": model.plan_terms(
                         doc, model.plan(doc, "min-combo", video_mode="conventional"))}
            if all(model.moments(t, case)[1] > 1e-6 for t in terms.values()
                   for case in ("best", "worst")):
                return doc, terms

    def warm_up(self):
        self.run(self.items[0])

    def run(self, item):
        _name, plan, scen, config, case, _terms = item
        return delay.monte_carlo_delay(plan, config, scen.locations, scen.rates, case)

    def check(self, item, result):
        name, _plan, _scen, config, case, terms = item
        expect(result.samples == config.samples and result.partitions == config.partitions,
               f"{name}: samples/partitions not echoed")
        model.check_monte_carlo(result.minutes, result.std_error, config.samples, terms,
                                case.value, name)
        expect(self.first.setdefault(name, result) == result,
               f"{name}: same seed, samples and partitions gave another result")

    def peak_rss_mb(self):
        return _self_peak_rss_mb()


CHILD_TIMEOUT_S = 60
IMPORT_LINE = re.compile(r"^import time:\s*\d+ \|\s*(\d+) \|\s*(emrcache|numpy)\s*$")


class CliCold:
    """One fresh `python -m emrcache.cli ...` process per operation, run to exit."""

    name = "cli-cold"
    # (subcommand, extra arguments). `delay` runs for two schemes, so the Monte Carlo
    # operations, the costliest, are 2/9 of the cycle and hold the 90th percentile inside.
    COMMANDS = (("allocate", ()), ("delay", ("--scheme", "edge", "--monte-carlo")),
                ("delay", ("--scheme", "femtocache", "--monte-carlo")), ("compare", ()),
                ("share", ("--count-hosts",)), ("sweep", ()), ("dvs-size", ()),
                ("calibrate", ()), ("report", ()))
    FORMATS = ("json", "csv", "table")  # json first: the other two are checked against it
    LOCATIONS = (2, 4, 6, 9, 12, 15, 18, 21, 24)  # one corpus file per command

    def __init__(self, seed: int, workdir: str, trace: bool):
        rng = random.Random(seed)
        root = os.path.dirname(HERE)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.cwd = root
        self.trace = trace
        self.stdout_path = os.path.join(workdir, "stdout.txt")
        self.stderr_path = os.path.join(workdir, "stderr.txt")
        self.spans_path = os.path.join(workdir, "spans.json")
        self.spans, self.traced_ops = [], 0
        self.import_ms = {"emrcache": [], "numpy": []}
        self.peak_rss = 0.0
        self.items = []
        for j, (sub, extra) in enumerate(self.COMMANDS):
            doc = model.corpus_doc(rng, self.LOCATIONS[j], need_edge_traffic=True)
            path = model.write_doc(doc, os.path.join(workdir, f"c{j}.json"))
            for scen, scen_doc in (("paper", model.PAPER_DOC), (path, doc)):
                for fmt in self.FORMATS:
                    argv = [sub, "--scenario", scen, "--format", fmt, *extra]
                    if sub == "delay":
                        argv += ["--seed", str(seed)]
                    out_dir = None
                    if fmt == "table":
                        out_dir = os.path.join(workdir, f"out{j}")
                        argv += ["--out", out_dir]
                    self.items.append((sub, (j, scen), scen_doc, fmt, out_dir, argv))
        self.json_payload = {}
        self.first_payload = {}

    def warm_up(self):
        self.run(self.items[0], timed=False)

    def run(self, item, timed=True):
        argv = item[5]
        if self.trace:
            cmd = [sys.executable, "-X", "importtime", os.path.join(HERE, "cli_boot.py"),
                   self.spans_path] + argv
        else:
            cmd = [sys.executable, "-m", "emrcache.cli"] + argv
        with open(self.stdout_path, "w+b") as out, open(self.stderr_path, "w+b") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=self.cwd, env=self.env)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                # wait4 rather than wait: it returns this child's own peak RSS.
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read().decode(), err.read().decode()
        if timed:
            self.peak_rss = max(self.peak_rss, usage.ru_maxrss * 1024 / 1e6)
            if self.trace:
                self._collect_trace(stderr)
        return proc.returncode, stdout, stderr

    def _collect_trace(self, stderr):
        with open(self.spans_path) as fh:
            spans = json.load(fh)
        offset, op = len(self.spans), self.traced_ops
        for span in spans:
            span[1] = span[1] + offset if span[1] >= 0 else -1
            span[2] = op
        self.spans.extend(spans)
        self.traced_ops += 1
        for line in stderr.splitlines():
            match = IMPORT_LINE.match(line)
            if match:
                self.import_ms[match.group(2)].append(int(match.group(1)) / 1000.0)

    def check(self, item, output):
        sub, key, doc, fmt, out_dir, argv = item
        code, stdout, stderr = output
        where = " ".join(argv)
        expect(code == 0, f"{where}: exit {code}: {stderr.strip()[-300:]}")
        if fmt == "json":
            payload = json.loads(stdout)
            self.json_payload[key] = payload  # CSV and table are checked against it either way
            CLI_CHECKS[sub](doc, payload, where)
            expect(self.first_payload.setdefault(key, payload) == payload,
                   f"{where}: output changed between runs")
            return
        payload = self.json_payload[key]
        expected_csv, expected_tables = RENDER[sub](payload)
        if fmt == "csv":
            expect(_csv_rows(stdout) == expected_csv, f"{where}: CSV disagrees with JSON")
            return
        tables = _table_sections(stdout)
        for title, rows in expected_tables.items():
            expect(tables.get(title) == rows, f"{where}: table {title!r} disagrees with JSON")
        self._check_artifacts(payload, out_dir, stderr, expected_csv, where)

    @staticmethod
    def _check_artifacts(payload, out_dir, stderr, expected_csv, where):
        written = [line[len("wrote "):] for line in stderr.splitlines()
                   if line.startswith("wrote ")]
        expect(written and written[0].endswith(".json") and len(written) >= 2,
               f"{where}: artifacts {written}")
        for path in written:
            expect(os.path.dirname(path) == out_dir and os.path.isfile(path),
                   f"{where}: artifact {path} missing")
        with open(written[0]) as fh:
            artifact = json.load(fh)
        artifact.pop("emitted", None)
        expect(artifact == payload, f"{where}: {written[0]} disagrees with the JSON output")
        with open(written[1], newline="") as fh:
            expect(list(csv.reader(fh)) == expected_csv, f"{where}: {written[1]} rows")
        for path in written[2:]:
            with open(path, newline="") as fh:
                expect(len(list(csv.reader(fh))) >= 2, f"{where}: {path} has no rows")

    def peak_rss_mb(self):
        return self.peak_rss


def _table_rows(lines) -> list:
    """Data rows of one aligned table: header, rule, then ' | '-separated rows."""
    return [[cell.strip() for cell in line.split(" | ")] for line in lines[2:]]


def _table_sections(text) -> dict:
    sections = {}
    for block in text.split("== ")[1:]:
        lines = block.split("\n\n")[0].splitlines()
        sections[lines[0]] = _table_rows(lines[1:])
    return sections


# ---------------------------------------------------------------- CLI checks

def _edge_mode(doc) -> str:
    """The CLI's default mode: paper for the built-in layout, omission otherwise."""
    return "paper" if doc is model.PAPER_DOC else "omission"


def _check_allocate(doc, payload, where):
    expect(payload["plan"]["mode"] == _edge_mode(doc), f"{where}: mode")
    model.check_plan(doc, payload["plan"], _edge_mode(doc), None, where)


def _check_delay(doc, payload, where):
    femtocache = "--scheme femtocache" in where
    rep = payload["report"]
    expect(rep["scheme"] == ("femtocache" if femtocache else "edge_dvs"), f"{where}: scheme")
    entries = (model.plan(doc, "min-combo", video_mode="conventional") if femtocache
               else model.plan(doc, _edge_mode(doc)))
    terms = model.plan_terms(doc, entries)
    expected = model.weighted(terms)
    for case in ("best", "worst"):
        expect(model.close(rep[f"{case}_minutes"], expected[case]), f"{where}: {case} delay")
        mc = payload["monte_carlo"][case]
        model.check_monte_carlo(mc["minutes"], mc["std_error"], mc["samples"], terms, case,
                                where)
    expect(len(rep["terms"]) == len(doc["locations"]), f"{where}: per-location terms")


def _check_compare(doc, payload, where):
    mode = _edge_mode(doc)
    delays = model.check_schemes(doc, payload["schemes"], mode, None, where)
    model.check_improvements(doc, payload["improvements"], delays, mode, where)


def _check_share(doc, payload, where):
    model.check_sharing(doc, payload["per_device"], payload["total"],
                        payload["total_with_hosts"], where)


def _check_sweep(doc, payload, where):
    pol = model.policy(doc)
    series = payload["series"]
    host = pol["host_requirement_gb"]
    expect(len(series) == int(600.0 - host) + 1, f"{where}: {len(series)} grid points")
    for i, point in enumerate(series):
        expect(model.close(point["capacity_gb"], host + i), f"{where}: grid point {i}")
        expect(point["patients"] == model.patients(point["capacity_gb"], pol),
               f"{where}: patients at {point['capacity_gb']}")


def _check_dvs_size(doc, payload, where):
    expect(payload["frame_bytes"] == model.PAPER_FRAME_BYTES, f"{where}: frame bytes")
    expect(model.close(payload["event_bytes"], model.PAPER_EVENT_BYTES), f"{where}: event bytes")


def _check_calibrate(doc, payload, where):
    """Default observations edge:best:9.872 and baseline:worst:247.467 fix both rates."""
    entries = model.plan(doc, _edge_mode(doc))
    edge_gb = sum(p * e["cached_gb"] for p, e in
                  zip(model.probabilities(doc), model.by_location(doc, entries)))
    full = model.size(doc, frozenset(model.CLASSES), "conventional")
    expect(model.close(payload["edge_rate"], edge_gb / (9.872 * 60), rel=1e-9),
           f"{where}: edge rate")
    expect(model.close(payload["macro_rate"], full / (247.467 * 60), rel=1e-9),
           f"{where}: macro rate")
    if doc is model.PAPER_DOC:
        for key in ("edge_rate", "macro_rate"):
            expect(model.close(payload[key], model.DEFAULT_RATES[key], rel=1e-3),
                   f"{where}: {key} is not the default rate")
    reproduced = payload["reproduced"]
    expect(model.close(reproduced["edge_dvs"]["best_minutes"], 9.872), f"{where}: edge best")
    expect(model.close(reproduced["baseline"]["worst_minutes"], 247.467),
           f"{where}: baseline worst")


def _check_report(doc, payload, where):
    model.check_report(doc, payload, _edge_mode(doc), None, where)


CLI_CHECKS = {"allocate": _check_allocate, "delay": _check_delay, "compare": _check_compare,
              "share": _check_share, "sweep": _check_sweep, "dvs-size": _check_dvs_size,
              "calibrate": _check_calibrate, "report": _check_report}


# -------------------------------------------- CSV and table rows implied by the JSON

def _m(x):
    return f"{x:.3f}"


def _delay_rows(schemes, order):
    return [[s, _m(schemes[s]["best_minutes"]), _m(schemes[s]["worst_minutes"])] for s in order]


def _improvement_rows(rows):
    return [[r["reference_scheme"], r["case"], _m(r["reference_minutes"]), _m(r["new_minutes"]),
             f"{r['pct']:.2f}"] for r in rows]


def _share_rows(per_device):
    return [[r["device"], f"{r['capacity_gb']:g}", str(r["patients"])] for r in per_device]


def _render_allocate(p):
    rows = _plan_rows(p["plan"])
    return [PLAN_HEADERS] + rows, {f"allocation ({p['plan']['mode']})": rows}


def _render_delay(p):
    rep = p["report"]
    cases = ("best", "worst")
    return ([["scheme", "case", "minutes"]]
            + [[rep["scheme"], c, _m(rep[f"{c}_minutes"])] for c in cases],
            {f"{rep['scheme']} delay": [[c, _m(rep[f"{c}_minutes"])] for c in cases],
             "per-location terms": [[t["location"], f"{t['probability']:.6f}",
                                     _m(t["best_minutes"]), _m(t["worst_minutes"])]
                                    for t in rep["terms"]],
             "monte carlo": [[c, _m(p["monte_carlo"][c]["minutes"]),
                              f"{p['monte_carlo'][c]['std_error']:.6f}",
                              str(p["monte_carlo"][c]["samples"])] for c in cases]})


def _render_compare(p):
    schemes = p["schemes"]
    bars = [[s, c, _m(schemes[s][f"{c}_minutes"])] for s in sorted(schemes)
            for c in ("best", "worst")]
    return ([["scheme", "case", "minutes"]] + bars,
            {"delay comparison": _delay_rows(schemes, model.SCHEMES),
             "improvements": _improvement_rows(p["improvements"])})


def _render_share(p):
    rows = _share_rows(p["per_device"])
    return [["device", "capacity_gb", "patients"]] + rows, {"shared capacity": rows}


def _render_sweep(p):
    rows = [[f"{s['capacity_gb']:g}", str(s["patients"])] for s in p["series"]]
    return [["capacity_gb", "patients"]] + rows, {"capacity sweep": rows}


def _render_dvs_size(p):
    rows = [[kind, f"{p[f'{kind}_bytes']:.0f}", f"{p[f'{kind}_bytes'] / 1e9:.4f}"]
            for kind in ("frame", "event")]
    return [["camera", "bytes", "gb"]] + rows, {"recording volume": rows}


def _render_calibrate(p):
    rows = _delay_rows(p["reproduced"], sorted(p["reproduced"]))
    return ([["scheme", "best_minutes", "worst_minutes"]] + rows,
            {"delays reproduced with calibrated rates": rows})


def _render_report(p):
    rows = _plan_rows(p["plan"])
    return [PLAN_HEADERS] + rows, {
        f"allocation ({p['mode']})": rows,
        "delay comparison": _delay_rows(p["schemes"], sorted(p["schemes"])),
        "improvements": _improvement_rows(p["improvements"]),
        "shared capacity": _share_rows(p["sharing"]["per_device"])}


RENDER = {"allocate": _render_allocate, "delay": _render_delay, "compare": _render_compare,
          "share": _render_share, "sweep": _render_sweep, "dvs-size": _render_dvs_size,
          "calibrate": _render_calibrate, "report": _render_report}

WORKLOADS = {w.name: w for w in (ScenarioEval, MonteCarloEstimate, CliCold)}
