import argparse
import importlib.util
import json
import math
import os
import subprocess
import sys

import pytest

import emrcache
from emrcache import cli, placement
from emrcache.cli import main
from emrcache.delay import MAX_PARTITIONS
from emrcache.report import json_text
from emrcache.sharing import MAX_SWEEP_POINTS
from test_cli_golden import GOLDEN, OUT_CASES, run_cli


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compare_reports_the_headline_numbers(capsys):
    code, out, _ = _run(capsys, "compare", "--scenario", "paper", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    schemes = payload["schemes"]
    assert schemes["edge_dvs"]["best_minutes"] == pytest.approx(9.872, abs=0.01)
    assert schemes["edge_dvs"]["worst_minutes"] == pytest.approx(26.855, abs=0.02)
    assert schemes["femtocache"]["best_minutes"] == pytest.approx(16.59, abs=0.05)
    assert schemes["femtocache"]["worst_minutes"] == pytest.approx(139.652, abs=0.05)
    assert schemes["baseline"]["best_minutes"] == pytest.approx(145.73, abs=0.05)
    assert schemes["baseline"]["worst_minutes"] == pytest.approx(247.467, abs=0.01)
    pcts = {(r["reference_scheme"], r["case"]): r["pct"] for r in payload["improvements"]}
    assert pcts[("femtocache", "best")] == pytest.approx(40.5, abs=0.1)
    assert pcts[("femtocache", "worst")] == pytest.approx(80.77, abs=0.05)
    assert pcts[("baseline", "best")] == pytest.approx(93.23, abs=0.05)
    assert pcts[("baseline", "worst")] == pytest.approx(89.15, abs=0.05)
    for row in payload["improvements"]:
        recomputed = (row["reference_minutes"] - row["new_minutes"]) / row["reference_minutes"]
        assert row["pct"] == pytest.approx(recomputed * 100.0)


def test_compare_table_contains_improvements(capsys):
    code, out, _ = _run(capsys, "compare", "--scenario", "paper")
    assert code == 0
    assert "93.23" in out
    assert "89.15" in out
    assert "247.467" in out


def test_allocate_paper_mode_prints_fixture_rows(capsys):
    code, out, _ = _run(capsys, "allocate", "--mode", "paper")
    assert code == 0
    assert "EA" in out and "text+image " in out
    assert "106.660" in out
    assert "diverges" not in out


def test_allocate_omission_reports_divergence(capsys):
    code, out, _ = _run(capsys, "allocate", "--mode", "omission")
    assert code == 0
    assert "ED diverges from the published allocation" in out
    assert "text+video" in out


def test_share_totals(capsys):
    code, out, _ = _run(capsys, "share")
    assert code == 0
    assert "total patients: 147" in out
    code, out, _ = _run(capsys, "share", "--count-hosts")
    assert "total counting unshared hosts: 150" in out


def test_a_device_just_below_the_host_requirement_serves_the_host(tmp_path, capsys):
    # EA passes the host check within its tolerance, so it serves its host; its
    # negative leftover, over a tiny guest slice, must not count as guests.
    devices = [{"id": "EA", "capacity_gb": 9.9999999995, "location": "home"},
               {"id": "EB", "capacity_gb": 500.0, "location": "work"},
               {"id": "EC", "capacity_gb": 150.0, "location": "family"},
               {"id": "ED", "capacity_gb": 50.0, "location": "friend"},
               {"id": "EE", "capacity_gb": 10.0, "location": "other"}]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"policy": {"host_requirement_gb": 10,
                                           "guest_requirement_gb": 1e-300},
                                "devices": devices}))
    code, out, _ = _run(capsys, "share", "--scenario", str(path), "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "EA,10,1"


def test_sweep_emits_csv_series(capsys):
    code, out, _ = _run(capsys, "sweep", "--min-gb", "499", "--max-gb", "501")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "capacity_gb,patients"
    assert "500,132" in lines


def test_dvs_size_reports_both_volumes(capsys):
    code, out, _ = _run(capsys, "dvs-size")
    assert code == 0
    assert "2764800000" in out
    assert "100000000" in out


def test_calibrate_default_observations(capsys):
    code, out, _ = _run(capsys, "calibrate", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["edge_rate"] == pytest.approx(0.146484, rel=1e-3)
    assert payload["macro_rate"] == pytest.approx(0.01953125, rel=1e-3)
    assert payload["reproduced"]["edge_dvs"]["best_minutes"] == pytest.approx(9.872, abs=0.01)


def test_delay_monte_carlo_is_seeded(capsys):
    args = ("delay", "--scheme", "edge", "--monte-carlo", "--samples", "50000",
            "--seed", "11", "--case", "best", "--format", "json")
    code, first, _ = _run(capsys, *args)
    assert code == 0
    code, second, _ = _run(capsys, *args)
    assert first == second
    payload = json.loads(first)
    mc = payload["monte_carlo"]["best"]
    assert abs(mc["minutes"] - payload["report"]["best_minutes"]) <= 3 * mc["std_error"]


def test_monte_carlo_rejected_for_baseline(capsys):
    code, _, err = _run(capsys, "delay", "--scheme", "baseline", "--monte-carlo")
    assert code == 2
    assert "plan-based" in err


@pytest.mark.parametrize("scheme", ["edge", "femtocache", "baseline"])
@pytest.mark.parametrize("flags,message", [
    (["--weights", "1,2,3"], "weights apply only to custom mode"),
    (["--mode", "custom"], "custom mode needs three finite weights"),
], ids=["weights-outside-custom", "custom-without-weights"])
def test_delay_checks_mode_and_weights_for_every_scheme(capsys, scheme, flags, message):
    code, out, err = _run(capsys, "delay", "--scheme", scheme, *flags)
    assert code == 2
    assert out == ""
    assert message in err


def test_identical_invocations_are_byte_identical(capsys):
    code, first, _ = _run(capsys, "report", "--format", "json")
    assert code == 0
    code, second, _ = _run(capsys, "report", "--format", "json")
    assert first == second


def test_out_writes_json_and_csv(tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    code, _, err = _run(capsys, "compare", "--out", str(out_dir), "--format", "json")
    assert code == 0
    assert (out_dir / "compare.json").exists()
    assert (out_dir / "compare.csv").exists()
    assert (out_dir / "improvements.csv").exists()
    rows = (out_dir / "compare.csv").read_text().strip().splitlines()
    assert rows[0] == "scheme,case,minutes"
    assert len(rows) == 7


@pytest.mark.parametrize("name", sorted(OUT_CASES))
def test_out_rewrites_each_artifact_in_place(name, tmp_path, monkeypatch):
    """Over longer stale files, each artifact ends up equal to its golden, with no stale
    tail left, and keeps its inode: the writer cuts the file after writing to it, and
    neither truncates on open nor replaces the file."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    goldens = sorted((GOLDEN / name / "out").iterdir())
    inodes = {}
    for golden in goldens:
        stale = tmp_path / "out" / golden.name
        stale.write_bytes(b"stale\n" * golden.stat().st_size)
        inodes[golden.name] = stale.stat().st_ino
    assert run_cli(OUT_CASES[name])[0] == 0
    for golden in goldens:
        written = tmp_path / "out" / golden.name
        assert written.read_bytes() == golden.read_bytes(), golden.name
        assert written.stat().st_ino == inodes[golden.name], golden.name


def test_exit_code_2_for_invalid_scenario(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"locations": [{"name": "a", "dwell_hours": 5}],
                                "devices": [{"id": "d", "capacity_gb": 1, "location": "a"}]}))
    code, _, err = _run(capsys, "compare", "--scenario", str(path))
    assert code == 2
    assert "dwell_hours sum" in err


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400])
def test_non_finite_numbers_are_rejected_at_load(tmp_path, capsys, token):
    path = tmp_path / "nonfinite.json"
    path.write_text('{"records": {"text_gb": %s}}' % token)
    code, out, err = _run(capsys, "delay", "--scheme", "baseline", "--scenario", str(path))
    assert code == 2
    assert f"number {token} is not a finite float" in err
    assert "nan" not in out.lower() and "inf" not in out.lower()


def test_size_limits_exit_2_and_name_the_limit(capsys):
    code, _, err = _run(capsys, "sweep", "--min-gb", "0",
                        "--max-gb", str(MAX_SWEEP_POINTS), "--step-gb", "1")
    assert code == 2
    assert f"limit of {MAX_SWEEP_POINTS} points (MAX_SWEEP_POINTS)" in err
    code, _, err = _run(capsys, "delay", "--monte-carlo", "--partitions",
                        str(MAX_PARTITIONS + 1))
    assert code == 2
    assert f"<= {MAX_PARTITIONS} (MAX_PARTITIONS)" in err


def test_sweep_default_end_follows_a_start_above_600(capsys):
    code, out, _ = _run(capsys, "sweep", "--min-gb", "700")
    assert code == 0
    assert out == "capacity_gb,patients\r\n700,198\r\n"
    code, out, err = _run(capsys, "sweep", "--min-gb", "700", "--max-gb", "600")
    assert code == 2
    assert out == ""
    assert "sweep min exceeds max" in err


@pytest.mark.parametrize("argv", [
    ["--min-gb", "1e16", "--max-gb", "1.000000000000001e16", "--step-gb", "1"],
    ["--min-gb", "1e300", "--max-gb", "1e300", "--format", "json"],
], ids=["step-vanishes", "half-step-vanishes"])
def test_a_sweep_grid_that_does_not_advance_exits_2(capsys, argv):
    code, out, err = _run(capsys, "sweep", *argv)
    assert code == 2
    assert out == ""
    assert "does not advance" in err


# Valid scenarios in which a reference scheme takes no time: every record is empty,
# or the one device is too small for the conventional cache to hold anything.
_ZERO_REFERENCE_DOCUMENTS = {
    "empty-records": {"records": {"text_gb": 0, "image_gb": 0, "video_conventional_gb": 0,
                                  "video_dvs_gb": 0}},
    "empty-femtocache": {"locations": [{"name": "a", "dwell_hours": 24}],
                         "devices": [{"id": "x", "capacity_gb": 1, "location": "a"}]},
}


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("command", ["compare", "report"])
@pytest.mark.parametrize("name", sorted(_ZERO_REFERENCE_DOCUMENTS))
def test_improvement_against_a_zero_reference_delay_is_undefined(tmp_path, capsys, name,
                                                                command, fmt):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_ZERO_REFERENCE_DOCUMENTS[name]))
    code, out, _ = _run(capsys, command, "--scenario", str(path), "--format", fmt,
                        "--out", str(tmp_path / "out"))
    assert code == 0
    payload = json.loads((tmp_path / "out" / f"{command}.json").read_text())
    undefined = [row["pct"] is None for row in payload["improvements"]]
    assert undefined == [row["reference_minutes"] == 0 for row in payload["improvements"]]
    assert any(undefined)
    rows = (tmp_path / "out" / "improvements.csv").read_text().splitlines()[1:]
    assert [row.endswith(",n/a") for row in rows] == undefined
    if fmt == "json":
        assert json.loads(out) == payload
    elif fmt == "table":
        assert out.count(" n/a ") == sum(undefined)


def test_exit_code_3_for_missing_scenario(capsys):
    code, _, err = _run(capsys, "compare", "--scenario", "/does/not/exist.json")
    assert code == 3


def test_unknown_flags_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["compare", "--nope"])
    assert err.value.code == 2


def test_report_to_directory(tmp_path, capsys):
    out_dir = tmp_path / "report"
    code, out, err = _run(capsys, "report", "--out", str(out_dir))
    assert code == 0
    for name in ("report.json", "allocation.csv", "compare.csv",
                 "improvements.csv", "sharing.csv"):
        assert (out_dir / name).exists()
    payload = json.loads((out_dir / "report.json").read_text())
    assert payload["sharing"]["total"] == 147
    assert len(payload["digest"]) == 64


@pytest.mark.parametrize("argv", [
    ["allocate"], ["delay", "--scheme", "baseline"], ["compare"], ["share"], ["sweep"],
    ["dvs-size"], ["calibrate"], ["report"]], ids=lambda argv: argv[0])
def test_fractional_dwell_hours_exit_2_at_load(tmp_path, capsys, argv):
    path = tmp_path / "fractional.json"
    path.write_text(json.dumps({
        "locations": [{"name": "a", "dwell_hours": 12.5}, {"name": "b", "dwell_hours": 11.5}],
        "devices": [{"id": "A", "capacity_gb": 100, "location": "a"},
                    {"id": "B", "capacity_gb": 100, "location": "b"}]}))
    code, out, err = _run(capsys, *argv, "--scenario", str(path))
    assert code == 2
    assert out == ""
    assert "locations[a].dwell_hours: no staying coefficient for dwell time 12.5" in err
    assert "locations[b].dwell_hours: no staying coefficient for dwell time 11.5" in err


@pytest.mark.parametrize("weights", ["1,,2,3", ",1,2,3", "1,2,3,", "1,,2", " ,1,2"])
def test_weights_with_a_blank_field_exit_2(capsys, weights):
    code, out, err = _run(capsys, "allocate", "--mode", "custom", "--weights", weights)
    assert code == 2
    assert out == ""
    assert err == "error: weights must be three comma-separated numbers\n"


@pytest.mark.parametrize("position", range(3))
@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_non_finite_custom_weights_exit_2(capsys, token, position):
    weights = ["1", "1", "1"]
    weights[position] = token
    code, out, err = _run(capsys, "allocate", "--mode", "custom",
                          "--weights=" + ",".join(weights))
    assert code == 2
    assert out == ""
    assert "weights" in err


@pytest.mark.parametrize("document,section", [
    ({"tables": []}, "tables"),
    ({"demand": []}, "demand"),
    ({"tables": {"value": [1]}}, "tables.value"),
    ({"tables": {"combo": 5}}, "tables.combo"),
    ({"tables": {"staying": [1, 2]}}, "tables.staying"),
])
def test_malformed_sections_exit_2_naming_the_section(tmp_path, capsys, document, section):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(document))
    code, out, err = _run(capsys, "share", "--scenario", str(path))
    assert code == 2
    assert out == ""
    assert f"{section}: must be a JSON object" in err


def test_a_coefficient_too_large_for_custom_mode_exits_2_at_load(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"tables": {"value": {"text": 1e308, "image": 1e308,
                                                     "video": 1e308}}}))
    code, out, err = _run(capsys, "allocate", "--mode", "custom", "--weights", "1,1,1",
                          "--scenario", str(path))
    assert (code, out) == (2, "")
    assert err == "error: tables.value[text]: 1e+308 is not a whole number within 2**53\n"


@pytest.mark.parametrize("minutes", ["nan", "inf", "-inf"])
def test_calibrate_rejects_non_finite_observation_minutes(capsys, minutes):
    spec = f"edge:best:{minutes}"
    code, out, err = _run(capsys, "calibrate", "--observation", spec,
                          "--observation", "baseline:worst:247")
    assert (code, out) == (2, "")
    assert err == f"error: observation minutes must be finite, got {spec!r}\n"


# Equal best and worst delays of one edge scheme fit 1/macro_rate = 0 exactly, an
# infinite macro rate; the least-squares solve leaves only rounding noise of either sign.
@pytest.mark.parametrize("best,worst,rejected", [
    ("edge:best:0.125", "edge:worst:0.125", True),
    ("edge:best:1", "edge:worst:1", True),
    ("edge:best:9.872", "edge:worst:9.872", True),
    ("edge:best:24.875", "edge:worst:24.875", True),
    ("edge:best:247.467", "edge:worst:247.467", True),
    ("femtocache:best:16.59", "femtocache:worst:16.59", True),
    ("edge:best:9.872", "edge:worst:9.8720001", False),
])
def test_calibrate_rejects_a_rate_fitted_to_rounding_noise(capsys, best, worst, rejected):
    code, out, err = _run(capsys, "calibrate", "--observation", best, "--observation", worst,
                          "--format", "json")
    if rejected:
        assert (code, out, err) == (2, "", "error: calibration produced a non-positive rate\n")
    else:
        assert code == 0
        payload = json.loads(out)
        assert 0 < payload["macro_rate"] < 1e7
        assert payload["reproduced"]["edge_dvs"]["worst_minutes"] == pytest.approx(9.8720001)


# Malformed input that the CLI reads past its parser: an observation, a scenario file's
# top level and rows, and a timeline CSV row (its header and blank rows are skipped).
@pytest.mark.parametrize("argv,files,message", [
    (["calibrate", "--observation", "edge:best"], {},
     "observation must be scheme:case:minutes, got 'edge:best'"),
    (["calibrate", "--observation", "sat:best:1", "--observation", "baseline:worst:1"], {},
     "unknown observation scheme 'sat'"),
    (["share", "--scenario", "s.json"], {"s.json": "[]"},
     "scenario document must be a JSON object"),
    (["allocate", "--scenario", "s.json"],
     {"s.json": '{"locations": [{"name": "a", "dwell_hours": 24}], '
                '"devices": [{"id": "x", "capacity_gb": 1, "location": "b"}]}'},
     "devices[x].location: unknown location 'b'"),
    (["allocate", "--scenario", "s.json"],
     {"s.json": '{"locations": [{"name": "a"}], '
                '"devices": [{"id": "x", "capacity_gb": 1, "location": "a"}]}'},
     "locations[a].dwell_hours: required"),
    (["dvs-size", "--timeline", "t.csv"], {"t.csv": "duration_seconds,level\n\n10\n"},
     "timeline row needs duration and level: ['10']"),
    (["dvs-size", "--timeline", "t.csv"], {"t.csv": "duration_seconds,level\n10,walk\n"},
     "unknown motion level: 'walk'"),
], ids=["observation-fields", "observation-scheme", "document-list", "device-location",
        "dwell-missing", "timeline-row", "timeline-level"])
def test_malformed_input_exits_2_with_only_its_message(tmp_path, monkeypatch, capsys, argv,
                                                      files, message):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code, out, err = _run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_a_negative_seed_exits_2_naming_the_option(capsys):
    code, out, err = _run(capsys, "delay", "--monte-carlo", "--samples", "1000", "--seed", "-1")
    assert (code, out, err) == (2, "", "error: seed must be >= 0\n")


def test_calibrate_plans_each_scheme_once(monkeypatch, capsys):
    calls = []
    original = placement.plan_scenario

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("emrcache") and getattr(module, "plan_scenario", None) is original:
            monkeypatch.setattr(module, "plan_scenario", counting)
    code, _, _ = _run(capsys, "calibrate")
    assert code == 0
    assert len(calls) == 2
    calls.clear()
    code, _, _ = _run(capsys, "calibrate", "--observation", "femtocache:best:16.59",
                      "--observation", "baseline:worst:247.467")
    assert code == 0
    assert len(calls) == 2


@pytest.mark.parametrize("mode", ["omission", "paper", "min-combo", None])
def test_weights_outside_custom_mode_exit_2(capsys, mode):
    argv = ["allocate", "--weights", "9,9,9"] + (["--mode", mode] if mode else [])
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "weights apply only to custom mode" in err


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("flag,value", [
    ("--fast-kbps", "nan"), ("--fast-kbps", "inf"),
    ("--frame-kbps", "nan"), ("--frame-kbps", "inf"),
    ("timeline", "nan,fast"), ("timeline", "inf,fast"),
    ("--frame-kbps", "1e305"), ("--fast-kbps", "1e305"),
])
def test_dvs_size_rejects_non_finite_input(tmp_path, capsys, flag, value, fmt):
    if flag == "timeline":
        path = tmp_path / "timeline.csv"
        path.write_text(f"duration_seconds,level\n{value}\n100,slow\n")
        flag, value = "--timeline", str(path)
    code, out, err = _run(capsys, "dvs-size", "--format", fmt, flag, value)
    assert code == 2
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_dvs_size_rejects_an_overflowing_ratio(tmp_path, capsys, fmt):
    out_dir = tmp_path / "out"
    code, out, err = _run(capsys, "dvs-size", "--frame-kbps", "1e-300", "--fast-kbps", "1e300",
                          "--format", fmt, "--out", str(out_dir))
    assert code == 2
    assert out == ""
    assert "event/frame ratio is not finite" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_dvs_size_ratio_without_frame_volume_is_undefined(tmp_path, capsys, fmt):
    out_dir = tmp_path / "out"
    code, out, _ = _run(capsys, "dvs-size", "--frame-kbps", "0", "--format", fmt,
                        "--out", str(out_dir))
    assert code == 0
    payload = json.loads((out_dir / "dvs_size.json").read_text())
    assert (payload["frame_bytes"], payload["event_bytes"]) == (0, 1e8)
    assert payload["event_to_frame_ratio"] is None
    if fmt == "json":
        assert json.loads(out) == payload
    elif fmt == "csv":
        assert out.splitlines()[1:] == ["frame,0,0.0000", "event,100000000,0.1000"]
    else:
        assert "event/frame ratio: n/a\n" in out


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_a_non_finite_result_exits_2_before_any_output(tmp_path, capsys, fmt):
    out_dir = tmp_path / "out"
    code, out, err = _run(capsys, "calibrate", "--observation", "edge:best:1e306",
                          "--observation", "baseline:worst:1e306",
                          "--format", fmt, "--out", str(out_dir))
    assert code == 2
    assert out == ""
    assert err == "error: reproduced.femtocache.best_minutes is not finite\n"
    assert not out_dir.exists()


def test_a_sweep_past_the_guest_count_limit_exits_2(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"policy": {"host_requirement_gb": 1,
                                           "guest_requirement_gb": 1e-300}}))
    code, out, err = _run(capsys, "sweep", "--scenario", str(path), "--max-gb", "1e10",
                          "--step-gb", "1e5")
    assert code == 2
    assert out == ""
    assert "guest count at" in err


def test_json_text_refuses_non_finite_numbers():
    with pytest.raises(ValueError):
        json_text({"minutes": math.nan})


def _src_env() -> dict:
    """An environment in which a child interpreter imports the `emrcache` this one did:
    `src/` in a checkout, or an installed copy."""
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(emrcache.__file__)))


def test_importing_the_package_loads_no_submodule():
    probe = ("import sys, emrcache; "
             "print(sorted(m for m in sys.modules if m.startswith('emrcache.')), emrcache.__version__)")
    result = subprocess.run([sys.executable, "-c", probe], env=_src_env(),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["[]", "0.1.0"]


# Runs one CLI command in a fresh interpreter and prints which of the costly stdlib
# modules were loaded before `import emrcache`; whether numpy was loaded after
# `import emrcache`, after `import emrcache.cli`, and at exit; then which of the costly
# modules `import emrcache.cli` loaded, and which were loaded by exit. Each list is
# comma-joined, or "-" for none.
_NUMPY_PROBE = """
import contextlib, io, sys
costly = {"dataclasses", "inspect", "typing"}
at_start = sorted(costly & set(sys.modules))
import emrcache
after_package = "numpy" in sys.modules
import emrcache.cli
after_cli = "numpy" in sys.modules
loaded_by_cli = sorted(costly & set(sys.modules))
with contextlib.redirect_stdout(io.StringIO()):
    code = emrcache.cli.main(sys.argv[1:])
print(",".join(at_start) or "-", code, after_package, after_cli, "numpy" in sys.modules,
      ",".join(loaded_by_cli) or "-", ",".join(sorted(costly & set(sys.modules))) or "-")
"""


@pytest.mark.parametrize("argv,loads_numpy", [
    (["allocate"], False),
    (["compare"], False),
    (["share"], False),
    (["sweep"], False),
    (["dvs-size"], False),
    (["report"], False),
    (["delay", "--monte-carlo", "--samples", "1000"], True),
    (["calibrate"], True),
])
def test_numpy_is_loaded_only_by_monte_carlo_and_calibrate(argv, loads_numpy):
    # A site file may import any module at start-up and so hide what the CLI loads. -S
    # skips site, so numpy's directory goes on the path beside the package's.
    numpy_dir = os.path.dirname(os.path.dirname(importlib.util.find_spec("numpy").origin))
    env = _src_env()
    env["PYTHONPATH"] += os.pathsep + numpy_dir
    result = subprocess.run([sys.executable, "-S", "-c", _NUMPY_PROBE, *argv], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    fields = result.stdout.split()
    assert fields[:6] == ["-", "0", "False", "False", str(loads_numpy), "-"]
    # numpy itself imports `inspect`; without it no command loads any of the three.
    assert loads_numpy or fields[6] == "-"


# The imperative parser that the declarative command table replaced, kept as the
# oracle that the table builds the same parser.
def _reference_parser() -> argparse.ArgumentParser:
    def add_common(sub, default_format="table"):
        sub.add_argument("--scenario", default="paper",
                         help="scenario JSON path, or 'paper' for the built-in scenario")
        sub.add_argument("--out", default=None, help="directory for CSV and JSON artifacts")
        sub.add_argument("--format", choices=("table", "csv", "json"), default=default_format)

    def add_mode(sub):
        sub.add_argument("--mode", choices=[m.value for m in placement.PlacementMode],
                         default=None,
                         help="placement mode (default: paper for the built-in scenario, "
                              "omission otherwise)")
        sub.add_argument("--weights", default=None,
                         help="custom mode weights as 'staying,value,combo'")

    parser = argparse.ArgumentParser(
        prog="emrcache",
        description="Edge caching simulator and optimizer for tiered medical record sets")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("allocate", help="optimize the per-device cached subsets")
    add_common(p)
    add_mode(p)
    p.set_defaults(handler=cli.cmd_allocate)

    p = commands.add_parser("delay", help="expected-delay report for one scheme")
    add_common(p)
    add_mode(p)
    p.add_argument("--scheme", choices=("edge", "femtocache", "baseline"), default="edge")
    p.add_argument("--case", choices=["best", "worst"], default=None)
    p.add_argument("--monte-carlo", action="store_true",
                   help="add a seeded sampling estimate")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--partitions", type=int, default=1)
    p.set_defaults(handler=cli.cmd_delay)

    p = commands.add_parser("compare", help="all schemes plus the improvement matrix")
    add_common(p)
    add_mode(p)
    p.set_defaults(handler=cli.cmd_compare)

    p = commands.add_parser("share", help="patients served per device and in total")
    add_common(p)
    p.add_argument("--count-hosts", action="store_true",
                   help="also count owners of devices too small to share")
    p.set_defaults(handler=cli.cmd_share)

    p = commands.add_parser("sweep", help="patients served across a capacity grid")
    add_common(p, default_format="csv")
    p.add_argument("--min-gb", type=float, default=None,
                   help="grid start (default: the host requirement)")
    p.add_argument("--max-gb", type=float, default=None,
                   help="grid end (default: 600, or the start when that is larger)")
    p.add_argument("--step-gb", type=float, default=1.0)
    p.set_defaults(handler=cli.cmd_sweep)

    p = commands.add_parser("dvs-size", help="frame versus event camera recording volume")
    add_common(p)
    p.add_argument("--timeline", default=None,
                   help="CSV of duration_seconds,level rows (default: scenario timeline)")
    p.add_argument("--frame-kbps", type=float, default=512.0)
    p.add_argument("--fast-kbps", type=float, default=256.0)
    p.add_argument("--slow-kbps", type=float, default=64.0)
    p.set_defaults(handler=cli.cmd_dvs_size)

    p = commands.add_parser("calibrate", help="recover link rates from reported delays")
    add_common(p)
    add_mode(p)
    p.add_argument("--observation", action="append", default=None,
                   metavar="SCHEME:CASE:MINUTES",
                   help="reported delay, e.g. edge:best:9.872 (repeatable)")
    p.set_defaults(handler=cli.cmd_calibrate)

    p = commands.add_parser("report", help="full rollup: allocation, delays, sharing")
    add_common(p)
    add_mode(p)
    p.set_defaults(handler=cli.cmd_report)

    return parser


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    return next(action.choices for action in parser._actions if action.dest == "command")


def test_the_parser_prints_the_reference_help(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    built, reference = cli.build_parser(), _reference_parser()
    assert built.format_help() == reference.format_help()
    built_subs, reference_subs = _subparsers(built), _subparsers(reference)
    assert list(built_subs) == list(reference_subs)
    assert len(built_subs) == 8
    for name, sub in reference_subs.items():
        assert built_subs[name].format_help() == sub.format_help(), name


_OPTION_ARGVS = [
    [name] for name in ("allocate", "delay", "compare", "share", "sweep", "dvs-size",
                        "calibrate", "report")
] + [
    ["allocate", "--scenario", "s.json", "--out", "o", "--format", "json", "--mode", "custom",
     "--weights", "1,2,3"],
    ["delay", "--format", "csv", "--mode", "min-combo", "--scheme", "femtocache",
     "--case", "worst", "--monte-carlo", "--samples", "1000", "--seed", "7",
     "--partitions", "2"],
    ["compare", "--mode=omission", "--format=table"],
    ["share", "--count-hosts", "--out", "o"],
    ["sweep", "--min-gb", "1.5", "--max-gb", "9", "--step-gb", "0.5", "--format", "table"],
    ["dvs-size", "--timeline", "t.csv", "--frame-kbps", "32", "--fast-kbps", "9",
     "--slow-kbps", "0.5"],
    ["calibrate", "--mode", "paper", "--observation", "edge:best:9.872",
     "--observation", "baseline:worst:247.467"],
    ["report", "--scenario", "paper", "--weights", "0.5,1,1", "--mode", "custom"],
]


@pytest.mark.parametrize("argv", _OPTION_ARGVS, ids=" ".join)
def test_every_argv_parses_as_the_reference_parser_does(argv):
    def parsed(parser):
        namespace = vars(parser.parse_args(argv))
        return dict(namespace, handler=namespace["handler"].__name__)

    assert parsed(cli.build_parser()) == parsed(_reference_parser())
