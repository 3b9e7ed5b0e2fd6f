"""Who computes each derived result, and how often.

The scenario owns what no placement mode changes (its digest, the two reference
schemes' reports and the sharing summary); a RunReport owns the rest, computed on
first use.
Calls are counted by replacing a function in every emrcache module that binds it.
"""

import argparse
import json
import sys

import pytest

from emrcache import delay, placement, report, scenario as scenario_module
from emrcache import sharing as sharing_module
from emrcache.cli import cmd_share, main
from emrcache.delay import LinkRates
from emrcache.placement import PlacementMode
from emrcache.records import replace
from emrcache.report import build_report, report_to_dict
from emrcache.scenario import load_scenario, reference_scenario, scenario_to_dict


def _count_calls(monkeypatch, module, name) -> list:
    """The argument tuples of every later call to `module.name`, from any emrcache module."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, bound in list(sys.modules.items()):
        if module_name.startswith("emrcache") and getattr(bound, name, None) is original:
            monkeypatch.setattr(bound, name, counting)
    return calls


@pytest.fixture
def scenario_path(tmp_path):
    """The built-in scenario as a file: each load makes a new object, unlike 'paper',
    which is one object shared by the whole process."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_dict(reference_scenario())))
    return str(path)


def test_each_result_is_computed_once_per_scenario(monkeypatch, scenario_path):
    scenario = load_scenario(scenario_path)
    digests = _count_calls(monkeypatch, scenario_module, "scenario_digest")
    conventional = _count_calls(monkeypatch, delay, "femtocache_plan")
    plans = _count_calls(monkeypatch, placement, "plan_scenario")
    sharing = _count_calls(monkeypatch, sharing_module, "sharing_summary")
    for mode, weights in ((PlacementMode.OMISSION, None), (PlacementMode.MIN_COMBO, None),
                          (PlacementMode.CUSTOM, (0.5, 2.0, 3.0))):
        report_to_dict(build_report(scenario, mode, weights))
    # Three edge plans, one conventional plan, one digest, one sharing summary.
    assert (len(digests), len(conventional), len(plans), len(sharing)) == (1, 1, 4, 1)

    # A copy with other rates starts with no results of its own.
    rates = scenario.rates
    faster = replace(scenario, rates=LinkRates(2 * rates.edge_rate, 2 * rates.macro_rate))
    for name in ("femtocache_report", "baseline_report"):
        fresh, kept = getattr(faster, name), getattr(scenario, name)
        assert fresh.best_minutes == pytest.approx(kept.best_minutes / 2)
        assert fresh.worst_minutes == pytest.approx(kept.worst_minutes / 2)
    assert faster.digest != scenario.digest
    assert (len(digests), len(conventional)) == (2, 2)


@pytest.mark.parametrize("argv,expected", [
    (["allocate"], 1),
    (["delay", "--scheme", "edge"], 1),
    (["delay", "--scheme", "femtocache"], 2),
    (["delay", "--scheme", "baseline"], 1),
    (["compare"], 2),
    (["report"], 2),
    (["calibrate"], 2),
    (["share"], 0),
    (["sweep"], 0),
    (["dvs-size"], 0),
], ids=lambda value: " ".join(value) if isinstance(value, list) else str(value))
def test_each_subcommand_plans_only_what_it_prints(monkeypatch, capsys, scenario_path,
                                                   argv, expected):
    plans = _count_calls(monkeypatch, placement, "plan_scenario")
    assert main(argv + ["--scenario", scenario_path, "--format", "json"]) == 0
    capsys.readouterr()
    assert len(plans) == expected


@pytest.mark.parametrize("command,computed", [("compare", 0), ("report", 1)])
def test_compare_computes_no_sharing_and_no_divergences(monkeypatch, capsys, scenario_path,
                                                        command, computed):
    sharing = _count_calls(monkeypatch, sharing_module, "sharing_summary")
    divergences = _count_calls(monkeypatch, report, "plan_divergences")
    assert main([command, "--scenario", scenario_path, "--format", "json"]) == 0
    capsys.readouterr()
    assert (len(sharing), len(divergences)) == (computed, computed)


def test_payloads_hand_out_copies_of_the_cached_sharing_summary():
    """Editing the sharing section of one payload, rows included, changes no later payload,
    even on the built-in scenario that the whole process shares."""
    paper = load_scenario("paper")
    expected = json.loads(json.dumps(paper.sharing))
    assert expected["total"] == 147
    reported = report_to_dict(build_report(paper, PlacementMode.OMISSION))["sharing"]
    shared = cmd_share(argparse.Namespace(count_hosts=False), paper).payload
    for section in (reported, shared):
        section["total"] = 0
        section["per_device"][0]["patients"] = 0
    later = report_to_dict(build_report(load_scenario("paper"), PlacementMode.REFERENCE))
    assert later["sharing"] == expected
