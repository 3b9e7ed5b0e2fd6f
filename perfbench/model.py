"""Seeded scenario corpus and an independent model of what emrcache computes.

Nothing here imports emrcache. Scenarios are plain JSON documents in the
program's scenario-file format, and every expected figure (plans, delays,
improvements, sharing counts, Monte Carlo moments) is recomputed from the
document by brute force and the formulas the paper states, so the
benchmark checks the program against something other than itself.
"""

from __future__ import annotations

import itertools
import json
import math
import random

CLASSES = ("text", "image", "video")
SUBSETS = tuple(frozenset(c) for k in range(4) for c in itertools.combinations(CLASSES, k))
SIZE_EPS = 1e-9

DEFAULT_RATES = {"edge_rate": 0.146484375, "macro_rate": 0.01953125}
DEFAULT_VALUE = {"image": 1, "text": 2, "video": 3}
DEFAULT_POLICY = {"host_requirement_gb": 106.66, "guest_requirement_gb": 3.0}
SCHEMES = ("edge_dvs", "femtocache", "baseline")

# Grids around the paper's figures (3 / 87 / 200 / 16.66 GB records, 10-500 GB devices).
TEXT_GB = (1.5, 3.0, 4.5)
IMAGE_GB = (43.5, 87.0, 130.5)
VIDEO_CONVENTIONAL_GB = (100.0, 200.0, 300.0)
VIDEO_DVS_GB = (8.33, 16.66, 25.0)
CAPACITY_GB = (0.0, 3.0, 10.0, 19.66, 50.0, 90.0, 100.0, 106.66, 150.0, 250.0, 500.0)
HOST_GB = (90.0, 106.66, 120.0)
GUEST_GB = (3.0, 4.5, 16.66)
# Pinned combination coefficients are odd, so they never tie the even size ranks.
PINNED_COMBO = (1, 3, 5, 7, 9, 11, 13, 15)
CUSTOM_WEIGHTS = (0.0, 0.5, 1.0, 2.0, 3.0)  # dyadic, so weighted scores are exact

# The paper's built-in scenario and its published figures.
PAPER_DOC = {
    "records": {"text_gb": 3.0, "image_gb": 87.0, "video_conventional_gb": 200.0,
                "video_dvs_gb": 16.66},
    "video_mode": "dvs",
    "locations": [{"name": n, "dwell_hours": h} for n, h in
                  (("home", 10), ("work", 8), ("family", 3), ("friend", 2), ("other", 1))],
    "devices": [{"id": i, "capacity_gb": c, "location": n} for i, c, n in
                (("EA", 100.0, "home"), ("EB", 500.0, "work"), ("EC", 150.0, "family"),
                 ("ED", 50.0, "friend"), ("EE", 10.0, "other"))],
    "rates": dict(DEFAULT_RATES),
    "demand": {"home": ["text", "image"], "work": list(CLASSES), "family": list(CLASSES),
               "friend": ["text"], "other": ["text"]},
    "policy": dict(DEFAULT_POLICY),
}
PAPER_ALLOCATION = {"EA": frozenset({"text", "image"}), "EB": frozenset(CLASSES),
                    "EC": frozenset(CLASSES), "ED": frozenset({"text"}),
                    "EE": frozenset({"text"})}
PAPER_CACHED_GB = {"EA": 90.0, "EB": 106.66, "EC": 106.66, "ED": 3.0, "EE": 3.0}
# (scheme, case) -> (minutes, tolerance) as published.
PAPER_DELAYS = {("edge_dvs", "best"): (9.872, 0.01), ("edge_dvs", "worst"): (26.855, 0.02),
                ("femtocache", "best"): (16.59, 0.05), ("femtocache", "worst"): (139.652, 0.05),
                ("baseline", "best"): (145.73, 0.05), ("baseline", "worst"): (247.467, 0.01)}
PAPER_IMPROVEMENTS = {("baseline", "worst"): 89.15, ("baseline", "best"): 93.23}
PAPER_PATIENTS = {"EB": 132, "EC": 15, "total": 147}
PAPER_FRAME_BYTES = 2.7648e9
PAPER_EVENT_BYTES = 1e8


class CheckError(AssertionError):
    """An output of the program disagrees with the independent model."""


def expect(condition, message):
    if not condition:
        raise CheckError(message)


def close(a, b, rel=1e-9, abs_tol=1e-9):
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def label(subset) -> str:
    return "+".join(c for c in CLASSES if c in subset) or "(none)"


# ---------------------------------------------------------------- corpus

def random_doc(rng: random.Random, n_locations: int) -> dict:
    """One valid scenario document with `n_locations` locations and devices."""
    dwell = [1] * n_locations
    for _ in range(24 - n_locations):
        dwell[rng.randrange(n_locations)] += 1
    names = [f"L{i}" for i in range(n_locations)]
    doc = {
        "records": {"text_gb": rng.choice(TEXT_GB), "image_gb": rng.choice(IMAGE_GB),
                    "video_conventional_gb": rng.choice(VIDEO_CONVENTIONAL_GB),
                    "video_dvs_gb": rng.choice(VIDEO_DVS_GB)},
        "video_mode": rng.choice(("dvs", "conventional")),
        "locations": [{"name": n, "dwell_hours": h} for n, h in zip(names, dwell)],
        "devices": [{"id": f"D{i}", "capacity_gb": rng.choice(CAPACITY_GB), "location": n}
                    for i, n in enumerate(names)],
        "demand": {n: sorted(rng.choice([s for s in SUBSETS if s])) for n in names},
        "policy": {"host_requirement_gb": rng.choice(HOST_GB),
                   "guest_requirement_gb": rng.choice(GUEST_GB)},
    }
    tables = {}
    if rng.random() < 0.5:
        tables["value"] = {c: rng.randint(1, 5) for c in CLASSES}
    if rng.random() < 0.4:
        pinned = rng.sample([s for s in SUBSETS if s], rng.randint(1, 4))
        values = rng.sample(PINNED_COMBO, len(pinned))
        tables["combo"] = {label(s): v for s, v in zip(pinned, values)}
    if tables:
        doc["tables"] = tables
    return doc


def corpus_doc(rng: random.Random, n_locations: int, need_edge_traffic=False) -> dict:
    """A random document on which every subcommand succeeds.

    Improvements divide by the femtocache delay, so some device must cache
    something under the conventional plan; calibration needs edge traffic
    too when `need_edge_traffic` is set. Documents that miss are redrawn.
    """
    while True:
        doc = random_doc(rng, n_locations)
        femto = plan(doc, "min-combo", video_mode="conventional")
        edge = plan(doc, "omission")
        if sum(p * e["cached_gb"] for p, e in zip(probabilities(doc), femto)) <= 0:
            continue
        if need_edge_traffic and sum(e["cached_gb"] for e in edge) <= 0:
            continue
        return doc


def write_doc(doc: dict, path: str) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
    return path


def custom_weights(rng: random.Random) -> tuple:
    return tuple(rng.choice(CUSTOM_WEIGHTS) for _ in range(3))


# ---------------------------------------------------------------- model

def probabilities(doc) -> list:
    return [loc["dwell_hours"] / 24.0 for loc in doc["locations"]]


def class_gb(doc, cls, video_mode) -> float:
    r = doc["records"]
    if cls == "text":
        return r["text_gb"]
    if cls == "image":
        return r["image_gb"]
    return r["video_dvs_gb"] if video_mode == "dvs" else r["video_conventional_gb"]


def size(doc, subset, video_mode) -> float:
    return sum(class_gb(doc, c, video_mode) for c in CLASSES if c in subset)


def combo(doc, subset, video_mode) -> int:
    pinned = doc.get("tables", {}).get("combo") or {}
    if label(subset) in pinned:
        return pinned[label(subset)]
    if not subset:
        return 16
    # Rank 2, 4, ... by size descending, then fewer classes, then class order.
    ranked = sorted((s for s in SUBSETS if s), key=lambda s: (
        -size(doc, s, video_mode), len(s), tuple(sorted(CLASSES.index(c) for c in s))))
    return 2 * (ranked.index(subset) + 1)


def best_subset(doc, device, mode, weights, video_mode) -> frozenset:
    """Brute force over the 8 subsets; (score, combo) keys never tie here."""
    hours = next(loc["dwell_hours"] for loc in doc["locations"]
                 if loc["name"] == device["location"])
    value = doc.get("tables", {}).get("value") or DEFAULT_VALUE
    keys = {}
    for subset in SUBSETS:
        if size(doc, subset, video_mode) > device["capacity_gb"] + SIZE_EPS:
            continue
        left_out = [c for c in CLASSES if c not in subset]
        stay = (25 - hours) * len(left_out)
        val = sum(value[c] for c in left_out)
        rank = combo(doc, subset, video_mode)
        if mode == "omission":
            score = stay + val + rank
        elif mode == "min-combo":
            score = rank
        else:
            score = weights[0] * stay + weights[1] * val + weights[2] * rank
        keys[subset] = (score, rank)
    best = min(keys.values())
    winners = [s for s, k in keys.items() if k == best]
    expect(len(winners) == 1, f"corpus scenario has tied placements {winners}")
    return winners[0]


def plan(doc, mode, weights=None, video_mode=None) -> list:
    """Per-device entries in device order, as the program's plan payload."""
    video_mode = video_mode or doc.get("video_mode", "dvs")
    full = size(doc, frozenset(CLASSES), video_mode)
    entries = []
    for device in doc["devices"]:
        if mode == "paper":
            subset = PAPER_ALLOCATION[device["id"]]
        else:
            subset = best_subset(doc, device, mode, weights, video_mode)
        cached = size(doc, subset, video_mode)
        entries.append({"device": device["id"], "location": device["location"],
                        "subset": label(subset), "cached_gb": cached,
                        "residual_gb": full - cached})
    return entries


def by_location(doc, entries) -> list:
    at = {e["location"]: e for e in entries}
    return [at[loc["name"]] for loc in doc["locations"]]


def plan_terms(doc, entries) -> list:
    """(probability, best minutes, worst minutes) per location for a plan."""
    rates = doc.get("rates", DEFAULT_RATES)
    out = []
    for p, e in zip(probabilities(doc), by_location(doc, entries)):
        best = e["cached_gb"] / rates["edge_rate"] / 60.0
        out.append((p, best, best + e["residual_gb"] / rates["macro_rate"] / 60.0))
    return out


def baseline_terms(doc) -> list:
    rates = doc.get("rates", DEFAULT_RATES)
    worst = size(doc, frozenset(CLASSES), "conventional") / rates["macro_rate"] / 60.0
    return [(p, size(doc, frozenset(doc["demand"][loc["name"]]), "conventional")
             / rates["macro_rate"] / 60.0, worst)
            for p, loc in zip(probabilities(doc), doc["locations"])]


def weighted(terms) -> dict:
    return {"best": sum(p * b for p, b, _ in terms), "worst": sum(p * w for p, _, w in terms)}


def schemes(doc, mode, weights=None) -> dict:
    """Expected minutes per scheme and case, recomputed from sizes and rates."""
    return {"edge_dvs": weighted(plan_terms(doc, plan(doc, mode, weights))),
            "femtocache": weighted(plan_terms(
                doc, plan(doc, "min-combo", video_mode="conventional"))),
            "baseline": weighted(baseline_terms(doc))}


def improvements(delays) -> dict:
    return {(ref, case): (delays[ref][case] - delays["edge_dvs"][case])
            / delays[ref][case] * 100.0
            for ref in ("femtocache", "baseline") for case in ("best", "worst")}


def policy(doc) -> dict:
    return doc.get("policy", DEFAULT_POLICY)


def patients(capacity, pol) -> int:
    """Host plus one guest per whole leftover slice; zero below the host size."""
    if capacity + SIZE_EPS < pol["host_requirement_gb"]:
        return 0
    return 1 + math.floor((capacity - pol["host_requirement_gb"])
                          / pol["guest_requirement_gb"] + SIZE_EPS)


def sharing(doc) -> dict:
    pol = policy(doc)
    per = {d["id"]: patients(d["capacity_gb"], pol) for d in doc["devices"]}
    return {"per_device": per, "total": sum(per.values()),
            "total_with_hosts": sum(max(n, 1) for n in per.values())}


def moments(terms, case) -> tuple:
    """Mean and variance of one draw of the Monte Carlo estimator."""
    column = 1 if case == "best" else 2
    mean = sum(t[0] * t[column] for t in terms)
    return mean, sum(t[0] * (t[column] - mean) ** 2 for t in terms)


def check_monte_carlo(minutes, std_error, samples, terms, case, where):
    """Estimate within 5 standard errors; standard error within 5% of sqrt(Var/n).

    Both allow rounding on the scale of the mean: when every location's term
    is the same, the variance is 0 and the estimate may still differ from the
    mean in its last digit.
    """
    mean, var = moments(terms, case)
    sigma = math.sqrt(var / samples)
    rounding = 1e-9 * abs(mean)
    expect(abs(minutes - mean) <= 5 * std_error + rounding,
           f"{where}: estimate {minutes} is over 5 SE ({std_error}) from {mean}")
    expect(abs(std_error - sigma) <= 0.05 * sigma + rounding,
           f"{where}: standard error {std_error} is not within 5% of {sigma}")


# ---------------------------------------------------------------- payload checks

def check_plan(doc, payload_plan, mode, weights, where):
    expected = plan(doc, mode, weights)
    got = payload_plan["entries"]
    expect(len(got) == len(expected), f"{where}: {len(got)} plan entries")
    capacity = {d["id"]: d["capacity_gb"] for d in doc["devices"]}
    full = size(doc, frozenset(CLASSES), doc.get("video_mode", "dvs"))
    for g, e in zip(got, expected):
        expect(g["device"] == e["device"] and g["subset"] == e["subset"],
               f"{where}: {g['device']} caches {g['subset']}, brute force says {e['subset']}")
        expect(close(g["cached_gb"], e["cached_gb"]), f"{where}: {g['device']} cached_gb")
        expect(close(g["cached_gb"] + g["residual_gb"], full),
               f"{where}: {g['device']} cached + residual != full record size")
        expect(g["cached_gb"] <= capacity[g["device"]] + SIZE_EPS,
               f"{where}: {g['device']} exceeds its capacity")
    if doc is PAPER_DOC and mode == "paper":
        for g in got:
            expect(close(g["cached_gb"], PAPER_CACHED_GB[g["device"]]),
                   f"{where}: {g['device']} is not the published allocation")


def check_schemes(doc, payload_schemes, mode, weights, where):
    expected = schemes(doc, mode, weights)
    for scheme in SCHEMES:
        for case in ("best", "worst"):
            got = payload_schemes[scheme][f"{case}_minutes"]
            expect(close(got, expected[scheme][case]),
                   f"{where}: {scheme} {case} {got} != {expected[scheme][case]}")
            if doc is PAPER_DOC and (mode == "paper" or scheme != "edge_dvs"):
                target, tol = PAPER_DELAYS[(scheme, case)]
                expect(abs(got - target) <= tol, f"{where}: {scheme} {case} != paper {target}")
    return expected


def check_improvements(doc, rows, expected_schemes, mode, where):
    expected = improvements(expected_schemes)
    expect(len(rows) == 4, f"{where}: {len(rows)} improvement rows")
    for row in rows:
        key = (row["reference_scheme"], row["case"])
        expect(close(row["pct"], expected[key]), f"{where}: improvement {key}")
        if doc is PAPER_DOC and mode == "paper" and key in PAPER_IMPROVEMENTS:
            expect(abs(row["pct"] - PAPER_IMPROVEMENTS[key]) <= 0.05,
                   f"{where}: improvement {key} != paper {PAPER_IMPROVEMENTS[key]}")


def check_sharing(doc, per_device, total, total_with_hosts, where):
    expected = sharing(doc)
    got = {row["device"]: row["patients"] for row in per_device}
    expect(got == expected["per_device"], f"{where}: patients per device {got}")
    expect(total == expected["total"], f"{where}: total patients {total}")
    expect(total_with_hosts == expected["total_with_hosts"],
           f"{where}: total with hosts {total_with_hosts}")
    if doc is PAPER_DOC:
        expect((got["EB"], got["EC"], total) == (PAPER_PATIENTS["EB"], PAPER_PATIENTS["EC"],
                                                 PAPER_PATIENTS["total"]),
               f"{where}: patient counts are not the paper's 132/15/147")


def check_report(doc, payload, mode, weights, where):
    """A full report payload: plan, schemes, improvements, sharing, divergences."""
    expect(payload["mode"] == mode, f"{where}: mode {payload['mode']}")
    expect(len(payload["digest"]) == 64, f"{where}: digest {payload['digest']!r}")
    check_plan(doc, payload["plan"], mode, weights, where)
    delays = check_schemes(doc, payload["schemes"], mode, weights, where)
    check_improvements(doc, payload["improvements"], delays, mode, where)
    sh = payload["sharing"]
    check_sharing(doc, sh["per_device"], sh["total"], sh["total_with_hosts"], where)
    if doc is PAPER_DOC and mode != "paper":
        expected = [{"device": e["device"], "published": label(PAPER_ALLOCATION[e["device"]]),
                     "chosen": e["subset"]} for e in plan(doc, mode, weights)
                    if e["subset"] != label(PAPER_ALLOCATION[e["device"]])]
        expect(payload["divergences"] == expected, f"{where}: divergences")
    else:
        expect(payload["divergences"] == [], f"{where}: unexpected divergences")
