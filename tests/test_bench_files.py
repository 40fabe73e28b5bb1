"""Every committed BENCH_*.json before/after record speaks BENCHMARK.json's terms.

A record holds the alternating parent/change runs of ``benchmark/run.py``
(``runs``: workload, seed, side, which side ran first, metrics), per-side
medians and quartiles (``summary[workload][metric][side]``), the claim, and
the machine it ran on.  Only workloads and end-to-end metrics that
BENCHMARK.json declares may appear, with its units, and every summarized
(workload, metric) carries both sides.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {w["name"] for w in spec["workloads"]}, {m["name"]: m["unit"] for m in spec["end_to_end"]}


def test_a_record_exists():
    assert BENCH_FILES, "no BENCH_*.json at the repository root"


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_record_names_declared_workloads_metrics_and_both_sides(path):
    record = json.loads(path.read_text())
    workloads, units = _declared()
    assert {"runs", "summary", "claim", "machine"} <= record.keys()

    sides_seen = {}
    for run in record["runs"]:
        assert run["workload"] in workloads, run["workload"]
        assert run["side"] in SIDES and run["first"] in SIDES
        assert isinstance(run["seed"], int)
        for name, metric in run["metrics"].items():
            assert metric["unit"] == units[name], (name, metric["unit"])
            assert isinstance(metric["value"], (int, float))
        sides_seen.setdefault(run["workload"], set()).add(run["side"])
    assert record["runs"] and all(s == set(SIDES) for s in sides_seen.values()), sides_seen

    assert record["summary"].keys() <= workloads
    for workload, metrics in record["summary"].items():
        assert sides_seen.get(workload) == set(SIDES), workload
        for name, stats in metrics.items():
            assert stats["unit"] == units[name], (workload, name)
            for side in SIDES:
                assert stats[side]["q1"] <= stats[side]["median"] <= stats[side]["q3"], (workload, name, side)

    claim = record["claim"]
    assert claim["workload"] in record["summary"]
    assert claim["metric"] in record["summary"][claim["workload"]]
