"""Fold benchmark result records into one point of the perf trajectory.

    python3 bench/trajectory.py OUT.json [--label TEXT] [RESULT.json ...]

Reads the records ``run.py`` writes under ``.bench_out/results`` (all of them
when none are named), groups them by workload and by traced or plain run,
and writes, per workload and metric, the median, quartiles, sample count and
every value, plus the machine facts of the first record.  Records of more
than one source fingerprint are refused: a trajectory point is one version
of the code.  Count metrics that differ between traced runs are listed under
``count_mismatches``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parent.parent / ".bench_out" / "results"


def fold(records: list) -> dict:
    prints = {r["facts"]["source_fingerprint"] for r in records}
    if len(prints) != 1:
        raise ValueError(f"records from {len(prints)} source fingerprints: {sorted(prints)}")
    workloads: dict = {}
    mismatches = []
    for r in records:
        kind = "per_layer" if r["facts"]["trace"] else "end_to_end"
        entry = workloads.setdefault(r["facts"]["workload"], {}).setdefault(
            kind, {"runs": 0, "seeds": [], "all_correct": True, "metrics": {}})
        entry["runs"] += 1
        entry["seeds"].append(r["facts"]["seed"])
        entry["all_correct"] &= r["correct"]
        for name, m in r["metrics"].items():
            entry["metrics"].setdefault(name, {"unit": m["unit"], "values": []})["values"].append(
                m["value"])
    for name, kinds in workloads.items():
        for kind, entry in kinds.items():
            for metric, m in entry["metrics"].items():
                values = m["values"]
                m["median"] = statistics.median(values)
                if len(values) >= 2:
                    q1, _, q3 = statistics.quantiles(values, n=4)
                    m["q1"], m["q3"] = q1, q3
                if kind == "per_layer" and m["unit"] in ("count", "B") and len(set(values)) > 1:
                    mismatches.append(f"{name} {metric}: {sorted(set(values))}")
    per_run = ("workload", "seed", "trace", "seconds", "utc", "scenario_seeds",
               "host_reference_s")
    facts = {k: v for k, v in records[0]["facts"].items() if k not in per_run}
    return {"facts": facts, "workloads": workloads,
            "count_mismatches": mismatches}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out")
    parser.add_argument("--label", default="")
    parser.add_argument("records", nargs="*")
    args = parser.parse_args(argv)
    paths = [Path(p) for p in args.records] or sorted(RESULTS.glob("*.json"))
    try:
        point = fold([json.loads(p.read_text()) for p in paths])
    except ValueError as exc:
        print(f"cannot fold: {exc}", file=sys.stderr)
        return 2
    point["label"] = args.label
    Path(args.out).write_text(json.dumps(point, indent=1) + "\n")
    for line in point["count_mismatches"]:
        print(f"COUNT MISMATCH {line}")
    return 1 if point["count_mismatches"] else 0


if __name__ == "__main__":
    sys.exit(main())
