"""Compare two sets of benchmark results: a base (the parent) and a change.

    python3 bench/run.py --compare BASE CHANGE

BASE and CHANGE are directories of result files written by ``run.py``.
For each workload and end-to-end metric this prints both medians and
quartiles, the ratio of the change's median to the base's, and a verdict
by the rule of the benchmark's README:

- ``improved``: the change is better in at least nine tenths of the runs
  paired by seed (ties count for neither side), and the medians differ by
  more than the base's own spread (the distance between its quartiles);
- ``no worse within bound``: the change's median is not worse than the
  base's by more than the metric's bound in BENCHMARK.json;
- ``worse``: it is worse by more than the bound;
- ``unresolved``: the base's spread, as a share of its median, is wider
  than the bound, unless every change run is better than every base run.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(where: str) -> dict:
    """{(workload, metric): {seed: value}} over the untraced results."""
    values: dict = defaultdict(dict)
    for f in sorted(Path(where).glob("*-trace0.json")):
        result = json.loads(f.read_text())
        for name, m in result["metrics"].items():
            values[(result["workload"], name)][result["seed"]] = m["value"]
    return values


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(base: dict, change: dict, better: str, bound: float) -> tuple[str, float]:
    sign = 1.0 if better == "lower" else -1.0  # sign * (change - base) < 0 is better
    b = list(base.values())
    c = list(change.values())
    b1, bm, b3 = quartiles(b)
    _, cm, _ = quartiles(c)
    ratio = cm / bm if bm else float("inf")
    seeds = sorted(set(base) & set(change))
    wins = sum(sign * (change[s] - base[s]) < 0 for s in seeds)
    every_better = all(sign * (x - y) < 0 for x in c for y in b)
    if seeds and wins >= 0.9 * len(seeds) and sign * (cm - bm) < 0 and abs(cm - bm) > b3 - b1:
        return "improved", ratio
    if bm and (b3 - b1) / abs(bm) > bound and not every_better:
        return "unresolved", ratio
    if sign * (cm - bm) > bound * abs(bm):
        return "worse", ratio
    return "no worse within bound", ratio


def summarize(where: str) -> dict:
    """One point of the trajectory: for each workload, the quartiles of every
    metric over the result files in `where`, the fail counts, and the
    provenance of the runs."""
    results = [json.loads(f.read_text()) for f in sorted(Path(where).glob("*-trace[01].json"))]
    if not results:
        raise SystemExit(f"no result files in {where}")
    keep = ("git_sha", "src_sha256", "src_binomci_lines", "cpu_count", "machine", "python",
            "numpy", "scipy", "seconds")
    point = {"provenance": {k: results[0]["provenance"][k] for k in keep}, "workloads": {}}
    for r in results:
        w = point["workloads"].setdefault(r["workload"], {"trace0": {}, "trace1": {}})
        side = w[f"trace{r['trace']}"]
        side.setdefault("seeds", []).append(r["seed"])
        side["attempted"] = side.get("attempted", 0) + r["attempted"]
        side["failed"] = side.get("failed", 0) + r["failed"]
        side.setdefault("repeated_key_share", []).append(r["provenance"]["repeated_key_share"])
        for name, m in r["metrics"].items():
            side.setdefault("metrics", {}).setdefault(name, {"unit": m["unit"], "values": []})[
                "values"].append(m["value"])
    for w in point["workloads"].values():
        for side in w.values():
            if not side:
                continue
            side["fail_ratio"] = side["failed"] / side["attempted"]
            side["repeated_key_share"] = statistics.median(side["repeated_key_share"])
            for m in side["metrics"].values():
                q1, med, q3 = quartiles(m["values"])
                m.update(q1=q1, median=med, q3=q3, spread=(q3 - q1) / med if med else None)
    return point


def main(base_dir: str, change_dir: str) -> int:
    spec = json.loads(BENCHMARK.read_text())
    base = load(base_dir)
    change = load(change_dir)
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"base {base_dir}  vs  change {change_dir}")
    print(f"{'workload':<12} {'metric':<12} {'base q1/med/q3':>32} {'change q1/med/q3':>32} "
          f"{'ratio':>7}  verdict")
    for w in workloads:
        for m in spec["end_to_end"]:
            key = (w, m["name"])
            if key not in base or key not in change:
                continue
            b1, bm, b3 = quartiles(list(base[key].values()))
            c1, cm, c3 = quartiles(list(change[key].values()))
            v, ratio = verdict(base[key], change[key], m["better"], m["bound"])
            print(f"{w:<12} {m['name']:<12} {b1:10.4g} {bm:10.4g} {b3:10.4g} "
                  f"{c1:10.4g} {cm:10.4g} {c3:10.4g} {ratio:7.3f}  {v} "
                  f"(n={len(base[key])}/{len(change[key])}, bound {m['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
