"""Compare two result sets of the benchmark, such as a parent and a change.

    python3 bench/compare.py parent.jsonl change.jsonl

Each file holds records appended by ``run.py --out``, one per line, or is a
JSON object with the records under "records", as ``baseline.json`` is.  For
every workload and metric found on both sides the command prints each side's
median and quartiles, the share of pairs the change won (runs paired by seed, ties
counting for neither side), and a verdict:

* improved: the change won at least nine tenths of at least ten pairs, and
  the medians differ by more than the parent's spread (the distance between
  its quartiles);
* worse: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json (for a metric without a bound, the
  mirror image of "improved");
* unresolved: the parent's own spread is wider than the bound, and not every
  run of the change reads better than every run of the parent;
* unchanged: otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: str) -> dict:
    """{(workload, trace): {metric: {seed: value}}} from a file of records, one
    per line, or from a JSON object holding them under "records" (such as
    baseline.json)."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        records = json.loads(text)["records"]
    except (json.JSONDecodeError, KeyError):
        records = [json.loads(line) for line in text.splitlines() if line.strip()]
    runs: dict = defaultdict(lambda: defaultdict(dict))
    for record in records:
        for name, metric in record["metrics"].items():
            runs[(record["workload"], record["trace"])][name][record["seed"]] = metric["value"]
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: dict, change: dict, better: str, bound: float | None) -> tuple[str, float]:
    """The verdict and the share of seed pairs the change won."""
    sign = 1 if better == "higher" else -1
    seeds = sorted(parent.keys() & change.keys())
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    losses = sum(1 for s in seeds if sign * (change[s] - parent[s]) < 0)
    share = wins / len(seeds) if seeds else 0.0
    p1, pm, p3 = quartiles(list(parent.values()))
    _, cm, _ = quartiles(list(change.values()))
    gain = sign * (cm - pm)
    spread = p3 - p1
    if len(seeds) >= MIN_PAIRS and wins >= WIN_SHARE * len(seeds) and gain > spread:
        return "improved", share
    if bound is None:
        if len(seeds) >= MIN_PAIRS and losses >= WIN_SHARE * len(seeds) and -gain > spread:
            return "worse", share
        return ("unchanged" if cm == pm else "unresolved"), share
    if -gain > bound * abs(pm):
        return "worse", share
    if spread > bound * abs(pm):
        if min(sign * v for v in change.values()) <= max(sign * v for v in parent.values()):
            return "unresolved", share
    return "unchanged", share


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args()
    spec = json.loads(Path(args.benchmark).read_text(encoding="utf-8"))
    rules = {m["name"]: (m["better"], m.get("bound"))
             for m in spec["end_to_end"] + spec["per_layer"]}
    rules.setdefault("error_rate", ("lower", None))
    parent, change = load(args.parent), load(args.change)
    print(f"{'workload':8} {'metric':42} {'parent q1/med/q3':>32} {'change q1/med/q3':>32}"
          f" {'won':>5}  verdict")
    for key in sorted(parent.keys() & change.keys()):
        workload, _ = key
        for name in sorted(parent[key].keys() & change[key].keys()):
            better, bound = rules.get(name, ("lower", None))
            p, c = parent[key][name], change[key][name]
            result, share = verdict(p, c, better, bound)
            fmt = lambda q: "/".join(f"{v:.4g}" for v in q)  # noqa: E731
            print(f"{workload:8} {name:42} {fmt(quartiles(list(p.values()))):>32}"
                  f" {fmt(quartiles(list(c.values()))):>32} {share:5.0%}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
