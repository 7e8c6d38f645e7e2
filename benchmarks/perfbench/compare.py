"""Compare two sets of benchmark records, metric by metric and workload by workload.

Usage, from the repository root::

    python3 benchmarks/perfbench/compare.py BASE CHANGE

``BASE`` and ``CHANGE`` are record files or directories of them (the
``records/`` directory ``run.py`` writes).  For every (workload, metric) the
command prints each side's median and quartiles, the median change, how
many paired runs the change won, and a label:

``better``
    The change won at least nine tenths of at least ten pairs (ties count
    for neither side) and the medians differ by more than the distance
    between the base's quartiles.
``worse``
    The change's median is worse than the base's by more than the metric's
    bound, and either both sides' spreads are within the bound or every
    change run is worse than every base run.
``unresolved``
    The run-to-run spread (quartile distance over median) on either side
    is wider than the bound, and neither rule above decides.
``unchanged``
    Otherwise.

Runs are paired by seed (by position when the seeds differ).  Bounds and
directions come from ``BENCHMARK.json``; per-layer metrics have no bound, so
they are ``better``/``worse`` by the pair rule alone and ``unchanged``
otherwise.  ``fail_ratio`` (failed over attempted calls) is compared from the
records' call counts with a bound of zero.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_records(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = []
    for file in files:
        if file.name.endswith("-spans.json"):
            continue
        record = json.loads(file.read_text())
        if "workload" in record and "metrics" in record:
            records.append(record)
    return records


def series(records: list[dict]) -> dict:
    """(workload, metric) -> {seed: value}, ``fail_ratio`` included."""
    out: dict = {}
    for record in records:
        values = dict(record["metrics"])
        if not record["trace"]:
            values["fail_ratio"] = record["failed"] / record["attempted"]
        for name, value in values.items():
            out.setdefault((record["workload"], name), {})[record["seed"]] = float(value)
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def label(base: dict, change: dict, better: str, bound: float | None) -> tuple[str, str]:
    """Label one (workload, metric) pair of series; returns (label, wins)."""
    sign = 1.0 if better == "higher" else -1.0
    common = sorted(set(base) & set(change))
    if common:
        pairs = [(base[s], change[s]) for s in common]
    else:
        pairs = list(zip([base[s] for s in sorted(base)], [change[s] for s in sorted(change)]))
    a = list(base.values())
    b = list(change.values())
    qa1, med_a, qa3 = quartiles(a)
    qb1, med_b, qb3 = quartiles(b)
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    losses = sum(sign * (y - x) < 0 for x, y in pairs)
    tally = f"{wins}/{len(pairs)}"
    scale = abs(med_a) or 1.0
    spread = max((qa3 - qa1) / scale, (qb3 - qb1) / (abs(med_b) or 1.0))
    worse_by = -sign * (med_b - med_a) / scale
    every_better = all(sign * (y - x) > 0 for x in a for y in b)
    every_worse = all(sign * (y - x) < 0 for x in a for y in b)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and abs(med_b - med_a) > qa3 - qa1:
        return "better", tally
    if bound is None:
        if len(pairs) >= 10 and losses >= 0.9 * len(pairs) and abs(med_b - med_a) > qa3 - qa1:
            return "worse", tally
        return ("unchanged" if med_a == med_b else "unresolved"), tally
    if worse_by > bound and (spread <= bound or every_worse):
        return "worse", tally
    if spread > bound and not every_better:
        return "unresolved", tally
    return "unchanged", tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)

    spec = json.loads(args.benchmark.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    metrics["fail_ratio"] = {"name": "fail_ratio", "unit": "ratio", "better": "lower", "bound": 0.0}
    base = series(load_records(args.base))
    change = series(load_records(args.change))
    if not base or not change:
        print("compare: no records found on one side", file=sys.stderr)
        return 2

    header = f"{'workload':16s} {'metric':46s} {'unit':6s} {'base median [q1, q3]':34s} {'change median [q1, q3]':34s} {'delta':>8s} {'wins':>6s} label"
    print(header)
    for key in sorted(set(base) & set(change)):
        workload, name = key
        if name not in metrics:
            continue
        meta = metrics[name]
        a, b = base[key], change[key]
        qa1, med_a, qa3 = quartiles(list(a.values()))
        qb1, med_b, qb3 = quartiles(list(b.values()))
        verdict, tally = label(a, b, meta["better"], meta.get("bound"))
        delta = f"{(med_b - med_a) / abs(med_a):+8.2%}" if med_a else f"{'n/a':>8s}"
        print(
            f"{workload:16s} {name:46s} {meta['unit']:6s} "
            f"{med_a:11.5g} [{qa1:9.4g}, {qa3:9.4g}] "
            f"{med_b:11.5g} [{qb1:9.4g}, {qb3:9.4g}] "
            f"{delta} {tally:>6s} {verdict}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
