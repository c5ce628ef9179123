#!/usr/bin/env python3
"""List the per-layer metrics that moved by more than 10% between two records.

    python3 perfbench/run.py --workload all --trace 1 --record base.json   # parent
    python3 perfbench/run.py --workload all --trace 1 --record new.json    # change
    python3 perfbench/layer_delta.py base.json new.json

Each line names the workload and metric and gives the base value, the new
value and the change as a share of the base.  A layer that got more than 10%
slower must be explained by the change that slowed it.
"""

from __future__ import annotations

import json
import sys

THRESHOLD = 0.10


def traced_metrics(record):
    """workload -> {metric: (value, unit)} for the traced results of a record."""
    return {
        res["workload"]: {k: (m["value"], m["unit"]) for k, m in res["metrics"].items()}
        for res in record["results"]
        if res["trace"]
    }


def deltas(base, new, threshold=THRESHOLD):
    """(workload, metric, unit, base value, new value, change) for each metric
    whose change exceeds `threshold`; change is None when the base is 0."""
    base_layers, new_layers = traced_metrics(base), traced_metrics(new)
    out = []
    for workload, metrics in base_layers.items():
        for name, (before, unit) in metrics.items():
            after = new_layers.get(workload, {}).get(name, (None, unit))[0]
            if after is None or after == before:
                continue
            change = (after - before) / abs(before) if before else None
            if change is None or abs(change) > threshold:
                out.append((workload, name, unit, before, after, change))
    return out


def format_delta(workload, name, unit, before, after, change):
    share = "new" if change is None else f"{change:+.1%}"
    return f"{workload:<9} {name:<48} base {before:>12.4f} {unit:<5} new {after:>12.4f} {share}"


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: layer_delta.py BASE.json NEW.json")
    records = []
    for path in argv:
        with open(path) as fh:
            records.append(json.load(fh))
    for row in deltas(*records):
        print(format_delta(*row))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
