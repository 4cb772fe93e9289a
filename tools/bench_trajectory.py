"""Print each end-to-end metric's trajectory across the committed BENCH files.

    python tools/bench_trajectory.py            # every BENCH_*.json at the repo root
    python tools/bench_trajectory.py FILE ...   # just these files

A BENCH file records one change's alternating parent/change benchmark
pairs.  This tool reads the files that carry a `workloads` section, in the
order of the number after `BENCH_pr` in their names, and prints one table
per workload and end-to-end metric: each file's parent -> change medians,
the relative change and how many pairs the change won (ties count for
neither side; "won" follows the metric's `better` in BENCHMARK.json).
Files without a `workloads` section use older, per-file layouts; they are
skipped and named.

The `workloads` schema:

    "workloads": {
      "<workload>[_<variant>]": {          # e.g. gf_closed_form, figure_sweep_heldout
        "pairs": <int >= 1>,
        "metrics": {
          "<end-to-end metric>": {         # a name in BENCHMARK.json's end_to_end
            "parent": [<number>, ...],     # one run per pair, in pair order
            "change": [<number>, ...],     # same length as parent, = pairs
            "parent_median": <number>,     # optional; if present, the
            "change_median": <number>,     #   lists' medians (to 1e-6)
            "change_lower_pairs": <int>    # optional; pairs with change < parent
          }, ...
        },
        ...                                # other keys (seeds, fail_frac, ...) are free
      }, ...
    }

<workload> is a workload name of BENCHMARK.json; anything after it names a
variant, such as a held-out seed, and is shown with the file.  Medians and
pairs won are computed from the lists.  A file whose `workloads` section
breaks this schema stops the tool with exit status 1 and names the file and
the fault.
"""

import argparse
import json
import math
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


class SchemaError(Exception):
    pass


def pr_number(path: Path) -> int:
    m = re.match(r"BENCH_pr(\d+)_", path.name)
    return int(m.group(1)) if m else -1


def split_workload(key: str, workloads: list[str]) -> tuple[str, str]:
    """(workload, variant) of a `workloads` key; the longest name that prefixes it."""
    for name in sorted(workloads, key=len, reverse=True):
        if key == name or key.startswith(name + "_"):
            return name, key[len(name) + 1 :]
    raise SchemaError(f"workload {key!r} is not one of {workloads}")


def is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def read_metric(where: str, entry, pairs: int, lower_better: bool) -> dict:
    if not isinstance(entry, dict):
        raise SchemaError(f"{where}: not an object")
    sides = {}
    for side in ("parent", "change"):
        runs = entry.get(side)
        if not isinstance(runs, list) or not all(map(is_number, runs)):
            raise SchemaError(f"{where}.{side}: not a list of finite numbers")
        if len(runs) != pairs:
            raise SchemaError(f"{where}.{side}: {len(runs)} runs for {pairs} pairs")
        sides[side] = statistics.median(runs)
        stored = entry.get(f"{side}_median")
        if stored is not None and not math.isclose(stored, sides[side], rel_tol=1e-6, abs_tol=1e-6):
            raise SchemaError(f"{where}.{side}_median {stored} is not the median {sides[side]}")
    lower = sum(c < p for p, c in zip(entry["parent"], entry["change"]))
    higher = sum(c > p for p, c in zip(entry["parent"], entry["change"]))
    stored = entry.get("change_lower_pairs")
    if stored is not None and stored != lower:
        raise SchemaError(f"{where}.change_lower_pairs {stored}, but change is lower in {lower}")
    return {**sides, "won": lower if lower_better else higher, "pairs": pairs}


def read_file(path: Path, workloads: list[str], metrics: dict) -> dict | None:
    """{(workload, metric): {variant: row}}, or None without a workloads section."""
    section = json.loads(path.read_text()).get("workloads")
    if section is None:
        return None
    if not isinstance(section, dict) or not section:
        raise SchemaError("workloads: not a nonempty object")
    table = {}
    for key, w in section.items():
        workload, variant = split_workload(key, workloads)
        if not isinstance(w, dict):
            raise SchemaError(f"workloads.{key}: not an object")
        pairs = w.get("pairs")
        if not isinstance(pairs, int) or isinstance(pairs, bool) or pairs < 1:
            raise SchemaError(f"workloads.{key}.pairs: {pairs!r} is not an int >= 1")
        if not isinstance(w.get("metrics"), dict) or not w["metrics"]:
            raise SchemaError(f"workloads.{key}.metrics: not a nonempty object")
        for name, entry in w["metrics"].items():
            if name not in metrics:
                raise SchemaError(f"workloads.{key}.metrics: {name!r} is not an end-to-end metric")
            row = read_metric(f"workloads.{key}.metrics.{name}", entry, pairs, metrics[name] == "lower")
            table.setdefault((workload, name), {})[variant] = row
    return table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("files", nargs="*", type=Path, help="BENCH files (default: all at the repo root)")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    files = sorted(args.files or ROOT.glob("BENCH_*.json"), key=lambda p: (pr_number(p), p.name))

    tables, skipped = {}, []
    for path in files:
        try:
            table = read_file(path, workloads, metrics)
        except (SchemaError, json.JSONDecodeError) as e:
            print(f"{path.name}: {e}", file=sys.stderr)
            return 1
        if table is None:
            skipped.append(path.name)
            continue
        label = path.name.removeprefix("BENCH_").removesuffix(".json")
        for key, variants in table.items():
            for variant, row in variants.items():
                tables.setdefault(key, []).append((f"{label} {variant}".strip(), row))

    for workload in workloads:
        for metric, better in metrics.items():
            rows = tables.get((workload, metric))
            if not rows:
                continue
            print(f"{workload} {metric} ({better} is better)")
            width = max(len(label) for label, _ in rows)
            for label, r in rows:
                rel = (r["change"] / r["parent"] - 1) * 100 if r["parent"] else math.nan
                print(
                    f"  {label:{width}}  {r['parent']:>10.6g} -> {r['change']:<10.6g}  "
                    f"{rel:+6.1f} %  won {r['won']}/{r['pairs']}"
                )
    if skipped:
        print(f"skipped, no workloads section ({len(skipped)}): {', '.join(skipped)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
