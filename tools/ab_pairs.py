"""Time one statement on two source trees in alternating fresh-process pairs.

    python tools/ab_pairs.py "gf.solve(QueueParams(lam=5.0, mu=1.0, alpha=0.7, c=10))" \\
        --name gf_c10 --pairs 10 --reps 500
    python tools/ab_pairs.py \\
        "sim.simulate(SimConfig(params=QueueParams(lam=5.0, mu=1.0, alpha=0.1, c=10), n_events=500_000))" \\
        --name sim_c10 --pairs 10 --reps 10

The change side imports mmcsetup from this repository's src/.  The
parent side imports it from a temporary `git worktree` of --parent, or
from --parent-src DIR, which needs no git.  --parent defaults to HEAD,
which is the parent only while the change is uncommitted: once it is
committed, pass --parent HEAD~1.  The tool refuses a --parent whose src/
is the working tree's, which would time one tree against itself.  Both
trees are byte-compiled first.  Each pair starts one fresh process per
side, parent first in even pairs and change first in odd ones.  A process
imports gf, qbd, ctmc, measures, sim, sweeps, QueueParams and SimConfig,
then runs the statement --warmup times untimed, then --reps times timed, with
BLAS on one thread; it reports the median of its timed runs and, per run,
the minor page faults (ru_minflt) and system time (ru_stime) its timed
loop took, and how far the loop raised its peak resident set (ru_maxrss).
The warmup runs set that peak first, so a statement whose every run needs
the same memory reads 0 there; pass --warmup 0 to see a first run's.  Linux
starts a fresh process's ru_maxrss at the peak of the process that launched
it, so run this tool as its own process, not from inside a large one.

Prints, per side, the median and quartiles over pairs of those per-process
medians, the change/parent ratio of the medians, the median of the
per-pair ratios (which host speed drifting between pairs moves less), how
many pairs the change won (ties count for neither side), and the medians
of ru_minflt and ru_stime per run and of the ru_maxrss growth; then the
same as one JSON line.  Times are raw seconds of this machine.  It is a
measuring tool, not a gate.
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUP = (
    "from mmcsetup import gf, qbd, ctmc, measures, sim, sweeps\n"
    "from mmcsetup.model import QueueParams\n"
    "from mmcsetup.sim import SimConfig"
)
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# run in each fresh process; argv[1] is a JSON {setup, stmt, warmup, reps}
CHILD = r"""
import json, resource, statistics, sys, time
job = json.loads(sys.argv[1])
env = {}
exec(job["setup"], env)
code = compile(job["stmt"], "<stmt>", "exec")
for _ in range(job["warmup"]):
    exec(code, env)
times = []
before = resource.getrusage(resource.RUSAGE_SELF)
for _ in range(job["reps"]):
    t0 = time.perf_counter()
    exec(code, env)
    times.append(time.perf_counter() - t0)
after = resource.getrusage(resource.RUSAGE_SELF)
n = job["reps"]
print(json.dumps({
    "median_s": statistics.median(times),
    "minflt": (after.ru_minflt - before.ru_minflt) / n,
    "stime_s": (after.ru_stime - before.ru_stime) / n,
    "maxrss_growth_mb": (after.ru_maxrss - before.ru_maxrss) / 1024,
}))
"""


def run_side(src: Path, job: dict) -> dict:
    """One fresh interpreter importing mmcsetup from src."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, **{v: "1" for v in BLAS_THREAD_VARS}}
    env["PYTHONPATH"] = str(src) + (os.pathsep + path if path else "")
    out = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(job)], env=env, capture_output=True, text=True
    )
    if out.returncode:
        raise SystemExit(f"statement failed under {src}:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


@contextmanager
def parent_tree(rev: str):
    """The src/ of a temporary git worktree of rev, removed on exit."""
    same = subprocess.run(["git", "-C", str(ROOT), "diff", "--quiet", rev, "--", "src"])
    if same.returncode == 0:
        raise SystemExit(f"src/ at {rev} is the working tree's; pass the parent, e.g. --parent HEAD~1")
    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as tmp:
        tree = Path(tmp) / "parent"
        subprocess.run(
            ["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet", str(tree), rev],
            check=True,
        )
        try:
            yield tree / "src"
        finally:
            subprocess.run(
                ["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)], check=True
            )


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def compare(parent_src: Path, job: dict, pairs: int) -> dict:
    change_src = ROOT / "src"
    # both sides import from bytecode, as perfbench/run.py does: a module
    # compiled at import shifts the heap, which moved a c = 400 gf solve
    # from 1,224 to 2,801 minor page faults per run
    for src in (parent_src, change_src):
        compileall.compile_dir(str(src), quiet=1)
    runs = {"parent": [], "change": []}
    for k in range(pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_side(parent_src if side == "parent" else change_src, job))
    sides = {}
    for side, rs in runs.items():
        med = [r["median_s"] for r in rs]
        sides[side] = {
            "median_s": statistics.median(med),
            "quartiles_s": quartiles(med),
            "raw_s": med,
            "minflt_per_run": statistics.median(r["minflt"] for r in rs),
            "stime_s_per_run": statistics.median(r["stime_s"] for r in rs),
            "maxrss_growth_mb": statistics.median(r["maxrss_growth_mb"] for r in rs),
        }
    pair_ratios = [c["median_s"] / p["median_s"] for p, c in zip(runs["parent"], runs["change"])]
    return {
        "pairs": pairs,
        "change_wins": sum(r < 1 for r in pair_ratios),
        "ratio": sides["change"]["median_s"] / sides["parent"]["median_s"],
        "pair_ratio_median": statistics.median(pair_ratios),
        **sides,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("stmt", help="the statement to time")
    ap.add_argument("--name", help="label for the output (default: the statement)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--reps", type=int, default=100, help="timed runs per process")
    ap.add_argument("--warmup", type=int, default=3, help="untimed runs per process")
    ap.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    ap.add_argument("--parent-src", type=Path, help="the parent's src/ directory; no git call")
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.reps < 1 or args.warmup < 0:
        ap.error("--pairs and --reps must be at least 1, --warmup at least 0")
    job = {"setup": SETUP, "stmt": args.stmt, "warmup": args.warmup, "reps": args.reps}

    if args.parent_src is not None:
        result = compare(args.parent_src, job, args.pairs)
    else:
        with parent_tree(args.parent) as src:
            result = compare(src, job, args.pairs)
    result = {"name": args.name or args.stmt, **result}

    print(result["name"])
    for side in ("parent", "change"):
        s = result[side]
        q1, _, q3 = s["quartiles_s"]
        print(
            f"  {side:6}  median {s['median_s']:.6g} s  quartiles {q1:.6g}..{q3:.6g} s  "
            f"ru_minflt/run {s['minflt_per_run']:.6g}  ru_stime/run {s['stime_s_per_run']:.6g} s  "
            f"ru_maxrss growth {s['maxrss_growth_mb']:.6g} MB"
        )
    print(
        f"  ratio change/parent {result['ratio']:.4f} (median of pair ratios "
        f"{result['pair_ratio_median']:.4f}), change won {result['change_wins']} of {args.pairs} pairs"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
