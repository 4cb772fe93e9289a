"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) as a closed loop: a single caller
starts each operation only when the previous one has returned.  It checks
every result against reference.json and prints one line per metric, then a
final JSON line {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, measured untraced.  --trace 1
runs the operation list untraced, then with every public function of the
mmcsetup modules wrapped in spans, then untraced again, and reports the
per-layer metrics;
the spans are written to perfbench/out/.  Every reported time is scaled to
a reference machine speed (see Speed and _children).
"""

import os

# BLAS runs on one thread, here and in every child process; this has to
# happen before numpy is first imported.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import mpmath  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
KNOWN_FAILURES_PATH = HERE / "known_failures.json"

SETUP_REPS = 3  # fresh command-line processes per setup_s sample
IMPORT_REPS = 3  # fresh processes per cli.import_s sample
CHILD_TIMEOUT_S = 60
# reported seconds are seconds of a machine on which _kernel takes this long
KERNEL_REF_S = 0.04
# the probe for child processes: interpreter start and third-party imports,
# no mmcsetup code; reported child times are seconds of a machine on which
# it takes REF_CHILD_S
REF_CHILD = ["-c", "import numpy, scipy.linalg, mpmath"]
REF_CHILD_S = 0.6

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_max_s": "s",
    "peak_rss_mb": "MB",
}


def _child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def _kernel() -> None:
    """Fixed work outside mmcsetup: a pure-Python loop and mpmath arithmetic,
    the two kinds of work the workloads spend most of their time in."""
    s = 0
    for i in range(100_000):
        s += i * i % 7
    with mpmath.workdps(60):
        x, y, acc = mpmath.mpf(1) / 3, mpmath.mpf(2) / 7, mpmath.mpf(0)
        for i in range(2_000):
            acc += x * y / (i + 1)
            x = x * y + 1


class Speed:
    """Probe of how fast the machine runs right now.

    On a shared machine other tenants slow everything by up to a factor of
    two, switching every few seconds, so raw times of one run differ from
    the next far more than any change worth measuring.  The benchmark times
    a fixed kernel before and after every operation, and scales the time in
    between by KERNEL_REF_S / (mean of the two kernel times): reported times
    are seconds of a machine on which the kernel takes KERNEL_REF_S.  Child
    processes have a probe of their own (see _children).
    """

    def __init__(self):
        self.samples: list = []

    def probe(self) -> float:
        t0 = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]

    def scale(self) -> float:
        """The run-wide factor, for times not bracketed by their own probes."""
        return KERNEL_REF_S / statistics.median(self.samples)


def _scaled(dt: float, before: float, after: float) -> float:
    return dt * KERNEL_REF_S / (0.5 * (before + after))


def _child(args: list) -> tuple[float, str]:
    """Run a fresh interpreter from the checkout root; (wall time, stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=_child_env(),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{args} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return dt, proc.stdout


def _children(args: list, reps: int) -> list:
    """Run ``args`` in ``reps`` fresh interpreters: [(wall time, stdout, scale)].

    The kernel probe tracks start-up and import work badly (setup times
    scaled by it spread more than raw ones), so each process runs between two
    REF_CHILD processes and ``scale`` is REF_CHILD_S / (their mean time).
    """
    out = []
    before = _child(REF_CHILD)[0]
    for _ in range(reps):
        dt, stdout = _child(args)
        after = _child(REF_CHILD)[0]
        out.append((dt, stdout, REF_CHILD_S / (0.5 * (before + after))))
        before = after
    return out


def measure_setup(reps: int) -> tuple[float, bool]:
    """Median time of fresh ``python -m mmcsetup solve`` processes, and
    whether every one printed the reference answer."""
    import oracle
    import workloads

    ref = workloads.load_reference()["points"][workloads.point_key(*workloads.SETUP_POINT)]
    runs = _children(["-m", "mmcsetup", *workloads.SETUP_ARGV], reps)
    ok = all(oracle.report_matches(workloads.report_from_ref(json.loads(out)["report"]), ref)
             for _, out, _ in runs)
    return statistics.median(dt * scale for dt, _, scale in runs), ok


def measure_import(reps: int) -> float:
    """Median time a fresh interpreter spends importing the command line."""
    code = "import time; t = time.perf_counter(); import mmcsetup.cli; print(time.perf_counter() - t)"
    return statistics.median(float(out) * scale for _, out, scale in _children(["-c", code], reps))


def run_pass(ops: list, speed: Speed, tracer=None) -> list:
    """Run every operation once: [(name, scaled seconds, failed checks, raw seconds)],
    the failed checks as oracle.py gives them, {name: magnitude}.

    Only ``op.run`` is timed (and traced); the speed probes run around it
    and the check after it.
    """
    results = []
    before = speed.probe()
    for op in ops:
        if tracer is not None:
            tracer.recording = True
        t0 = time.perf_counter()
        try:
            out = op.run()
            failed = None
        except Exception as exc:  # an operation that raises counts as failed
            failed = {f"raised:{type(exc).__name__}": None}
            print(f"# {op.name} raised {type(exc).__name__}: {exc}", flush=True)
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.recording = False
        after = speed.probe()
        if failed is None:
            failed = op.check(out)
            del out
        results.append((op.name, _scaled(dt, before, after), failed, dt))
        before = after
    return results


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "commit": _git_commit(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout; "unknown" when it is not a git repository."""
    if not (ROOT / ".git").exists():  # not the HEAD of a repository around it
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _known_failures(workload: str) -> dict:
    with open(KNOWN_FAILURES_PATH) as fh:
        return json.load(fh).get(workload, {})


def benchmark(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run: the result object plus the report lines to print."""
    import tracing
    import workloads

    ops = workloads.build(workload, seed, tiny)
    env = environment()
    lines = [f"# env {json.dumps(env)}"]
    speed = Speed()
    if not tiny:
        # lazy imports and first-call set-up happen here, untimed
        run_pass(workloads.build(workload, seed, tiny=True), Speed())

    if trace:
        # untraced passes on both sides, so the first pass's cold start
        # does not read as a negative tracing overhead
        untraced = [run_pass(ops, speed)]
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            traced = run_pass(ops, speed, tracer)
        untraced.append(run_pass(ops, speed))
        passes = untraced + [traced]
        import_s = measure_import(1 if tiny else IMPORT_REPS)
        # spans have no probes of their own: they are scaled run-wide
        values = tracing.layer_metrics(
            tracer, speed.scale(), _pass_wall(traced),
            statistics.mean(_pass_wall(p) for p in untraced),
            sum(r[3] for r in traced), import_s,
        )
        units = tracing.PER_LAYER
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload}-seed{seed}.json"
        with open(spans_path, "w") as fh:
            json.dump({"workload": workload, "seed": seed, "env": env,
                       "speed_scale": speed.scale(), "spans": tracer.spans}, fh)
        lines.append(f"# spans (raw seconds) written to {spans_path.relative_to(ROOT)}")
        setup_ok = True
    else:
        setup_s, setup_ok = measure_setup(1 if tiny else SETUP_REPS)
        passes, start = [], time.perf_counter()
        while True:
            passes.append(run_pass(ops, speed))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(passes) > seconds:
                break
        values = {"setup_s": setup_s, **_timing(passes),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END

    results = [r for p in passes for r in p]
    known = _known_failures(workload)
    n_failed = sum(1 for r in results if r[2])
    worst = [{} for _ in ops]  # each op's failed checks, worst magnitude over the passes
    for p in passes:
        for i, (_, _, failed, _) in enumerate(p):
            for check, size in failed.items():
                worst[i][check] = _worse(worst[i].get(check), size)
    unexpected = {}
    for op, failed in zip(ops, worst):
        unexpected.setdefault(op.name, {}).update(_unexpected(op.name, failed, known))
    unexpected = {name: u for name, u in unexpected.items() if u}
    lines.append(f"# workload {workload} seed {seed} passes {len(passes)} ops/pass {len(ops)}")
    lines.append(f"# speed: {len(speed.samples)} kernel probes, median "
                 f"{statistics.median(speed.samples) * 1e3:.2f} ms (reference "
                 f"{KERNEL_REF_S * 1e3:.0f} ms)")
    raw = _op_medians(passes, raw=True)
    for i, med in enumerate(_op_medians(passes)):
        name, failed = ops[i].name, worst[i]
        note = f"  failed {_fmt_failed(failed)}" if failed else ""
        if failed and not _unexpected(name, failed, known):
            note += " (known defect, see known_failures.json)"
        lines.append(f"# op {med:9.4f} s (raw {raw[i]:9.4f} s), median of "
                     f"{len(passes)}  {name}{note}")
    if not trace:
        lines.append(f"# op_p50_s over n={len(ops)} operations, each the median of "
                     f"{len(passes)} passes")
        lines.append(f"fail_frac {n_failed / len(results)!r} 1  ({n_failed}/{len(results)})")
    for name, unit in units.items():
        lines.append(f"{name} {values[name]!r} {unit}")
    for name, failed in sorted(unexpected.items()):
        lines.append(f"# UNEXPECTED failure: {name}: {_fmt_failed(failed)}")
    if not setup_ok:
        lines.append("# UNEXPECTED failure: the setup_s command line printed a wrong report")
    return {
        "correct": not unexpected and setup_ok,
        "attempted": len(results),
        "failed": n_failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        "lines": lines,
    }


def _unexpected(name: str, failed: dict, known: dict) -> dict:
    """The failed checks that known_failures.json does not allow for ``name``:
    a check it does not list, or one whose magnitude exceeds the listed limit
    (a null limit allows any)."""
    limits = known.get(name, {}).get("checks", {})
    return {
        check: size for check, size in failed.items()
        if check not in limits
        or (limits[check] is not None and not (size is not None and size <= limits[check]))
    }


def _worse(a, b):
    """The larger of two failure magnitudes, either of which may be None."""
    return b if a is None else a if b is None else max(a, b)


def _fmt_failed(failed: dict) -> str:
    return "{" + ", ".join(
        check if size is None else f"{check}: {size:.3g}" for check, size in sorted(failed.items())
    ) + "}"


def _pass_wall(results: list) -> float:
    return sum(r[1] for r in results)


def _op_medians(passes: list, raw: bool = False) -> list:
    """Each operation's median time over the passes, in list order."""
    col = 3 if raw else 1
    return [statistics.median(p[i][col] for p in passes) for i in range(len(passes[0]))]


def _timing(passes: list) -> dict:
    """wall_s: the median pass; op_p50_s and op_max_s: the median and the
    largest of the operations' median times."""
    per_op = _op_medians(passes)
    return {
        "wall_s": statistics.median(_pass_wall(p) for p in passes),
        "op_p50_s": statistics.median(per_op),
        "op_max_s": max(per_op),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "mmcsetup" / "__init__.py").is_file():
        print(f"error: no mmcsetup sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # byte-compile once so no timed process pays for it
    compileall.compile_dir(str(SRC), quiet=1)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in result.pop("lines"):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
