"""Self-test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that
  * every workload, untraced and traced, reports exactly the metrics that
    BENCHMARK.json names, with the same units, and attempts at least one op;
  * the traced run's exact counts repeat between two runs;
  * the oracle passes an unperturbed distribution and counts one with a
    single probability negated as a failed operation;
  * a failure is known only if known_failures.json lists its name for the
    operation and its magnitude is within the listed limit.
Prints one PASS/FAIL line per check and exits 1 if any failed.
"""

import json
import sys
from dataclasses import replace

import run  # pins BLAS threads before numpy loads

sys.path.insert(0, str(run.SRC))

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mmcsetup import gf, measures  # noqa: E402
from mmcsetup.distribution import JointDistribution  # noqa: E402

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def _units(result: dict) -> dict:
    return {k: v["unit"] for k, v in result["metrics"].items()}


def check_metric_names() -> None:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    expect([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json lists the four workloads")
    want = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            res = run.benchmark(name, seed=1, seconds=0, trace=trace, tiny=True)
            numbers = all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())
            expect(_units(res) == want[trace] and numbers and res["attempted"] >= 1,
                   f"{name} trace={int(trace)}: every named metric, with its unit")


def check_exact_counts() -> None:
    for name in workloads.WORKLOADS:
        a, b = (run.benchmark(name, seed=s, seconds=0, trace=True, tiny=True) for s in (1, 2))
        same = all(a["metrics"][k]["value"] == b["metrics"][k]["value"]
                   for k in tracing.EXACT_COUNTS)
        expect(same, f"{name}: exact counts repeat across runs")


def check_perturbation() -> None:
    p = workloads.queue(0.5, 0.7, 5)
    ref = workloads.load_reference()["points"][workloads.point_key(0.5, 0.7, 5)]
    dist = gf.solve(p).distribution()
    outputs = (dist, measures.full_report(dist, p, workloads.COSTS), measures.decomposition(dist, p))
    clean = workloads.Op("clean", lambda: outputs, lambda out: oracle.check_point(p, *out, ref))
    expect(run.run_pass([clean], run.Speed())[0][2] == {}, "oracle passes the unperturbed distribution")

    boundary = dist.boundary.copy()
    boundary[1, 3] = -boundary[1, 3]
    bad = replace(clean, name="perturbed", run=lambda: (
        JointDistribution(p, boundary, dist.tail, "gf"), *outputs[1:]))
    failed = run.run_pass([bad], run.Speed())[0][2]
    expect("negative_prob" in failed, f"one negated probability fails the op ({failed})")


def check_known_limits() -> None:
    known = {"op": {"checks": {"listed": 1.0, "any_size": None}}}
    expect(run._unexpected("op", {"listed": 0.5, "any_size": 7.0}, known) == {},
           "listed failures within their limits are known")
    got = set(run._unexpected("op", {"listed": 2.0, "unlisted": None}, known))
    expect(got == {"listed", "unlisted"}, f"a failure past its limit or not listed is unexpected ({got})")


def main() -> int:
    check_known_limits()
    check_perturbation()
    check_metric_names()
    check_exact_counts()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
