"""The benchmark's contract with the library, at its tiny sizes.

perfbench calls mmcsetup through module attributes, wraps the functions it
traces (perfbench/tracing.py) and checks every result with its oracle.  A
change to the library that breaks a call, a traced name or an oracle check
shows here, in the ordinary test run, and not only in perfbench's own
self-test.  perfbench is imported and left unchanged; this writes no file
and starts no process.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
        import workloads

        yield tracing, workloads
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("workload", ["gf_closed_form", "qbd_ladder", "figure_sweep", "sim_validate"])
def test_traced_tiny_workload_passes_its_oracle(perfbench, workload):
    tracing, workloads = perfbench
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        tracer.recording = True
        failed = {op.name: op.check(op.run()) for op in workloads.build(workload, 1, tiny=True)}
    assert failed and not any(failed.values()), failed
    # the wrappers saw the calls, and none of them raised
    assert tracer.spans
    assert not [k for k in tracer.counts if "!" in k], dict(tracer.counts)
