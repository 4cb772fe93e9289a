"""tools/bench_trajectory.py prints each end-to-end metric across the BENCH files."""

import copy
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_trajectory.py"
BENCH = sorted(ROOT.glob("BENCH_*.json"))


@pytest.fixture(scope="module")
def trajectory():
    spec = importlib.util.spec_from_file_location("bench_trajectory", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reads_the_committed_files():
    out = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    skipped = lines[-1]
    assert skipped.startswith("skipped, no workloads section")
    for path in BENCH:
        label = path.name.removeprefix("BENCH_").removesuffix(".json")
        if "workloads" in json.loads(path.read_text()):
            assert any(line.startswith(f"  {label} ") for line in lines), label
            assert path.name not in skipped
        else:
            assert path.name in skipped
    for label in ("pr26_lazy_moments", "pr29_band_template", "pr30_sim_kernel"):
        assert f"  {label} " in out
    assert "gf_closed_form op_max_s (lower is better)" in lines
    assert "won 10/10" in out


def _bench(workloads):
    return {"label": "x", "workloads": workloads}


GOOD = {
    "gf_closed_form": {
        "pairs": 3,
        "seeds": [1, 2, 3],
        "metrics": {
            "op_max_s": {
                "parent": [3.0, 1.0, 2.0],
                "change": [1.0, 1.0, 1.5],
                "parent_median": 2.0,
                "change_lower_pairs": 2,
            }
        },
    }
}


def test_prints_medians_and_pairs_won(trajectory, tmp_path, capsys):
    path = tmp_path / "BENCH_pr99_x.json"
    held_out = copy.deepcopy(GOOD["gf_closed_form"])
    path.write_text(json.dumps(_bench({**GOOD, "gf_closed_form_heldout": held_out})))
    old = tmp_path / "BENCH_pr1_old.json"
    old.write_text(json.dumps({"label": "old", "summary_trace0": {}}))
    assert trajectory.main([str(path), str(old)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "gf_closed_form op_max_s (lower is better)"
    assert out[1].split() == ["pr99_x", "2", "->", "1", "-50.0", "%", "won", "2/3"]
    assert out[2].split()[:2] == ["pr99_x", "heldout"]
    assert out[-1] == "skipped, no workloads section (1): BENCH_pr1_old.json"


def _broken(**change):
    w = copy.deepcopy(GOOD)
    entry = w["gf_closed_form"]["metrics"]["op_max_s"]
    for key, value in change.items():
        entry[key] = value
    return w


@pytest.mark.parametrize(
    "workloads, fault",
    [
        (_broken(change=[1.0, 1.0]), "2 runs for 3 pairs"),
        (_broken(parent=[3.0, "1", 2.0]), "not a list of finite numbers"),
        (_broken(parent_median=2.5), "is not the median"),
        (_broken(change_lower_pairs=3), "change is lower in 2"),
        ({"gf_closed_form": {**GOOD["gf_closed_form"], "pairs": 0}}, "is not an int >= 1"),
        ({"gf_closed_form": {"pairs": 3}}, "metrics: not a nonempty object"),
        ({"gf_closed": GOOD["gf_closed_form"]}, "is not one of"),
        ({"gf_closed_form": {"pairs": 3, "metrics": {"op_mean_s": {}}}}, "not an end-to-end metric"),
        ([], "workloads: not a nonempty object"),
    ],
)
def test_a_broken_workloads_section_exits_nonzero(trajectory, tmp_path, capsys, workloads, fault):
    path = tmp_path / "BENCH_pr99_broken.json"
    path.write_text(json.dumps(_bench(workloads)))
    assert trajectory.main([str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("BENCH_pr99_broken.json: ") and fault in err
