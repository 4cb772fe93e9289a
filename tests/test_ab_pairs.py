"""tools/ab_pairs.py times a statement on two trees in fresh processes.

Both sides here import the working tree's src/, given as --parent-src, so
the tool makes no git call.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import mmcsetup

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
SRC = str(Path(mmcsetup.__file__).resolve().parents[1])


@pytest.fixture(scope="module")
def ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pairs_on_one_tree(ab_pairs, monkeypatch, capsys):
    monkeypatch.setattr(ab_pairs, "parent_tree", None)  # no worktree, no git
    stmt = "gf.solve(QueueParams(lam=1.0, mu=1.0, alpha=1.0, c=2))"
    argv = [stmt, "--name", "tiny", "--pairs", "2", "--reps", "3", "--warmup", "1"]
    assert ab_pairs.main([*argv, "--parent-src", SRC]) == 0
    text = capsys.readouterr().out
    result = json.loads(text.splitlines()[-1])
    assert result["name"] == "tiny" and result["pairs"] == 2
    assert 0 <= result["change_wins"] <= 2
    for side in ("parent", "change"):
        s = result[side]
        assert len(s["raw_s"]) == 2 and s["median_s"] > 0
        assert s["quartiles_s"][0] <= s["median_s"] <= s["quartiles_s"][2]
        assert s["minflt_per_run"] >= 0 and s["stime_s_per_run"] >= 0
        assert s["maxrss_growth_mb"] >= 0
    assert result["ratio"] == pytest.approx(result["change"]["median_s"] / result["parent"]["median_s"])
    assert result["pair_ratio_median"] > 0
    assert "change won" in text and "ru_minflt" in text and "ru_maxrss growth" in text


def test_a_simulator_statement_times_only_the_run(ab_pairs, capsys):
    # the set-up imports sim and SimConfig, so the statement holds no import
    p = "QueueParams(lam=1.0, mu=1.0, alpha=1.0, c=2)"
    stmt = f"sim.simulate(SimConfig(params={p}, n_events=2_000))"
    argv = [stmt, "--pairs", "1", "--reps", "2", "--warmup", "0", "--parent-src", SRC]
    assert ab_pairs.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert all(result[side]["median_s"] > 0 for side in ("parent", "change"))


def test_maxrss_growth_is_the_timed_loops():
    # a 48 MB array raises the peak in the first run only: with no warmup
    # the timed loop reads that growth, after one warmup run it reads none.
    # The tool runs as its own process: Linux starts a child's ru_maxrss at
    # the peak of the process that launched it, here pytest's
    stmt = "x = __import__('numpy').ones(6_000_000); del x"
    growth = {}
    for warmup in (0, 1):
        argv = [stmt, "--pairs", "1", "--reps", "2", "--warmup", str(warmup), "--parent-src", SRC]
        out = subprocess.run([sys.executable, str(TOOL), *argv], capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.splitlines()[-1])
        growth[warmup] = [result[side]["maxrss_growth_mb"] for side in ("parent", "change")]
    assert all(g >= 30 for g in growth[0])
    assert all(g < 5 for g in growth[1])


def test_a_failing_statement_stops_the_run(ab_pairs):
    with pytest.raises(SystemExit, match="ZeroDivisionError"):
        ab_pairs.main(["1 / 0", "--pairs", "1", "--reps", "1", "--parent-src", SRC])


def test_a_parent_equal_to_the_working_tree_is_refused(ab_pairs, monkeypatch):
    # git diff --quiet exits 0 when the parent's src/ is the working tree's;
    # timing one tree against itself would print a ratio near 1 as a result
    calls = []

    def run(args, **kwargs):
        calls.append(args)
        return ab_pairs.subprocess.CompletedProcess(args, 0)

    monkeypatch.setattr(ab_pairs.subprocess, "run", run)
    with pytest.raises(SystemExit, match="--parent HEAD~1"):
        ab_pairs.main(["pass", "--pairs", "1", "--reps", "1"])
    assert len(calls) == 1 and "diff" in calls[0]
