"""Every script under demos/ runs to completion in a fresh interpreter."""

from pathlib import Path

import pytest

from conftest import run_fresh

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5, DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path):
    run_fresh(str(path))
