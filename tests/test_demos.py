"""Every script under demos/, and README's quick start, runs to completion
in a fresh interpreter."""

from pathlib import Path

import pytest

from conftest import run_fresh

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5, DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path):
    run_fresh(str(path))


def test_readme_quick_start_runs():
    # the first python block of README.md, so an example that drifts from
    # the API fails here
    block = (ROOT / "README.md").read_text().split("```python\n", 1)[1].split("```", 1)[0]
    assert "import" in block
    run_fresh("-c", block)
