from dataclasses import replace
import math

import pytest

from mmcsetup import gf, mmc, qbd, sweeps
from mmcsetup.errors import (
    InternalInconsistencyError,
    InvalidConfigError,
    NoCrossingError,
    UnstableError,
)
from mmcsetup.measures import full_report
from mmcsetup.model import CostParams, QueueParams


def spec(**kw):
    kw.setdefault("var", "alpha")
    kw.setdefault("grid", (0.2, 0.6, 2.0))  # avoid alpha = mu (1 - rho)
    kw.setdefault("params", QueueParams(lam=1.0, mu=1.0, alpha=1.0, c=2))
    return sweeps.SweepSpec(**kw)


def test_validate_spec_rejections():
    with pytest.raises(InvalidConfigError):
        sweeps.validate_spec(spec(var="beta"))
    with pytest.raises(InvalidConfigError):
        sweeps.validate_spec(spec(grid=()))
    with pytest.raises(InvalidConfigError):
        sweeps.validate_spec(spec(methods=("gf", "exact")))
    with pytest.raises(InvalidConfigError):  # grids must increase
        sweeps.validate_spec(spec(var="alpha", grid=(0.5, -1.0)))
    with pytest.raises(UnstableError):  # rho grid hitting instability
        sweeps.validate_spec(spec(var="rho", grid=(0.5, 1.0)))
    with pytest.raises(InvalidConfigError):  # non-integer server count
        sweeps.validate_spec(spec(var="c", grid=(2, 2.5)))
    for grid in [(float("nan"),), (2, float("inf"))]:
        with pytest.raises(InvalidConfigError):
            sweeps.validate_spec(spec(var="c", grid=grid))


def test_spec_checks_itself_when_built():
    p = QueueParams(lam=1.0, mu=1.0, alpha=1.0, c=2)
    with pytest.raises(InvalidConfigError, match="unknown sweep variable 'beta'"):
        sweeps.SweepSpec(var="beta", grid=(0.5,), params=p)
    with pytest.raises(UnstableError):  # each point is built, so checked
        sweeps.SweepSpec(var="rho", grid=(0.5, 1.0), params=p)
    with pytest.raises(InvalidConfigError, match="empty sweep grid"):
        replace(spec(), grid=())


@pytest.mark.parametrize(
    "kw, message",
    [
        (dict(params="p"), "params must be a QueueParams, got 'p'"),
        (dict(costs=None), "costs must be a CostParams, got None"),
        (dict(grid=("a",)), "sweep grid must hold numbers, got ('a',)"),
        (dict(grid=None), "sweep grid must hold numbers, got None"),
        (dict(grid=5), "sweep grid must hold numbers, got 5"),
        (dict(methods=None), f"methods must be a nonempty subset of {sweeps.METHODS}"),
        (dict(grid=(0.1, 10**400)), f"sweep grid must hold numbers, got (0.1, {10**400})"),
    ],
    ids=["params", "costs", "grid", "grid-none", "grid-number", "methods-none", "grid-past-float"],
)
def test_spec_refuses_a_setting_of_the_wrong_type(kw, message):
    # params "p" and grid ("a",) once raised a bare TypeError and ValueError;
    # costs None built, and run_sweep then raised AttributeError outside the
    # rows' QueueModelError catch; grid None or 5 and methods None raised a
    # bare TypeError from len() or iteration
    with pytest.raises(InvalidConfigError) as exc:
        spec(**kw)
    assert str(exc.value) == message


def test_ratio_sweep_refuses_a_negative_grid():
    with pytest.raises(InvalidConfigError, match="cost ratio must be nonnegative"):
        spec(var="ratio", grid=(-1.0, 0.5))


def test_spec_with_sim_checks_the_simulator_settings():
    # 10 events leave no room for 20 batches: the spec is refused once,
    # where every row used to come back with error InvalidConfig
    with pytest.raises(InvalidConfigError, match="leave no room"):
        spec(methods=("gf", "sim"), sim_events=10)
    with pytest.raises(InvalidConfigError, match="seed must be"):
        replace(spec(methods=("sim",), sim_events=20_000), seed=-1)
    # 20000.0 events once built, and run_sweep then crashed on a bare
    # TypeError that no row's QueueModelError catch held
    with pytest.raises(InvalidConfigError, match="n_events must be an int"):
        spec(methods=("gf", "sim"), sim_events=20000.0)
    spec(methods=("gf",), sim_events=10)  # not simulated, so not checked


def test_alpha_sweep_rows():
    sp = spec(methods=("gf", "qbd"))
    rows = sweeps.run_sweep(sp)
    assert len(rows) == 3
    for k, row in enumerate(rows):
        assert row["index"] == k
        assert row["value"] == sp.grid[k]
        assert row["alpha"] == sp.grid[k]
        assert row["error"] == ""
        assert row["method_gap"] < sweeps.METHOD_GAP_LIMIT
    # faster setup means fewer jobs in system
    e = [row["e_jobs"] for row in rows]
    assert e[0] > e[1] > e[2]
    # always-on columns do not depend on alpha
    assert len({row["onidle_e_jobs"] for row in rows}) == 1


def test_nan_method_gap_is_flagged(monkeypatch):
    # a gap that is not a number cannot show agreement
    monkeypatch.setattr(sweeps, "report_gap", lambda reports: math.nan)
    rows = sweeps.run_sweep(spec(methods=("gf", "qbd")))
    assert [row["error"] for row in rows] == ["MethodDisagreement"] * 3


def test_rho_sweep_rescales_lambda():
    sp = spec(var="rho", grid=(0.3, 0.6))
    rows = sweeps.run_sweep(sp)
    assert rows[0]["lambda"] == pytest.approx(0.6)
    assert rows[1]["lambda"] == pytest.approx(1.2)
    assert rows[0]["e_jobs"] < rows[1]["e_jobs"]


def test_c_sweep_holds_rho():
    sp = spec(var="c", grid=(2, 4), params=QueueParams(lam=1.0, mu=1.0, alpha=0.7, c=2))
    rows = sweeps.run_sweep(sp)
    assert [row["c"] for row in rows] == [2, 4]
    assert rows[0]["rho"] == pytest.approx(rows[1]["rho"])
    assert rows[1]["lambda"] == pytest.approx(2.0)


def test_ratio_sweep_moves_costs_only():
    sp = spec(var="ratio", grid=(0.5, 2.0), costs=CostParams(c_active=1.0))
    rows = sweeps.run_sweep(sp)
    assert rows[0]["e_jobs"] == rows[1]["e_jobs"]
    assert rows[0]["cost_onoff"] < rows[1]["cost_onoff"]


def test_confluent_point_gives_no_error_row():
    # middle point sits exactly on alpha = mu (1 - rho): gf solves it like
    # any other point, so no row fails and none needs another method
    sp = spec(grid=(0.3, 0.5, 0.8), methods=("gf",))
    rows = sweeps.run_sweep(sp)
    assert [row["error"] for row in rows] == ["", "", ""]
    assert "fallback" not in sweeps.sweep_columns(sp)
    p = replace(sp.params, alpha=0.5)
    assert sweeps.solve_distribution(p, "gf").source == "gf"
    want = full_report(qbd.solve(p, with_g=False).distribution(), p).e_jobs
    assert rows[1]["e_jobs"] == pytest.approx(want, rel=1e-12)


def test_csv_deterministic():
    sp = spec(methods=("gf", "qbd"))
    assert sweeps.csv_text(sp, sweeps.run_sweep(sp)) == sweeps.csv_text(sp, sweeps.run_sweep(sp))


def test_csv_layout():
    sp = spec()
    rows = sweeps.run_sweep(sp)
    lines = sweeps.csv_text(sp, rows).strip().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    assert len(comments) == 3
    header = lines[len(comments)].split(",")
    assert header == sweeps.sweep_columns(sp)
    assert len(lines) == len(comments) + 1 + len(rows)
    # empty cell for an empty string, repr for floats
    first = dict(zip(header, lines[len(comments) + 1].split(",")))
    assert first["error"] == ""
    assert float(first["e_jobs"]) == pytest.approx(rows[0]["e_jobs"])


def test_sim_method_adds_columns():
    sp = spec(grid=(1.0,), methods=("gf", "sim"), sim_events=50_000)
    rows = sweeps.run_sweep(sp)
    cols = sweeps.sweep_columns(sp)
    assert "sim_e_jobs" in cols and "sim_hw_jobs" in cols
    row = rows[0]
    assert abs(row["sim_e_jobs"] - row["e_jobs"]) < 4 * row["sim_hw_jobs"]


def test_crossover_certificate():
    p = QueueParams(lam=10.0, mu=1.0, alpha=1.0, c=20)
    costs = CostParams(c_active=1.0, c_setup=1.0, c_idle=0.6)
    res = sweeps.crossover_finder(p, costs)
    assert res.lo < res.alpha_cross < res.hi
    assert abs(res.gap_at_root) < 1e-5 * res.cost_onidle
    assert res.cost_onidle == pytest.approx(mmc.onidle_cost(p, costs), rel=1e-12)


def test_crossover_increases_with_rho():
    costs = CostParams(c_active=1.0, c_setup=1.0, c_idle=0.6)
    roots = []
    for rho in (0.3, 0.5, 0.7):
        p = QueueParams(lam=20 * rho, mu=1.0, alpha=1.0, c=20)
        roots.append(sweeps.crossover_finder(p, costs).alpha_cross)
    assert roots[0] < roots[1] < roots[2]


def test_crossover_refuses_an_unknown_method():
    p = QueueParams(lam=1.0, mu=1.0, alpha=1.0, c=2)
    with pytest.raises(InvalidConfigError, match="unknown method 'bogus'"):
        sweeps.crossover_finder(p, method="bogus")


def test_crossover_requires_sign_change():
    # idle power priced at zero: always-on is never beaten, no root
    p = QueueParams(lam=10.0, mu=1.0, alpha=1.0, c=20)
    with pytest.raises(NoCrossingError):
        sweeps.crossover_finder(p, CostParams(c_idle=0.0))


@pytest.mark.parametrize(
    "lo, hi",
    [
        (1000.0, 1e-4),
        (1.0, 1.0),
        (0.0, 10.0),
        (-1.0, 10.0),
        (float("nan"), 10.0),
        ("1", 10.0),
        # an int no float can hold once raised OverflowError
        pytest.param(1e-4, 10**400, id="hi-past-float"),
    ],
)
def test_crossover_rejects_a_bracket_not_ascending(monkeypatch, lo, hi):
    # a reversed bracket would bisect zero times and return its midpoint as
    # a crossing; it is refused before any solve
    def no_solve(*args):
        raise AssertionError("solved before the bracket was checked")

    monkeypatch.setattr(sweeps, "solve_distribution", no_solve)
    p = QueueParams(lam=5.0, mu=1.0, alpha=1.0, c=10)
    with pytest.raises(InvalidConfigError):
        sweeps.crossover_finder(p, CostParams(), lo=lo, hi=hi)


@pytest.mark.parametrize("rho, alpha, c", [(0.95, 1e-4, 200), (0.5, 1e-5, 40)])
def test_slow_setup_row_is_not_flagged(rho, alpha, c):
    # gf and qbd reports agree within the sweep's flag limit at slow setup,
    # where E[jobs] is about 7e4 and the limit is absolute
    sp = spec(grid=(alpha,), params=QueueParams(lam=rho * c, mu=1.0, alpha=1.0, c=c),
              methods=("gf", "qbd"))
    (row,) = sweeps.run_sweep(sp)
    assert row["error"] == ""
    assert row["method_gap"] <= sweeps.METHOD_GAP_LIMIT


@pytest.mark.parametrize("rel_tol", [float("nan"), 0.0, -1.0, "1e-6"])
def test_crossover_rejects_bad_rel_tol_before_solving(monkeypatch, rel_tol):
    # a nan tolerance once ran no bisection step and returned the bracket
    # midpoint as the crossing
    calls = []
    monkeypatch.setattr(sweeps, "solve_distribution", lambda *a: calls.append(a))
    p = QueueParams(lam=5.0, mu=1.0, alpha=1.0, c=10)
    with pytest.raises(InvalidConfigError, match="rel_tol"):
        sweeps.crossover_finder(p, rel_tol=rel_tol)
    assert calls == []


FIGURE_POINTS = [(0.5, 10), (0.8, 10)]


def tight_bisection(p, costs, lo=1e-4, hi=1e3, rel_tol=1e-10):
    """Linear bisection on alpha with gf, the reference for the search."""
    base = mmc.onidle_cost(p, costs)

    def gap(a):
        q = replace(p, alpha=a)
        return full_report(gf.solve(q).distribution(), q, costs).cost_onoff - base

    g_lo = gap(lo)
    while hi - lo > rel_tol * 0.5 * (lo + hi):
        mid = 0.5 * (lo + hi)
        if (gap(mid) > 0) == (g_lo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("rho, c", FIGURE_POINTS)
def test_crossover_takes_few_solves(monkeypatch, rho, c):
    # both ends, the search steps and the final midpoint; linear bisection
    # on alpha took 34-36
    calls = []
    solve = sweeps.solve_distribution
    monkeypatch.setattr(sweeps, "solve_distribution", lambda *a: calls.append(a) or solve(*a))
    res = sweeps.crossover_finder(QueueParams(lam=rho * c, mu=1.0, alpha=1.0, c=c))
    assert len(calls) <= 12
    assert res.iterations == len(calls) - 3


@pytest.mark.parametrize("rho, c", FIGURE_POINTS)
def test_crossover_matches_tight_bisection(rho, c):
    p = QueueParams(lam=rho * c, mu=1.0, alpha=1.0, c=c)
    res = sweeps.crossover_finder(p)
    ref = tight_bisection(p, CostParams())
    assert abs(res.alpha_cross - ref) <= 2e-6 * ref


def itp_bound(lo, hi, rel_tol):
    return math.ceil(math.log2(math.log(hi / lo) / (2 * math.atanh(rel_tol / 2)))) + 1


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-10, 0.1])
@pytest.mark.parametrize(
    "f",
    [
        lambda a: math.tanh(1e6 * (a - 0.3)),  # a near-step
        lambda a: math.tanh(1e6 * (2.5 - a)),
        lambda a: a - 1.0000001e-4,  # a root next to either end
        lambda a: 999.9999 - a,
        lambda a: a - 37.0,  # linear
        lambda a: 1.0 - 2.0 * a,
    ],
)
def test_log_root_keeps_the_bisection_bound(f, rel_tol):
    lo, hi = 1e-4, 1e3
    a, b, steps = sweeps._log_root(f, lo, hi, f(lo), f(hi), rel_tol)
    assert steps <= itp_bound(lo, hi, rel_tol)
    assert lo <= a <= b <= hi
    assert b - a <= rel_tol * 0.5 * (a + b)
    assert a == b or (f(a) > 0) != (f(b) > 0)


def test_crossover_huge_rel_tol_takes_no_step(monkeypatch):
    # rel_tol >= 2 holds for any positive bracket: the ends, then the midpoint
    calls = []
    solve = sweeps.solve_distribution
    monkeypatch.setattr(sweeps, "solve_distribution", lambda *a: calls.append(a) or solve(*a))
    p = QueueParams(lam=5.0, mu=1.0, alpha=1.0, c=10)
    res = sweeps.crossover_finder(p, rel_tol=5.0, lo=0.01, hi=100.0)
    assert res.iterations == 0
    assert res.alpha_cross == 0.5 * (0.01 + 100.0)
    assert len(calls) == 3


@pytest.mark.parametrize("call, bad", [(1, math.nan), (2, -math.inf), (3, math.nan), (5, math.inf)])
def test_crossover_stops_on_a_non_finite_gap(monkeypatch, call, bad):
    # a nan gap at an end once read as NoCrossing, and mid-search it moved
    # the bracket silently; call 1 prices lo, call 2 hi, then the search
    seen = []

    def report(dist, p, costs):
        seen.append(p.alpha)
        rep = full_report(dist, p, costs)
        return replace(rep, cost_onoff=bad) if len(seen) == call else rep

    monkeypatch.setattr(sweeps, "full_report", report)
    p = QueueParams(lam=5.0, mu=1.0, alpha=1.0, c=10)
    with pytest.raises(InternalInconsistencyError) as exc:
        sweeps.crossover_finder(p)
    assert len(seen) == call
    assert f"alpha={seen[-1]!r}" in str(exc.value)
    assert repr(bad - mmc.onidle_cost(p, CostParams())) in str(exc.value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_crossover_refuses_a_bad_cost_weight(bad):
    # c_idle = nan once raised NoCrossing (nan), and inf NoCrossing (-inf)
    p = QueueParams(lam=2.0, mu=1.0, alpha=1.0, c=4)
    with pytest.raises(InvalidConfigError, match="c_idle"):
        sweeps.crossover_finder(p, CostParams(c_idle=bad))
