from dataclasses import replace
import json
import math

import numpy as np
import pytest
from scipy.special import stdtrit
from scipy.stats import t as student_t

from conftest import gf_solution
from mmcsetup import measures, sim
from mmcsetup.errors import InternalInconsistencyError, InvalidConfigError
from mmcsetup.model import QueueParams

P112 = QueueParams(lam=1.0, mu=1.0, alpha=1.0, c=2)


def run(p, **kw):
    kw.setdefault("n_events", 200_000)
    kw.setdefault("seed", 7)
    return sim.simulate(sim.SimConfig(params=p, **kw))


def test_deterministic_under_seed():
    a = run(P112)
    b = run(P112)
    assert a.to_dict() == b.to_dict()
    c = run(P112, seed=8)
    assert c.e_jobs != a.e_jobs


def test_matches_analytic_within_bands():
    est = run(P112)
    rep = measures.full_report(gf_solution(P112).distribution(), P112)
    ver = sim.validate_against(rep, est)
    assert ver.passed, [r for r in ver.rows if not r["ok"]]
    # every comparison carries a positive half-width
    assert all(r["halfwidth"] > 0 for r in ver.rows)


def test_detects_wrong_model():
    # analytic report for a 5% slower arrival stream must be flagged
    est = run(P112, n_events=400_000)
    p_wrong = QueueParams(lam=0.95, mu=1.0, alpha=1.0, c=2)
    rep = measures.full_report(gf_solution(p_wrong).distribution(), p_wrong)
    ver = sim.validate_against(rep, est)
    failed = {r["metric"] for r in ver.rows if not r["ok"]}
    assert "e_jobs" in failed


def test_off_on_rates_balance():
    # long run: servers enter and leave the off pool equally often
    est = run(P112, n_events=500_000)
    assert est.off_to_on_rate == pytest.approx(est.on_to_off_rate, rel=0.05)
    assert est.switching_rate == est.off_to_on_rate


def test_phase_marginal_normalized():
    est = run(P112)
    assert sum(est.phase_marginal) == pytest.approx(1.0, abs=1e-12)


def test_config_rejections():
    with pytest.raises(InvalidConfigError):
        sim.simulate(sim.SimConfig(params=P112, n_batches=5))
    with pytest.raises(InvalidConfigError):
        sim.simulate(sim.SimConfig(params=P112, warmup_fraction=1.0))
    with pytest.raises(InvalidConfigError):
        sim.simulate(sim.SimConfig(params=P112, warmup_fraction=-0.1))
    with pytest.raises(InvalidConfigError):
        sim.simulate(sim.SimConfig(params=P112, n_events=15))


@pytest.mark.parametrize(
    "kw, message",
    [
        (dict(n_batches=5), "need at least 10 batches"),
        (dict(warmup_fraction=1.0), "warmup fraction must be in"),
        (dict(n_events=15), "leave no room"),
        (dict(trace_limit=10), "an event trace needs both"),
    ],
)
def test_config_checks_itself_when_built(kw, message):
    with pytest.raises(InvalidConfigError, match=message):
        sim.SimConfig(params=P112, **kw)


@pytest.mark.parametrize("seed", [-1, 1.5, "7", None, True, False])
def test_seed_must_be_a_nonnegative_integer(seed):
    # numpy's default_rng raised a bare ValueError for -1 once simulate ran,
    # and True passed as seed 1 while the counts refused bools
    message = "seed must be a nonnegative integer"
    with pytest.raises(InvalidConfigError, match=message):
        sim.SimConfig(params=P112, seed=seed)
    with pytest.raises(InvalidConfigError, match=message):
        replace(sim.SimConfig(params=P112), seed=seed)
    assert sim.SimConfig(params=P112, seed=np.int64(3)).seed == 3


@pytest.mark.parametrize(
    "params", [None, {"lam": 1.0, "mu": 1.0, "alpha": 1.0, "c": 2}, (1.0, 1.0, 1.0, 2)]
)
def test_params_must_be_queue_params(params):
    # None once built, and simulate then raised a bare AttributeError
    with pytest.raises(InvalidConfigError, match="params must be a QueueParams"):
        sim.SimConfig(params=params, n_events=20_000)
    with pytest.raises(InvalidConfigError, match="params must be a QueueParams"):
        replace(sim.SimConfig(params=P112), params=params)


@pytest.mark.parametrize("name", ["n_events", "n_batches", "trace_limit"])
@pytest.mark.parametrize("value", [20_000.0, 10.5, True, "20"])
def test_counts_must_be_ints(name, value):
    # a float count once built, and simulate then raised a bare TypeError
    with pytest.raises(InvalidConfigError, match=f"{name} must be an int"):
        sim.SimConfig(params=P112, **{name: value})


@pytest.mark.parametrize("value", ["0.1", None, False, True])
def test_warmup_fraction_must_be_a_real_number(value):
    # a string or None once raised a bare TypeError from the range check,
    # and False passed as 0.0
    with pytest.raises(InvalidConfigError, match="warmup fraction must be a real number"):
        sim.SimConfig(params=P112, warmup_fraction=value)
    for ok in (0, np.float64(0.25)):
        assert sim.SimConfig(params=P112, warmup_fraction=ok).warmup_fraction == ok


def test_numpy_int_counts_are_accepted():
    est = run(P112, n_events=np.int64(20_000), n_batches=np.int64(10))
    assert est.n_events == 20_000 and est.n_batches == 10


def test_numpy_int_settings_give_json_serialisable_estimates():
    # the counts and the seed come back as plain ints, so the JSON is that
    # of the same run with Python ints
    got = run(P112, n_events=np.int64(20_000), n_batches=np.int64(10), seed=np.int64(3))
    want = run(P112, n_events=20_000, n_batches=10, seed=3)
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())


def test_zero_warmup_allowed():
    est = run(P112, warmup_fraction=0.0, n_events=100_000)
    assert est.n_events == 100_000
    assert est.e_jobs > 0


def test_event_trace(tmp_path):
    path = tmp_path / "trace.csv"
    run(P112, n_events=100_000, trace_limit=50, trace_path=str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "event,kind,active,in_setup,jobs"
    assert len(lines) == 51
    kinds = {ln.split(",")[1] for ln in lines[1:]}
    assert kinds <= {"arrival", "departure", "shutdown", "activation"}
    assert "arrival" in kinds


def test_estimate_to_dict_round():
    d = run(P112, n_events=50_000).to_dict()
    for key in ("e_jobs", "hw_jobs", "switching_rate", "phase_marginal", "seed"):
        assert key in d
    assert d["n_batches"] == 20


def test_validation_report_to_dict():
    est = run(P112)
    rep = measures.full_report(gf_solution(P112).distribution(), P112)
    d = sim.validate_against(rep, est).to_dict()
    assert d["passed"] is True
    rows = d["metrics"]
    assert {r["metric"] for r in rows} >= {"e_jobs", "e_active", "switching_rate"}


@pytest.mark.parametrize(
    "p_ref",
    [QueueParams(lam=0.5, mu=1.0, alpha=1.0, c=1), QueueParams(lam=1.0, mu=1.0, alpha=1.0, c=3)],
    ids=["c1", "c3"],
)
def test_validation_refuses_a_report_for_another_c(p_ref):
    # a c = 3 report once compared only the run's three phases, without an
    # error, and a c = 1 report raised a bare IndexError
    est = run(P112, n_events=20_000)
    rep = measures.full_report(gf_solution(p_ref).distribution(), p_ref)
    n = p_ref.c + 1
    with pytest.raises(InvalidConfigError, match=rf"report has {n} phases .* simulation 3 \(c = 2\)"):
        sim.validate_against(rep, est)


def test_trace_needs_path_and_limit(tmp_path):
    path = tmp_path / "trace.csv"
    with pytest.raises(InvalidConfigError):
        sim.simulate(sim.SimConfig(params=P112, trace_path=str(path)))
    with pytest.raises(InvalidConfigError):
        sim.simulate(sim.SimConfig(params=P112, trace_limit=10))
    assert not path.exists()


def reference_run(cfg):
    """One Python step per event, accumulating every batch integral as it
    goes: the straightforward form of the simulator's sample path and
    estimator.  Returns the trace rows of all events and the estimate."""
    p = cfg.params
    lam, mu, alpha, c = p.lam, p.mu, p.alpha, p.c
    nb = cfg.n_batches
    n_warm = int(cfg.n_events * cfg.warmup_fraction)
    size = (cfg.n_events - n_warm) // nb
    n_total = n_warm + size * nb
    # one draw for the whole run: the simulator's chunks of any even size
    # read the same stream
    u = np.random.default_rng(cfg.seed).random(2 * n_total).tolist()
    # per batch: time, jobs, active, setup integrals, on and off counts, phases
    acc = [[0.0] * (6 + c + 1) for _ in range(nb)]
    rows = []
    i = s = j = 0
    for n in range(n_total):
        total = lam + i * mu + s * alpha
        dt = -math.log(1.0 - u[2 * n]) / total
        a = acc[(n - n_warm) // size] if n >= n_warm else [0.0] * (6 + c + 1)
        a[0] += dt
        a[1] += j * dt
        a[2] += i * dt
        a[3] += s * dt
        a[6 + i] += dt
        x = u[2 * n + 1] * total
        if x < lam:
            kind = "arrival"
            j += 1
            s += i + s < c
        elif x < lam + i * mu:
            j -= 1
            if j >= i:
                kind = "departure"
                s -= s > j - i
            else:
                kind = "shutdown"
                i -= 1
                a[5] += 1
        else:
            kind = "activation"
            s -= 1
            i += 1
            a[4] += 1
        rows.append(f"{n},{kind},{i},{s},{j}")
    acc = np.array(acc)
    means = acc[:, 1:] / acc[:, :1]
    q = student_t.ppf(0.975, nb - 1)
    hw = [q * means[:, k].std(ddof=1) / math.sqrt(nb) for k in range(means.shape[1])]
    est = {
        "e_jobs": means[:, 0].mean(),
        "e_active": means[:, 1].mean(),
        "e_setup": means[:, 2].mean(),
        "switching_rate": means[:, 3].mean(),
        "phase_marginal": means[:, 5:].mean(axis=0),
        "hw_jobs": hw[0],
        "hw_active": hw[1],
        "hw_setup": hw[2],
        "hw_switching": hw[3],
        "hw_marginal": hw[5:],
        "off_to_on_rate": means[:, 3].mean(),
        "on_to_off_rate": means[:, 4].mean(),
        "n_events": n_total,
        "sim_time": acc[:, 0].sum(),
        "n_batches": nb,
        "seed": cfg.seed,
    }
    return rows, est


@pytest.mark.parametrize(
    "p, kw",
    [
        (P112, {}),
        (QueueParams(lam=5.0, mu=1.0, alpha=0.1, c=10), {}),
        # the benchmark's c = 50 point, where codes 1 and 3 are rare
        (QueueParams(lam=25.0, mu=1.0, alpha=0.7, c=50), {}),
        # batches of 315 events, so one chunk holds many batches
        (QueueParams(lam=5.0, mu=1.0, alpha=0.1, c=10), {"n_batches": 200}),
        # a warm-up of one chunk's events, so the first batch starts a chunk
        (P112, {"n_events": 10 * (sim._CHUNK // 2)}),
    ],
    ids=["c2", "c10", "c50", "short_batches", "warmup_on_chunk_edge"],
)
def test_same_path_as_per_event_loop(tmp_path, p, kw):
    # 70k events cross the boundaries between chunks of uniforms
    kw = {"n_events": 70_000, **kw}
    n = kw["n_events"]
    assert n > sim._CHUNK // 2
    path = tmp_path / "trace.csv"
    cfg = sim.SimConfig(params=p, seed=5, trace_limit=n, trace_path=str(path), **kw)
    est = sim.simulate(cfg)
    rows, ref = reference_run(cfg)
    assert path.read_text().splitlines()[1:] == rows
    for key, val in ref.items():
        assert getattr(est, key) == pytest.approx(val, rel=1e-12, abs=0), key


def test_t_quantile_matches_scipy():
    for df in [*range(1, 201), 500, 1000, 10_000]:
        want = stdtrit(df, 0.975)
        assert sim._t_quantile(df, 0.975) == pytest.approx(want, rel=1e-13, abs=0), df


def test_t_quantile_closed_forms():
    # Cauchy at df = 1; at df = 2 the cdf is 1/2 + t/(2 sqrt(2 + t^2))
    p = 0.975
    t1 = math.tan(0.475 * math.pi)
    t2 = (2 * p - 1) / math.sqrt(2 * p * (1 - p))
    assert sim._t_quantile(1, p) == pytest.approx(t1, rel=1e-14, abs=0)
    assert sim._t_quantile(2, p) == pytest.approx(t2, rel=1e-14, abs=0)


def test_setup_invariant_names_first_bad_state():
    # (active, in-setup, jobs) with c = 2: rows 2 and 3 break s = min(j-i, c-i)
    states = np.array([(0, 1, 1), (0, 2, 2), (0, 1, 3), (1, 0, 3)]).T
    with pytest.raises(InternalInconsistencyError, match="i=0 j=3 after event 12"):
        sim._check_setup_invariant(states, 2, 10)
    sim._check_setup_invariant(states[:, :2], 2, 10)


def test_inconsistent_policy_delta_is_caught(monkeypatch):
    # an arrival that starts no setup leaves the first state (0, 0, 1) wrong
    deltas = sim._DELTAS.copy()
    deltas[0] = (0, 0, 1)
    monkeypatch.setattr(sim, "_DELTAS", deltas)
    with pytest.raises(InternalInconsistencyError, match="after event 0$"):
        run(P112, n_events=1000)
