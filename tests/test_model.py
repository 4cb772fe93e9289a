import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from conftest import iter_states
from mmcsetup import gf, sim
from mmcsetup.errors import (
    InvalidConfigError,
    InvalidParameterError,
    InvalidStateError,
    UnstableError,
)
from mmcsetup.measures import full_report
from mmcsetup.model import (
    CostParams,
    QueueParams,
    State,
    n_setup,
    params_to_dict,
    read_config,
    resolve_params,
    transition_rates,
    validate,
)


def test_validate_ok():
    p = QueueParams(lam=1.0, mu=1.0, alpha=1.0, c=2)
    validate(p)
    assert p.rho == 0.5


def test_validate_unstable_boundary():
    with pytest.raises(UnstableError) as exc:
        validate(QueueParams(lam=2.0, mu=1.0, alpha=1.0, c=2))
    assert exc.value.rho == 1.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(lam=1.0, mu=1.0, alpha=1.0, c=0),
        dict(lam=-1.0, mu=1.0, alpha=1.0, c=2),
        dict(lam=1.0, mu=0.0, alpha=1.0, c=2),
        dict(lam=1.0, mu=1.0, alpha=-0.5, c=2),
        dict(lam=math.inf, mu=1.0, alpha=1.0, c=2),
        dict(lam=True, mu=1.0, alpha=1.0, c=2),
        dict(lam=1.0, mu=True, alpha=1.0, c=2),
        dict(lam=1.0, mu=1.0, alpha=True, c=2),
        # ints no float can hold once raised a bare OverflowError
        dict(lam=10**400, mu=1.0, alpha=1.0, c=2),
        dict(lam=1.0, mu=10**400, alpha=1.0, c=2),
        dict(lam=1.0, mu=1.0, alpha=10**400, c=2),
        dict(lam=1.0, mu=1.0, alpha=1.0, c=10**400),
    ],
)
def test_validate_bad_params(kwargs):
    with pytest.raises(InvalidParameterError):
        validate(QueueParams(**kwargs))


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(c=0), "c must be >= 1, got 0"),
        (dict(c=2.0), "c must be an int, got 2.0"),
        (dict(lam=math.nan), "lambda must be a finite number, got nan"),
        (dict(mu=0.0), "mu must be > 0, got 0.0"),
        (dict(alpha=-0.5), "alpha must be > 0, got -0.5"),
        pytest.param(
            dict(c=10**400), f"c must be an int within float range, got {10**400}", id="c-past-float"
        ),
        pytest.param(
            dict(lam=10**400), f"lambda must be a finite number, got {10**400}", id="lam-past-float"
        ),
    ],
)
def test_params_check_themselves_when_built(kwargs, message):
    # no solver re-checks its params, so an instance must not exist unchecked
    full = dict(lam=1.0, mu=1.0, alpha=1.0, c=2) | kwargs
    with pytest.raises(InvalidParameterError) as exc:
        QueueParams(**full)
    assert str(exc.value) == message
    with pytest.raises(InvalidParameterError) as exc:
        replace(QueueParams(lam=1.0, mu=1.0, alpha=1.0, c=2), **kwargs)
    assert str(exc.value) == message


def test_unstable_params_fail_when_built():
    p = QueueParams(lam=1.0, mu=1.0, alpha=1.0, c=2)
    for build in (
        lambda: QueueParams(lam=3.0, mu=1.0, alpha=1.0, c=2),
        lambda: replace(p, lam=2.0),
        lambda: replace(p, c=1),
    ):
        with pytest.raises(UnstableError):
            build()


P112 = QueueParams(lam=1.0, mu=1.0, alpha=1.0, c=2)


def test_transitions_empty_system():
    assert transition_rates(State(0, 0), P112) == [(State(0, 1), 1.0)]


def test_transitions_busy_no_queue():
    # one active server, no one waiting: departure powers the server off
    out = transition_rates(State(1, 1), P112)
    assert out == [(State(1, 2), 1.0), (State(0, 0), 1.0)]


def test_transitions_setup_channels():
    # i=1, j=3, c=2: min(j-i, c-i) = 1 server in setup
    out = transition_rates(State(1, 3), P112)
    assert out == [
        (State(1, 4), 1.0),
        (State(1, 2), 1.0),
        (State(2, 3), 1.0),
    ]


def test_transition_rate_totals():
    # total outgoing rate is lambda + i mu + min(j-i, c-i) alpha exactly
    p = QueueParams(lam=0.7, mu=1.3, alpha=0.4, c=3)
    for s in iter_states(p, 9):
        total = sum(r for _, r in transition_rates(s, p))
        expect = p.lam + s.i * p.mu + n_setup(s, p) * p.alpha
        assert total == pytest.approx(expect, abs=1e-15)


def test_transitions_bad_state():
    with pytest.raises(InvalidStateError):
        transition_rates(State(2, 1), P112)
    with pytest.raises(InvalidStateError):
        transition_rates(State(3, 5), P112)


def test_n_setup_definition():
    p = QueueParams(lam=1.0, mu=1.0, alpha=1.0, c=4)
    assert n_setup(State(1, 2), p) == 1
    assert n_setup(State(1, 9), p) == 3  # capped at c - i
    assert n_setup(State(4, 9), p) == 0


def test_iter_states_shape():
    p = QueueParams(lam=1.0, mu=1.0, alpha=1.0, c=2)
    states = list(iter_states(p, 4))
    # j=0 has 1 phase, j=1 has 2, j>=2 have 3
    assert len(states) == 1 + 2 + 3 + 3 + 3
    assert states[0] == State(0, 0)
    assert all(0 <= s.i <= min(s.j, 2) for s in states)


def test_config_roundtrip(tmp_path):
    path = tmp_path / "q.conf"
    path.write_text("# test\nrho = 0.5\nc = 4\nmu = 2\nalpha = 0.3\nci = 0.5\ncsw = 2\n")
    p, costs = resolve_params(read_config(str(path)))
    assert p == QueueParams(lam=4.0, mu=2.0, alpha=0.3, c=4)
    assert costs == CostParams(c_active=1.0, c_setup=1.0, c_idle=0.5, c_switch=2.0)
    assert params_to_dict(p)["lambda"] == 4.0


@pytest.mark.parametrize(
    "text",
    [
        "lambda = 1\nrho = 0.5\nc = 2\nalpha = 1\n",  # both lambda and rho
        "lambda = 1\nalpha = 1\n",  # missing c
        "lambda = 1\nc = 2\n",  # missing alpha
        "lambda = 1\nc = 2.5\nalpha = 1\n",  # non-integer c
        "lambda = 1\nc = nan\nalpha = 1\n",
        "lambda = 1\nc = inf\nalpha = 1\n",
        "lambda = 1\nc = 2\nalpha = 1\nbogus = 3\n",  # unknown key
        "lambda = 1\nlambda = 2\nc = 2\nalpha = 1\n",  # duplicate
        "what even is this\n",
        "lambda = 1\nc = 2\nalpha = 1\ncs = inf\n",  # cost weights are finite and >= 0
        "lambda = 1\nc = 2\nalpha = 1\nci = nan\n",
        "lambda = 1\nc = 2\nalpha = 1\ncsw = -0.5\n",
        "lambda = x\nc = 2\nalpha = 1\n",  # bad number
        "c = 2\nalpha = 1\n",  # neither lambda nor rho
    ],
)
def test_config_rejects(tmp_path, text):
    path = tmp_path / "bad.conf"
    path.write_text(text)
    with pytest.raises(InvalidConfigError):
        resolve_params(read_config(str(path)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, "2", True, pytest.param(10**400, id="int-past-float")])
@pytest.mark.parametrize("name", ["c_active", "c_setup", "c_idle", "c_switch"])
def test_cost_params_reject_bad_weights(name, bad):
    # library callers build CostParams directly, past resolve_params' check
    with pytest.raises(InvalidConfigError, match=f"cost {name} must be finite and >= 0"):
        CostParams(**{name: bad})
    with pytest.raises(InvalidConfigError):
        replace(CostParams(), **{name: bad})
    assert getattr(CostParams(**{name: 0.0}), name) == 0.0


def test_numpy_numbers_are_kept_as_python_numbers():
    # np.int64 and np.float32 rates were refused as "not a finite number",
    # and a np.float32 cost weight made full_report's costs single precision
    # and its to_dict unreadable to json
    p = QueueParams(np.int64(5), np.float32(1), np.int64(10), np.float64(0.7))
    costs = CostParams(np.int64(1), np.float32(1.3), np.float64(0.6), np.int64(2))
    cfg = sim.SimConfig(p, np.int64(20_000), np.float32(0.25), np.int64(3), np.int64(10))
    for obj in (p, costs, cfg):
        for name, v in vars(obj).items():
            if name not in ("params", "trace_path"):
                assert type(v) in (int, float), (name, v)
    assert p == QueueParams(5, 1.0, 10, 0.7)
    assert costs.c_setup == float(np.float32(1.3))
    d = gf.solve(p).distribution()
    report = full_report(d, p, costs)
    for obj in (
        params_to_dict(p),
        asdict(costs),
        report.to_dict(),
        sim.simulate(cfg).to_dict(),
        gf.solve(p, dps=np.int64(20)).info,
    ):
        json.dumps(obj)
    want = full_report(d, p, CostParams(1, float(np.float32(1.3)), 0.6, 2)).cost_onoff
    assert type(report.cost_onoff) is float and report.cost_onoff == want
