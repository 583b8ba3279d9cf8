import math

import numpy as np
import pytest

from convexvi.distributions import BERNOULLI, HALF_NORMAL, LOG_NORMAL, NORMAL, Categorical
from convexvi.model import (
    ModelError,
    build_joint,
    condition,
    joint_log_prob,
    latent_log_prob,
    rv,
    sample_forward,
)

LOG_2PI = math.log(2.0 * math.pi)


def two_normals():
    return build_joint(
        [
            rv("a", NORMAL, params=(0.0, 1.0)),
            rv("b", NORMAL, params=(0.0, 1.0)),
        ]
    )


def chain_xy():
    return build_joint(
        [
            rv("x", NORMAL, params=(0.0, 1.0)),
            rv("y", NORMAL, parents=("x",), link=lambda x: (x, 1.0)),
        ]
    )


def test_build_two_independent_normals():
    m = two_normals()
    assert len(m.nodes) == 2
    assert all(n.parents == () for n in m.nodes)


def test_chain_topological_order():
    m = chain_xy()
    assert [n.name for n in m.nodes] == ["x", "y"]


def test_out_of_order_declaration_is_sorted():
    m = build_joint(
        [
            rv("y", NORMAL, parents=("x",), link=lambda x: (x, 1.0)),
            rv("x", NORMAL, params=(0.0, 1.0)),
        ]
    )
    assert [n.name for n in m.nodes] == ["x", "y"]


def test_undeclared_parent_rejected():
    with pytest.raises(ModelError, match="undeclared parent"):
        build_joint([rv("y", NORMAL, parents=("nope",), link=lambda x: (x, 1.0))])


def test_duplicate_name_rejected():
    with pytest.raises(ModelError, match="duplicate"):
        build_joint([rv("x", NORMAL, params=(0.0, 1.0)), rv("x", NORMAL, params=(0.0, 1.0))])


def test_cycle_rejected():
    with pytest.raises(ModelError, match="cycle"):
        build_joint(
            [
                rv("a", NORMAL, parents=("b",), link=lambda b: (b, 1.0)),
                rv("b", NORMAL, parents=("a",), link=lambda a: (a, 1.0)),
            ]
        )


def test_sample_forward_degenerate_scale():
    m = build_joint([rv("x", NORMAL, params=(0.0, 1e-12))])
    tr = sample_forward(m, seed=0)
    assert abs(tr.values["x"]) < 1e-5


def test_sample_forward_deterministic():
    m = chain_xy()
    t1 = sample_forward(m, seed=123)
    t2 = sample_forward(m, seed=123)
    assert t1.values == t2.values
    assert t1.total == t2.total


def test_joint_log_prob_two_normals_at_zero():
    m = two_normals()
    assert joint_log_prob(m, {"a": 0.0, "b": 0.0}) == pytest.approx(-LOG_2PI, abs=1e-6)
    assert joint_log_prob(m, {"a": 0.0, "b": 0.0}) == pytest.approx(-1.837877, abs=1e-6)


def test_joint_log_prob_chain_at_zero():
    m = chain_xy()
    assert joint_log_prob(m, {"x": 0.0, "y": 0.0}) == pytest.approx(-1.837877, abs=1e-6)


def test_joint_log_prob_with_observation():
    m = condition(chain_xy(), {"y": 1.0})
    assert joint_log_prob(m, {"x": 0.0}) == pytest.approx(-2.337878, abs=1e-6)


def test_joint_log_prob_missing_assignment():
    m = chain_xy()
    with pytest.raises(ModelError, match="missing"):
        joint_log_prob(m, {"x": 0.0})


def test_condition_validations():
    m = chain_xy()
    assert condition(m, {}).observations == {}
    with pytest.raises(ModelError, match="unknown"):
        condition(m, {"zzz": 1.0})
    c = condition(m, {"y": 0.5})
    with pytest.raises(ModelError, match="already observed"):
        condition(c, {"y": 0.7})
    disc = build_joint([rv("b", BERNOULLI, params=(0.5,))])
    with pytest.raises(ModelError, match="support"):
        condition(disc, {"b": 0.25})


@pytest.mark.parametrize(
    "family", [NORMAL, HALF_NORMAL, LOG_NORMAL, BERNOULLI, Categorical(3)], ids=lambda f: f.name
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_condition_rejects_a_non_finite_observation(family, value):
    params = {"Categorical": ([0.2, 0.3, 0.5],), "HalfNormal": (1.0,), "Bernoulli": (0.5,)}.get(family.name, (0.0, 1.0))
    m = build_joint([rv("x", family, params=params)])
    with pytest.raises(ModelError, match="not finite"):
        condition(m, {"x": value})


def test_condition_shrinks_latent_set():
    m = condition(chain_xy(), {"y": 1.0})
    assert [n.name for n in m.latent_nodes] == ["x"]
    assert [n.name for n in m.observed_nodes] == ["y"]


def test_total_equals_sum_of_terms():
    m = condition(chain_xy(), {"y": 0.3})
    tr = sample_forward(m, seed=5)
    x = tr.values["x"]
    total = NORMAL.log_prob((0.0, 1.0), x) + NORMAL.log_prob((x, 1.0), 0.3)
    assert tr.total == pytest.approx(total, abs=1e-12)
    assert joint_log_prob(m, tr.values) == pytest.approx(total, abs=1e-12)


def test_latent_log_prob_excludes_likelihood():
    m = condition(chain_xy(), {"y": 1.0})
    tr = sample_forward(m, seed=5)
    prior = NORMAL.log_prob((0.0, 1.0), tr.values["x"])
    assert latent_log_prob(m, tr.values) == pytest.approx(prior, abs=1e-12)


def test_forward_samples_have_finite_log_prob():
    m = condition(chain_xy(), {"y": 0.1})
    for seed in range(1000):
        tr = sample_forward(m, seed=seed)
        assert math.isfinite(tr.total)


def test_reordering_declarations_preserves_log_prob():
    def make(order):
        nodes = {
            "x": rv("x", NORMAL, params=(0.0, 1.0)),
            "y": rv("y", NORMAL, parents=("x",), link=lambda x: (x * 0.5, 1.0)),
            "z": rv("z", NORMAL, parents=("x", "y"), link=lambda x, y: (x + y, 2.0)),
        }
        return build_joint([nodes[k] for k in order])

    vals = {"x": 0.3, "y": -0.8, "z": 1.1}
    base = joint_log_prob(make("xyz"), vals)
    for order in ("xzy", "yxz"):
        # only parent-before-child orders are representable; both sort the same
        assert joint_log_prob(make(order), vals) == base


def test_discrete_branch_control_flow():
    # a Bernoulli gate selecting between two parameter rules
    m = build_joint(
        [
            rv("gate", BERNOULLI, params=(0.5,)),
            rv("x", NORMAL, parents=("gate",), link=lambda g: (5.0, 0.1) if g == 1.0 else (-5.0, 0.1)),
        ]
    )
    rng_hits = {1.0: 0, 0.0: 0}
    for seed in range(50):
        tr = sample_forward(m, seed=seed)
        rng_hits[tr.values["gate"]] += 1
        center = 5.0 if tr.values["gate"] == 1.0 else -5.0
        assert abs(tr.values["x"] - center) < 1.0
    assert rng_hits[0.0] > 0 and rng_hits[1.0] > 0


def test_brownian_increment_sd():
    # 30-step random walk: increments should have SD ~ sigma*sqrt(dt)
    dt, sigma = 0.01, 0.1
    step_scale = sigma * math.sqrt(dt)
    nodes = [rv("x_0", NORMAL, params=(0.0, step_scale))]
    for t in range(1, 30):
        nodes.append(
            rv(f"x_{t}", NORMAL, parents=(f"x_{t-1}",), link=lambda p: (p, step_scale))
        )
    m = build_joint(nodes)
    incs = []
    for seed in range(10**4 // 29 + 1):
        tr = sample_forward(m, seed=seed)
        xs = [tr.values[f"x_{t}"] for t in range(30)]
        incs.extend(np.diff(xs))
    sd = float(np.std(incs))
    assert abs(sd - step_scale) / step_scale < 0.05
