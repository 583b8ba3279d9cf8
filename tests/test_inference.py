import math

import numpy as np
import pytest

from convexvi.autodiff import value_of
from convexvi.distributions import LOG_NORMAL, NORMAL, unconstrain_param
from convexvi.inference import (
    AdamState,
    CompiledElbo,
    NonFiniteError,
    TrainConfig,
    adam_step,
    elbo_estimate,
    elbo_gradient,
    fit,
    save_trajectory,
    surrogate_moments,
)
from convexvi.model import ModelError, build_joint, condition, rv
from convexvi.oracles import (
    ChainConfig,
    LinearGaussianChainSpec,
    enumerate_discrete_posterior,
    exact_discrete_elbo_gradient,
    kalman_filter_smoother,
)
from convexvi.distributions import BERNOULLI
from convexvi.surrogates import build_surrogate
from convexvi.tasks import TASK_IDS, generate_data, get_task


def conjugate_pair(y=2.0):
    m = build_joint(
        [
            rv("x", NORMAL, params=(0.0, 1.0)),
            rv("y", NORMAL, parents=("x",), link=lambda x: (x, 1.0)),
        ]
    )
    return condition(m, {"y": y})


def brownian(T=8, q=0.01, r=0.04, seed=0):
    sq, sr = math.sqrt(q), math.sqrt(r)
    mask = [t < T // 2 for t in range(T)]
    nodes = [rv("x_0", NORMAL, params=(0.0, sq))]
    for t in range(1, T):
        nodes.append(rv(f"x_{t}", NORMAL, parents=(f"x_{t-1}",), link=lambda p: (p, sq)))
    for t in range(T):
        if mask[t]:
            nodes.append(rv(f"y_{t}", NORMAL, parents=(f"x_{t}",), link=lambda p: (p, sr)))
    rng = np.random.default_rng(seed)
    obs = {f"y_{t}": float(rng.normal(0, 0.2)) for t in range(T) if mask[t]}
    model = condition(build_joint(nodes), obs)
    spec = LinearGaussianChainSpec(
        init_mean=0.0,
        init_var=q,
        transition=[1.0] * (T - 1),
        innovation_var=[q] * (T - 1),
        obs_var=[r] * T,
        mask=mask,
    )
    kalman = kalman_filter_smoother(spec, {t: obs[f"y_{t}"] for t in range(T) if mask[t]})
    return model, kalman


def test_elbo_zero_when_q_is_prior():
    m = build_joint(
        [
            rv("a", NORMAL, params=(0.3, 1.2)),
            rv("b", LOG_NORMAL, parents=("a",), link=lambda a: (a, 0.7)),
        ]
    )
    m = condition(m, {})
    asvi = build_surrogate("asvi", m)
    params = asvi.init_params.copy()
    for name, idx in asvi.param_index.items():
        if name.endswith(".lam_logit"):
            params[idx] = 40.0
    est = elbo_estimate(m, asvi, params, n_samples=50, seed=0)
    assert est.per_sample_terms == (0.0,) * 50


def test_elbo_at_exact_posterior_equals_log_evidence():
    m = conjugate_pair(y=2.0)
    mf = build_surrogate("mean-field", m)
    params = mf.init_params.copy()
    params[mf.param_index["x.loc.alpha"]] = 1.0
    params[mf.param_index["x.scale.alpha"]] = unconstrain_param("positive", math.sqrt(0.5))
    log_evidence = -0.5 * math.log(4 * math.pi) - 1.0
    est = elbo_estimate(m, mf, params, n_samples=100, seed=3)
    # log p - log q is constant (= log Z) when q is the exact posterior
    assert est.value == pytest.approx(log_evidence, abs=1e-9)
    assert np.std(est.per_sample_terms) < 1e-9


def test_elbo_bounded_by_kalman_evidence():
    model, kalman = brownian(seed=2)
    asvi = build_surrogate("asvi", model, init_seed=1)
    est = elbo_estimate(model, asvi, asvi.init_params, n_samples=2000, seed=5)
    se = np.std(est.per_sample_terms) / math.sqrt(est.n_samples)
    assert est.value <= kalman.log_evidence + 3 * se


def test_elbo_estimate_rejects_bad_sample_count():
    m = conjugate_pair()
    mf = build_surrogate("mean-field", m)
    with pytest.raises(ValueError):
        elbo_estimate(m, mf, mf.init_params, n_samples=0)


def test_elbo_nonfinite_raises_diagnostic():
    m = build_joint(
        [
            rv("s", LOG_NORMAL, params=(0.0, 1.0)),
            rv("x", NORMAL, parents=("s",), link=lambda s: (0.0, s)),
        ]
    )
    m = condition(m, {"x": 0.5})
    asvi = build_surrogate("asvi", m)
    params = asvi.init_params.copy()
    params[asvi.param_index["s.loc.alpha"]] = 1000.0  # exp overflow -> inf sample
    params[asvi.param_index["s.loc.lam_logit"]] = -40.0
    with pytest.raises(NonFiniteError):
        elbo_estimate(m, asvi, params, n_samples=4, seed=0)


def central_diff_gradient(model, surrogate, params, n_samples, seed, h=1e-5):
    grad = np.zeros(len(params))
    for i in range(len(params)):
        hi = np.array(params, dtype=float)
        lo = hi.copy()
        hi[i] += h
        lo[i] -= h
        f_hi = elbo_estimate(model, surrogate, hi, n_samples, seed).value
        f_lo = elbo_estimate(model, surrogate, lo, n_samples, seed).value
        grad[i] = (f_hi - f_lo) / (2 * h)
    return grad


def test_gradient_matches_common_random_number_differences():
    model, _ = brownian(T=5, seed=3)
    asvi = build_surrogate("asvi", model, init_seed=2)
    rng = np.random.default_rng(0)
    for trial in range(3):
        params = asvi.init_params + 0.1 * rng.standard_normal(asvi.num_params)
        g = elbo_gradient(model, asvi, params, n_samples=2, seed=17 + trial)
        fd = central_diff_gradient(model, asvi, params, n_samples=2, seed=17 + trial)
        rel = np.abs(g - fd) / np.maximum(1.0, np.abs(g))
        assert rel.max() < 1e-4


def test_gradient_zero_for_unused_direction():
    # mean-field alpha of an unobserved, childless node enters log p and
    # log q with exactly cancelling pathwise terms at lam=0 ... but a
    # *separate* frozen surrogate parameter must have exactly zero grad.
    model = conjugate_pair()
    asvi = build_surrogate("asvi", model)
    g = elbo_gradient(model, asvi, asvi.init_params, n_samples=1, seed=0)
    assert g.shape == (asvi.num_params,)


def draw(surrogate, n_samples, rng):
    return [surrogate.draw_noise(rng) for _ in range(n_samples)]


@pytest.mark.parametrize("kind", ["asvi", "mean-field", "ar1", "mvn"])
@pytest.mark.parametrize("task_id", TASK_IDS)
def test_replay_is_bit_identical_to_recording(task_id, kind):
    task = get_task(task_id)
    model = task.model
    if not task.is_pre_conditioned:
        model = condition(model, generate_data(task, seed=1)[0])
    surrogate = build_surrogate(kind, model, init_seed=1)
    for n_samples in (1, 2):
        params = surrogate.init_params.copy()
        recorded_at = draw(surrogate, n_samples, np.random.default_rng(99))
        graph = CompiledElbo(model, surrogate, params, recorded_at)
        for seed in range(3):
            draws = draw(surrogate, n_samples, np.random.default_rng(seed))
            value, grad = graph.replay(params, draws)
            fresh = CompiledElbo(model, surrogate, params, draws)
            assert fresh.tape.fingerprint() == graph.tape.fingerprint()
            assert value == fresh.value
            assert grad.tobytes() == fresh.gradient().tobytes()
            g = elbo_gradient(model, surrogate, params, n_samples, seed=seed)
            assert grad.tobytes() == g.tobytes()
            # the float path sums the log-densities in its own order
            est = elbo_estimate(model, surrogate, params, n_samples, seed=seed)
            assert value == pytest.approx(est.value)
            params = params + 0.01 * np.tanh(grad)


def branching_link_model():
    m = build_joint(
        [
            rv("x", NORMAL, params=(0.0, 1.0)),
            rv(
                "y",
                NORMAL,
                parents=("x",),
                link=lambda x: (x, 1.0) if value_of(x) > 0 else (-x, 3.0),
            ),
        ]
    )
    return condition(m, {"y": 0.5})


def recorded_fit(model, config):
    """What `fit` does with an asvi surrogate at its default learning rate,
    recording the graph at every step and never stopping early."""
    surrogate = build_surrogate("asvi", model, init_seed=config.seed)
    rng = np.random.default_rng(config.seed)
    params = surrogate.init_params.copy()
    state = AdamState.fresh(len(params), lr=1e-2)
    losses = []
    for _ in range(config.steps):
        graph = CompiledElbo(model, surrogate, params, draw(surrogate, config.n_samples, rng))
        losses.append(-graph.value)
        state, params = adam_step(state, graph.gradient(), params)
    return params, losses


def test_fit_stops_replaying_a_graph_that_changed():
    model = branching_link_model()
    # the first check is at step 1, the next ones at multiples of `window`;
    # at seeds 0, 2 and 3 the branch taken changes by step 1, at seeds 6
    # and 7 it shows only at step 20
    for seed, window, caught_at in [(0, 0, 1), (2, 0, 1), (3, 0, 1), (6, 20, 20), (7, 20, 20)]:
        cfg = TrainConfig(steps=60, seed=seed, window=window, patience=100, record_every=1)
        result = fit(model, "asvi", cfg)
        assert result.rerecord_from == caught_at, seed
        if caught_at == 1:
            # no step ran on a stale graph, so the fit is the recorded one
            params, losses = recorded_fit(model, cfg)
            assert result.params.tobytes() == params.tobytes()
            assert [loss for _, loss, _ in result.trajectory] == losses


def test_fit_keeps_replaying_a_fixed_graph():
    model, _ = brownian(T=6, seed=5)
    result = fit(model, "asvi", TrainConfig(steps=50, seed=1, window=10))
    assert result.rerecord_from is None


def test_zero_division_while_recording_is_divergence():
    m = build_joint(
        [
            rv("x", NORMAL, params=(0.0, 1.0)),
            rv("y", NORMAL, parents=("x",), link=lambda x: (x, 1.0 + 0.0 / (x - x))),
        ]
    )
    m = condition(m, {"y": 0.5})
    result = fit(m, "asvi", TrainConfig(steps=10, seed=0, window=0))
    assert result.diverged
    assert result.steps_run == 0


def test_model_error_is_raised_not_divergence():
    def link(x):
        raise ModelError("link bug")

    m = build_joint(
        [rv("x", NORMAL, params=(0.0, 1.0)), rv("y", NORMAL, parents=("x",), link=link)]
    )
    m = condition(m, {"y": 0.5})
    with pytest.raises(ModelError, match="link bug"):
        fit(m, "asvi", TrainConfig(steps=10, seed=0, window=0))


def two_bernoulli_model():
    m = build_joint(
        [
            rv("b1", BERNOULLI, params=(0.4,)),
            rv("b2", BERNOULLI, parents=("b1",), link=lambda b: (0.7,) if b == 1.0 else (0.2,)),
            rv("y", BERNOULLI, parents=("b2",), link=lambda b: (0.9,) if b == 1.0 else (0.3,)),
        ]
    )
    return condition(m, {"y": 1.0})


def test_score_function_gradient_unbiased():
    model = two_bernoulli_model()
    asvi = build_surrogate("asvi", model, init_seed=0)
    params = asvi.init_params.copy()
    posterior = enumerate_discrete_posterior(model)
    exact = np.array(exact_discrete_elbo_gradient(posterior, model, asvi, list(params)))
    n = 20000
    grads = np.empty((n, asvi.num_params))
    rng = np.random.default_rng(123)
    for i in range(n):
        g = elbo_gradient(model, asvi, params, n_samples=1, seed=int(rng.integers(2**31)))
        grads[i] = g
    mean = grads.mean(axis=0)
    se = grads.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(mean - exact) < 5 * se + 1e-12)


def test_adam_zero_gradient_no_move():
    state = AdamState.fresh(3, lr=0.05)
    params = np.array([1.0, -2.0, 0.5])
    state, new = adam_step(state, np.zeros(3), params)
    assert np.array_equal(new, params)


def test_adam_first_step_magnitude():
    state = AdamState.fresh(2, lr=0.05)
    state, new = adam_step(state, np.array([3.0, -0.2]), np.zeros(2))
    assert new == pytest.approx([0.05, -0.05], rel=1e-6)


def test_adam_monotone_under_fixed_gradient():
    state = AdamState.fresh(1, lr=0.01)
    params = np.zeros(1)
    prev = 0.0
    for _ in range(5):
        state, params = adam_step(state, np.array([2.5]), params)
        assert params[0] > prev
        prev = params[0]


def test_adam_dimension_mismatch():
    state = AdamState.fresh(2, lr=0.01)
    with pytest.raises(ValueError):
        adam_step(state, np.zeros(3), np.zeros(3))


def test_fit_conjugate_reaches_evidence():
    model = conjugate_pair(y=2.0)
    coarse = fit(model, "asvi", TrainConfig(steps=4000, seed=0, window=500, patience=4))
    assert not coarse.diverged
    # refinement pass: smaller steps and averaged gradients kill the
    # stationary jitter of the single-sample phase
    polish = fit(
        model,
        coarse.surrogate,
        TrainConfig(steps=800, lr=1e-3, n_samples=10, seed=1, window=0),
        init_params=coarse.params,
    )
    log_evidence = -0.5 * math.log(4 * math.pi) - 1.0
    est = elbo_estimate(model, polish.surrogate, polish.params, n_samples=2000, seed=99)
    assert est.value == pytest.approx(log_evidence, abs=0.01)


def test_fit_zero_steps_returns_initial():
    model = conjugate_pair()
    asvi = build_surrogate("asvi", model, init_seed=0)
    result = fit(model, "asvi", TrainConfig(steps=0, seed=0))
    assert np.array_equal(result.params, asvi.init_params)
    assert len(result.trajectory) == 1


def test_fit_reproducible():
    model = conjugate_pair(y=1.0)
    cfg = TrainConfig(steps=300, seed=7, record_every=50, window=0)
    r1 = fit(model, "asvi", cfg)
    r2 = fit(model, "asvi", cfg)
    assert np.array_equal(r1.params, r2.params)
    assert [(s, l) for s, l, _ in r1.trajectory] == [(s, l) for s, l, _ in r2.trajectory]


def test_fit_reports_divergence():
    m = build_joint(
        [
            rv("s", LOG_NORMAL, params=(0.0, 1.0)),
            rv("x", NORMAL, parents=("s",), link=lambda s: (0.0, s)),
        ]
    )
    m = condition(m, {"x": 0.5})
    asvi = build_surrogate("asvi", m)
    bad = asvi.init_params.copy()
    bad[asvi.param_index["s.loc.alpha"]] = 800.0  # exp overflow -> inf sample
    bad[asvi.param_index["s.loc.lam_logit"]] = -40.0
    result = fit(m, asvi, TrainConfig(steps=100, seed=0, window=0), init_params=bad)
    assert result.diverged


def test_fit_uncompiled_matches_compiled():
    # replaying the graph gives the bits of recording it at every step
    model = conjugate_pair(y=1.5)
    cfg = TrainConfig(steps=200, seed=3, window=0, record_every=1)
    result = fit(model, "asvi", cfg)
    params, losses = recorded_fit(model, cfg)
    assert result.rerecord_from is None
    assert result.params.tobytes() == params.tobytes()
    assert [loss for _, loss, _ in result.trajectory] == losses


def test_save_trajectory_round_trip(tmp_path):
    model = conjugate_pair()
    result = fit(model, "mean-field", TrainConfig(steps=50, seed=1, record_every=10, window=0))
    path = tmp_path / "traj.csv"
    save_trajectory(result.trajectory, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,negative_elbo,wall_time_s"
    assert len(lines) == len(result.trajectory) + 1
    first = lines[1].split(",")
    assert int(first[0]) == result.trajectory[0][0]
    assert float(first[1]) == result.trajectory[0][1]


def test_surrogate_moments_match_known_gaussian():
    model = conjugate_pair(y=2.0)
    mf = build_surrogate("mean-field", model)
    params = mf.init_params.copy()
    params[mf.param_index["x.loc.alpha"]] = 1.0
    params[mf.param_index["x.scale.alpha"]] = unconstrain_param("positive", math.sqrt(0.5))
    means, sds = surrogate_moments(mf, params, n_samples=20000, seed=0)
    assert means["x"] == pytest.approx(1.0, abs=0.02)
    assert sds["x"] == pytest.approx(math.sqrt(0.5), rel=0.03)


def test_fit_ar1_and_mvn_improve_elbo():
    from convexvi.surrogates import build_surrogate

    model, _ = brownian(T=6, seed=8)
    for kind in ("ar1", "mvn"):
        surrogate = build_surrogate(kind, model)
        before = elbo_estimate(model, surrogate, surrogate.init_params, n_samples=500, seed=1).value
        r = fit(model, surrogate, TrainConfig(steps=1500, seed=0, window=0))
        assert not r.diverged, kind
        after = elbo_estimate(model, r.surrogate, r.params, n_samples=500, seed=1).value
        assert after > before + 1.0, (kind, before, after)
