import math

import numpy as np
import pytest

from convexvi.distributions import BERNOULLI, NORMAL
from convexvi.model import ModelError, build_joint, condition, rv
from convexvi.oracles import (
    ChainConfig,
    ConjugateSpec,
    LinearGaussianChainSpec,
    conjugate_normal_posterior,
    enumerate_discrete_posterior,
    gaussian_kl,
    kalman_filter_smoother,
    metropolis_sample,
)


def br_like_spec(T=30, a=1.0, q=1e-4, r=0.0225, mask=None):
    if mask is None:
        mask = [t < 10 or t >= 20 for t in range(T)]
    return LinearGaussianChainSpec(
        init_mean=0.0,
        init_var=q,
        transition=[a] * (T - 1),
        innovation_var=[q] * (T - 1),
        obs_var=[r] * T,
        mask=mask,
    )


def dense_chain_posterior(spec, observations):
    """Direct multivariate-normal conditioning; the independent oracle."""
    T = spec.num_steps
    mean = np.zeros(T)
    mean[0] = spec.init_mean
    for t in range(1, T):
        mean[t] = spec.transition[t - 1] * mean[t - 1]
    cov = np.zeros((T, T))
    cov[0, 0] = spec.init_var
    for t in range(1, T):
        a = spec.transition[t - 1]
        cov[t, :t] = a * cov[t - 1, :t]
        cov[:t, t] = cov[t, :t]
        cov[t, t] = a * a * cov[t - 1, t - 1] + spec.innovation_var[t - 1]
    obs_idx = [t for t in range(T) if spec.mask[t]]
    y = np.array([observations[t] for t in obs_idx])
    s_xy = cov[:, obs_idx]
    s_yy = cov[np.ix_(obs_idx, obs_idx)] + np.diag([spec.obs_var[t] for t in obs_idx])
    solve = np.linalg.solve(s_yy, y - mean[obs_idx])
    post_mean = mean + s_xy @ solve
    post_cov = cov - s_xy @ np.linalg.solve(s_yy, s_xy.T)
    sign, logdet = np.linalg.slogdet(s_yy)
    resid = y - mean[obs_idx]
    log_ev = -0.5 * (
        len(obs_idx) * math.log(2 * math.pi) + logdet + resid @ np.linalg.solve(s_yy, resid)
    )
    return post_mean, post_cov, log_ev


def test_single_step_conjugate_update():
    spec = LinearGaussianChainSpec(
        init_mean=0.0, init_var=1.0, transition=[], innovation_var=[], obs_var=[1.0], mask=[True]
    )
    res = kalman_filter_smoother(spec, {0: 2.0})
    assert res.filtered_means[0] == pytest.approx(1.0)
    assert res.filtered_vars[0] == pytest.approx(0.5)
    assert res.gains[0] == pytest.approx(0.5)


def test_no_observations_follow_prior_recursion():
    spec = LinearGaussianChainSpec(
        init_mean=2.0,
        init_var=0.5,
        transition=[0.9] * 4,
        innovation_var=[0.1] * 4,
        obs_var=[1.0] * 5,
        mask=[False] * 5,
    )
    res = kalman_filter_smoother(spec, {})
    expect = [2.0 * 0.9**t for t in range(5)]
    assert np.allclose(res.smoothed_means, expect)
    assert res.log_evidence == 0.0


def test_kalman_matches_dense_conditioning():
    rng = np.random.default_rng(0)
    spec = br_like_spec()
    obs = {t: float(rng.normal() * 0.1) for t in range(30) if spec.mask[t]}
    res = kalman_filter_smoother(spec, obs)
    post_mean, post_cov, log_ev = dense_chain_posterior(spec, obs)
    assert np.allclose(res.smoothed_means, post_mean, atol=1e-8)
    assert np.allclose(res.smoothed_vars, np.diag(post_cov), atol=1e-8)
    assert res.log_evidence == pytest.approx(log_ev, abs=1e-8)


def test_kalman_log_evidence_dense_for_random_chains():
    rng = np.random.default_rng(4)
    for T in (2, 7, 50):
        mask = [bool(rng.integers(2)) for _ in range(T)]
        mask[0] = True
        spec = LinearGaussianChainSpec(
            init_mean=rng.normal(),
            init_var=0.5 + rng.uniform(),
            transition=list(rng.uniform(0.5, 1.1, T - 1)),
            innovation_var=list(0.1 + rng.uniform(0, 1, T - 1)),
            obs_var=list(0.1 + rng.uniform(0, 1, T)),
            mask=mask,
        )
        obs = {t: float(rng.normal()) for t in range(T) if mask[t]}
        res = kalman_filter_smoother(spec, obs)
        _, _, log_ev = dense_chain_posterior(spec, obs)
        assert res.log_evidence == pytest.approx(log_ev, abs=1e-8)


def test_kalman_gains_bounded():
    rng = np.random.default_rng(1)
    for _ in range(20):
        T = int(rng.integers(2, 20))
        spec = LinearGaussianChainSpec(
            init_mean=rng.normal(),
            init_var=0.1 + rng.uniform(),
            transition=list(rng.uniform(-1.2, 1.2, T - 1)),
            innovation_var=list(0.05 + rng.uniform(0, 2, T - 1)),
            obs_var=list(0.05 + rng.uniform(0, 2, T)),
            mask=[True] * T,
        )
        obs = {t: float(rng.normal()) for t in range(T)}
        res = kalman_filter_smoother(spec, obs)
        assert np.all(res.gains >= 0.0) and np.all(res.gains <= 1.0)
        assert np.all(res.smoothed_vars <= res.filtered_vars + 1e-12)


def test_smoothed_variance_not_above_filtered():
    spec = br_like_spec()
    obs = {t: 0.05 for t in range(30) if spec.mask[t]}
    res = kalman_filter_smoother(spec, obs)
    assert np.all(res.smoothed_vars <= res.filtered_vars + 1e-15)


def test_conjugate_posterior_example():
    spec = ConjugateSpec(prior_mean=0.0, prior_precision=1.0, likelihood_precision=1.0, data=(1.0,) * 4)
    post = conjugate_normal_posterior(spec)
    assert post.mean == pytest.approx(0.8)
    assert post.precision == pytest.approx(5.0)


def test_conjugate_no_data_returns_prior():
    spec = ConjugateSpec(prior_mean=0.7, prior_precision=2.5, likelihood_precision=1.0)
    post = conjugate_normal_posterior(spec)
    assert post.mean == 0.7
    assert post.precision == 2.5
    assert post.prior_weight == 1.0


def quadrature_posterior(spec, n=200001, width=12.0):
    sd0 = spec.prior_precision ** -0.5
    lo = spec.prior_mean - width * sd0
    hi = spec.prior_mean + width * sd0
    if spec.data:
        ybar = np.mean(spec.data)
        sd_l = (len(spec.data) * spec.likelihood_precision) ** -0.5
        lo = min(lo, ybar - width * sd_l)
        hi = max(hi, ybar + width * sd_l)
    grid = np.linspace(lo, hi, n)
    log_post = -0.5 * spec.prior_precision * (grid - spec.prior_mean) ** 2
    for y in spec.data:
        log_post += -0.5 * spec.likelihood_precision * (grid - y) ** 2
    w = np.exp(log_post - log_post.max())
    z = np.trapezoid(w, grid)
    mean = np.trapezoid(grid * w, grid) / z
    var = np.trapezoid((grid - mean) ** 2 * w, grid) / z
    return mean, 1.0 / var


def test_conjugate_matches_quadrature():
    rng = np.random.default_rng(3)
    for _ in range(50):
        spec = ConjugateSpec(
            prior_mean=float(rng.normal()),
            prior_precision=float(0.2 + rng.uniform(0, 3)),
            likelihood_precision=float(0.2 + rng.uniform(0, 3)),
            data=tuple(rng.normal(size=rng.integers(0, 6))),
        )
        post = conjugate_normal_posterior(spec)
        qmean, qprec = quadrature_posterior(spec)
        assert post.mean == pytest.approx(qmean, abs=1e-6)
        assert post.precision == pytest.approx(qprec, rel=1e-6)
        assert post.prior_weight + post.data_weight == 1.0


def test_gaussian_kl_values():
    assert gaussian_kl(0.3, 1.7, 0.3, 1.7) == 0.0
    assert gaussian_kl(1.0, 1.0, 0.0, 1.0) == pytest.approx(0.5)
    assert gaussian_kl(0.0, 4.0, 0.0, 1.0) == pytest.approx(0.5 * (4 - 1 - math.log(4.0)))


def test_enumeration_bayes_rule():
    # fair coin, likelihood ratio 3:1 for heads
    m = build_joint(
        [
            rv("coin", BERNOULLI, params=(0.5,)),
            rv("obs", BERNOULLI, parents=("coin",), link=lambda c: (0.75,) if c == 1.0 else (0.25,)),
        ]
    )
    m = condition(m, {"obs": 1.0})
    post = enumerate_discrete_posterior(m)
    assert post.marginal("coin")[1.0] == pytest.approx(0.75)


def test_enumeration_uniform_likelihood_returns_prior():
    m = build_joint(
        [
            rv("coin", BERNOULLI, params=(0.3,)),
            rv("obs", BERNOULLI, parents=("coin",), link=lambda c: (0.5,)),
        ]
    )
    m = condition(m, {"obs": 1.0})
    post = enumerate_discrete_posterior(m)
    assert post.marginal("coin")[1.0] == pytest.approx(0.3)


def test_enumeration_rejects_continuous_latents():
    m = build_joint([rv("x", NORMAL, params=(0.0, 1.0))])
    with pytest.raises(ModelError):
        enumerate_discrete_posterior(m)


def gaussian_pair_model(obs=0.8):
    m = build_joint(
        [
            rv("x", NORMAL, params=(0.0, 1.0)),
            rv("y", NORMAL, parents=("x",), link=lambda x: (x, 1.0)),
        ]
    )
    return condition(m, {"y": obs})


def test_metropolis_matches_conjugate_oracle():
    m = gaussian_pair_model(obs=2.0)
    res = metropolis_sample(m, ChainConfig(steps=8000, burn_in=2000, seed=0))
    exact = conjugate_normal_posterior(
        ConjugateSpec(prior_mean=0.0, prior_precision=1.0, likelihood_precision=1.0, data=(2.0,))
    )
    assert res.reliable
    assert abs(res.means["x"] - exact.mean) < 3 * res.mean_ses["x"]
    assert res.sds["x"] == pytest.approx(exact.precision ** -0.5, rel=0.05)


def test_metropolis_symmetric_model_centered():
    m = gaussian_pair_model(obs=0.0)
    res = metropolis_sample(m, ChainConfig(steps=8000, burn_in=2000, seed=1))
    assert abs(res.means["x"]) < 3 * res.mean_ses["x"]


def test_metropolis_gaussian_targets_across_seeds():
    m = gaussian_pair_model(obs=1.0)
    exact = conjugate_normal_posterior(
        ConjugateSpec(prior_mean=0.0, prior_precision=1.0, likelihood_precision=1.0, data=(1.0,))
    )
    exact_sd = exact.precision ** -0.5
    for seed in range(10):
        res = metropolis_sample(m, ChainConfig(steps=4000, burn_in=1500, seed=seed))
        assert abs(res.means["x"] - exact.mean) < 3 * res.mean_ses["x"], seed
        # SD standard error for near-iid draws is sd/sqrt(2 ess); batch SE is
        # the mean's, so allow a generous multiple for the SD check
        assert abs(res.sds["x"] - exact_sd) < 0.08 * exact_sd, seed


def test_metropolis_acceptance_near_target():
    m = gaussian_pair_model(obs=1.0)
    res = metropolis_sample(m, ChainConfig(steps=6000, burn_in=3000, seed=3))
    assert 0.15 < res.acceptance_rate < 0.5


def test_metropolis_brownian_chain_against_kalman():
    # small BR-like chain: 8 steps, ends observed
    T, q, r = 8, 0.01, 0.04
    mask = [t < 3 or t >= 5 for t in range(T)]
    nodes = [rv("x_0", NORMAL, params=(0.0, math.sqrt(q)))]
    for t in range(1, T):
        nodes.append(rv(f"x_{t}", NORMAL, parents=(f"x_{t-1}",), link=lambda p: (p, math.sqrt(q))))
    obs_nodes = [
        rv(f"y_{t}", NORMAL, parents=(f"x_{t}",), link=lambda p: (p, math.sqrt(r)))
        for t in range(T)
        if mask[t]
    ]
    rng = np.random.default_rng(7)
    observations = {f"y_{t}": float(0.1 * rng.normal()) for t in range(T) if mask[t]}
    m = condition(build_joint(nodes + obs_nodes), observations)

    spec = LinearGaussianChainSpec(
        init_mean=0.0,
        init_var=q,
        transition=[1.0] * (T - 1),
        innovation_var=[q] * (T - 1),
        obs_var=[r] * T,
        mask=mask,
    )
    kalman = kalman_filter_smoother(spec, {t: observations[f"y_{t}"] for t in range(T) if mask[t]})
    res = metropolis_sample(m, ChainConfig(steps=12000, burn_in=4000, seed=11))
    assert res.reliable
    for t in range(T):
        assert abs(res.means[f"x_{t}"] - kalman.smoothed_means[t]) < 3 * res.mean_ses[f"x_{t}"], t

