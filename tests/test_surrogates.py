import math

import numpy as np
import pytest

from convexvi import autodiff as ad
from convexvi import surrogates
from convexvi.cli import USAGE, RunConfig, UsageError
from convexvi.distributions import (
    BERNOULLI,
    HALF_NORMAL,
    LOG_NORMAL,
    NORMAL,
    SCALE_FLOOR,
    SIGMOID,
    SOFTPLUS,
    draw_noise,
)
from convexvi.model import build_joint, condition, latent_log_prob, rv, sample_forward, sample_prior
from convexvi.inference import TrainConfig, fit
from convexvi.oracles import LinearGaussianChainSpec, kalman_filter_smoother
from convexvi.surrogates import SURROGATES, build_surrogate, convex_update
from convexvi.tasks import TASK_IDS, generate_data, get_task

LOG_2PI = math.log(2.0 * math.pi)


def one_draw(surrogate, rng):
    """One sample's noise for `surrogate`, as a list of floats."""
    return draw_noise(surrogate.noise_spec, 1, rng)[0].tolist()


def brownian_chain(T=30, step_scale=0.01, obs_scale=0.15, observed=None, rng_seed=0):
    nodes = [rv("x_0", NORMAL, params=(0.0, step_scale))]
    for t in range(1, T):
        nodes.append(rv(f"x_{t}", NORMAL, parents=(f"x_{t-1}",), link=lambda p: (p, step_scale)))
    if observed is None:
        observed = [t < 10 or t >= 20 for t in range(T)]
    for t in range(T):
        if observed[t]:
            nodes.append(rv(f"y_{t}", NORMAL, parents=(f"x_{t}",), link=lambda p: (p, obs_scale)))
    m = build_joint(nodes)
    rng = np.random.default_rng(rng_seed)
    obs = {f"y_{t}": float(rng.normal(0.0, 0.1)) for t in range(T) if observed[t]}
    return condition(m, obs)


def mixed_model():
    nodes = [
        rv("scale", LOG_NORMAL, params=(0.0, 0.5)),
        rv("spread", HALF_NORMAL, params=(1.0,)),
        rv("x", NORMAL, parents=("scale", "spread"), link=lambda s, h: (h, s)),
        rv("y", NORMAL, parents=("x",), link=lambda x: (x, 0.5)),
    ]
    return condition(build_joint(nodes), {"y": 0.7})


def gaussian_start_of_edited_draws(monkeypatch, edit):
    """`_gaussian_start` of `mixed_model` at seed 1, as (mean, raw scale)
    pairs, with `edit` applied to the prior draws it reads (each latent's
    array); checks that the edit ran once, on 100 draws."""
    edits = []

    def edited(model, seeds):
        prior = sample_prior(model, seeds)
        edits.append(len(seeds))
        return edit(prior)

    with monkeypatch.context() as patch:
        patch.setattr(surrogates, "sample_prior", edited)
        start = surrogates._gaussian_start(mixed_model(), 1, "mvn")
    assert edits == [100]
    return [(mean, raw) for _, _, mean, raw in start]


def assert_bad_first_draws_are_skipped(monkeypatch, names, bads):
    """A bad first draw of each latent in `names` gives the start of the
    other 99 draws of those latents, and moves the start."""

    def set_first(bad):
        def edit(prior):
            for name in names:
                prior[name][0] = bad
            return prior

        return edit

    unedited = gaussian_start_of_edited_draws(monkeypatch, lambda prior: prior)
    without_first = gaussian_start_of_edited_draws(
        monkeypatch, lambda prior: {name: v[1:] if name in names else v for name, v in prior.items()}
    )
    for bad in bads:
        assert gaussian_start_of_edited_draws(monkeypatch, set_first(bad)) == without_first
    latents = [n.name for n in mixed_model().latent_nodes]
    for name, kept, full in zip(latents, without_first, unedited):
        assert (kept != full) == (name in names), name
    assert all(map(math.isfinite, np.ravel(without_first)))


def test_a_nan_start_value_takes_the_fallback_start(monkeypatch):
    # a NaN prior parameter or prior draw passed the bijectors' inverses
    # as NaN: the alpha start held NaN, and one NaN draw made a Gaussian
    # baseline's start NaN.  Now alpha draws standard normals, and the
    # draw is skipped as one outside the support is.
    for kind, theta, size in (("positive", math.nan, 1), ("simplex", [0.5, math.nan, 0.5], 2)):
        start = surrogates._alpha_start(kind, theta, size, np.random.default_rng(3))
        assert start == list(np.random.default_rng(3).standard_normal(size))
    assert_bad_first_draws_are_skipped(monkeypatch, ("scale",), (math.nan, -1.0))


def test_an_infinite_start_value_takes_the_fallback_start(monkeypatch):
    # the bijectors' inverses take an infinite value to an infinite
    # pre-image (softplus and the positive floor map inf to inf, a
    # simplex with an infinite entry has an infinite logit), which no fit
    # can start from: alpha draws standard normals, and an infinite prior
    # draw is skipped as a NaN one is
    for kind, theta, size in (("positive", math.inf, 1), ("simplex", [math.inf, 0.5], 1)):
        start = surrogates._alpha_start(kind, theta, size, np.random.default_rng(3))
        assert start == list(np.random.default_rng(3).standard_normal(size))
    assert surrogates._alpha_start("positive", 2.0, 1, None) == [surrogates.unconstrain_param("positive", 2.0)]
    assert_bad_first_draws_are_skipped(monkeypatch, ("spread", "x"), (math.inf, -math.inf, math.nan))


def test_convex_update_examples():
    assert convex_update((2.0,), (1.0,), (7.0,)) == [2.0]
    assert convex_update((2.0,), (0.0,), (7.0,)) == [7.0]
    assert convex_update((2.0,), (0.5,), (4.0,)) == [3.0]


def test_convex_update_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        convex_update((1.0, 2.0), (0.5,), (0.0, 0.0))


def test_asvi_param_count_brownian():
    m = brownian_chain()
    assert build_surrogate("asvi", m).num_params == 120
    assert build_surrogate("mean-field", m).num_params == 60


def test_asvi_double_mean_field_counts():
    for m in (brownian_chain(T=7), mixed_model()):
        asvi = build_surrogate("asvi", m)
        mf = build_surrogate("mean-field", m)
        assert asvi.num_params == 2 * mf.num_params


def test_structure_preserved():
    m = mixed_model()
    asvi = build_surrogate("asvi", m)
    assert asvi.latent_names == tuple(n.name for n in m.latent_nodes)
    for node in m.latent_nodes:
        lam_name = f"{node.name}.{node.family.param_schema[0][0]}.lam_logit"
        assert lam_name in asvi.param_index


def set_by_suffix(surrogate, params, suffix, value):
    for name, idx in surrogate.param_index.items():
        if name.endswith(suffix):
            params[idx] = value
    return params


def test_prior_recovery_at_high_lam_logit():
    for m in (brownian_chain(T=12), mixed_model()):
        asvi = build_surrogate("asvi", m, init_seed=3)
        params = asvi.init_params.copy()
        set_by_suffix(asvi, params, ".lam_logit", 40.0)
        for seed in range(100):
            tr = sample_forward(m, seed=seed)
            lq = asvi.log_prob(list(params), tr.values)
            lp = latent_log_prob(m, tr.values)
            assert lq == pytest.approx(lp, abs=1e-6)


def test_mean_field_recovery_at_low_lam_logit():
    for m in (brownian_chain(T=12), mixed_model()):
        asvi = build_surrogate("asvi", m, init_seed=1)
        mf = build_surrogate("mean-field", m, init_seed=1)
        asvi_params = asvi.init_params.copy()
        set_by_suffix(asvi, asvi_params, ".lam_logit", -40.0)
        mf_params = mf.init_params.copy()
        # share alphas between the two programs
        for name, idx in mf.param_index.items():
            asvi_params[asvi.param_index[name]] = mf_params[idx]
        for seed in range(100):
            tr = sample_forward(m, seed=seed)
            lq_asvi = asvi.log_prob(list(asvi_params), tr.values)
            lq_mf = mf.log_prob(list(mf_params), tr.values)
            assert lq_asvi == pytest.approx(lq_mf, abs=1e-9)


def test_mean_field_log_prob_ignores_parents():
    # changing a parent value must only move that node's own factor
    m = brownian_chain(T=6)
    mf = build_surrogate("mean-field", m)
    params = list(mf.init_params)
    tr = sample_forward(m, seed=0).values
    base = mf.log_prob(params, tr)
    shifted = dict(tr)
    shifted["x_0"] = tr["x_0"] + 1.0
    delta = mf.log_prob(params, shifted) - base
    node_params = (
        float(params[mf.param_index["x_0.loc.alpha"]]),
        SOFTPLUS.forward(params[mf.param_index["x_0.scale.alpha"]]) + SCALE_FLOOR,
    )
    own_factor_delta = NORMAL.log_prob(node_params, shifted["x_0"]) - NORMAL.log_prob(
        node_params, tr["x_0"]
    )
    assert delta == pytest.approx(own_factor_delta, abs=1e-9)


def test_asvi_lam_one_matches_prior_sampling_path():
    m = mixed_model()
    asvi = build_surrogate("asvi", m, init_seed=0)
    params = list(set_by_suffix(asvi, asvi.init_params.copy(), ".lam_logit", 40.0))
    rng = np.random.default_rng(42)
    noise = one_draw(asvi, rng)
    values, log_q, disc = asvi.sample_and_log_prob(params, noise)
    assert disc is None
    # replaying the same noise through the prior's own links must agree
    expected = {}
    i = 0
    for node in m.latent_nodes:
        ps = node.params([m.observations.get(p, expected.get(p)) for p in node.parents])
        expected[node.name] = node.family.sample_reparam(ps, noise[i])
        i += 1
    for name in expected:
        assert values[name] == pytest.approx(expected[name], rel=1e-9)
    assert log_q == pytest.approx(latent_log_prob(m, values), abs=1e-6)


def test_asvi_kalman_containment_fully_observed():
    # lam_loc = 1 - K_t and alpha_loc = y_t reproduce the filtering means
    T, q, r = 10, 0.01, 0.04
    step_scale, obs_scale = math.sqrt(q), math.sqrt(r)
    m = brownian_chain(T=T, step_scale=step_scale, obs_scale=obs_scale, observed=[True] * T, rng_seed=5)
    ys = {t: m.observations[f"y_{t}"] for t in range(T)}
    spec = LinearGaussianChainSpec(
        init_mean=0.0,
        init_var=q,
        transition=[1.0] * (T - 1),
        innovation_var=[q] * (T - 1),
        obs_var=[r] * T,
        mask=[True] * T,
    )
    kalman = kalman_filter_smoother(spec, ys)

    asvi = build_surrogate("asvi", m)
    params = asvi.init_params.copy()
    for t in range(T):
        k_t = kalman.gains[t]
        params[asvi.param_index[f"x_{t}.loc.lam_logit"]] = SIGMOID.inverse(1.0 - k_t)
        params[asvi.param_index[f"x_{t}.loc.alpha"]] = ys[t]
    # zero noise walks the per-node conditional means
    values, _, _ = asvi.sample_and_log_prob(list(params), [0.0] * T)
    for t in range(T):
        assert values[f"x_{t}"] == pytest.approx(kalman.filtered_means[t], abs=1e-9)


def test_asvi_discrete_bernoulli_update():
    m = condition(
        build_joint(
            [
                rv("b1", BERNOULLI, params=(0.3,)),
                rv("b2", BERNOULLI, parents=("b1",), link=lambda b: (0.8,) if b == 1.0 else (0.2,)),
            ]
        ),
        {},
    )
    asvi = build_surrogate("asvi", m)
    params = asvi.init_params.copy()
    lam1, alpha1 = 0.7, 0.9
    params[asvi.param_index["b1.prob.lam_logit"]] = SIGMOID.inverse(lam1)
    params[asvi.param_index["b1.prob.alpha"]] = SIGMOID.inverse(alpha1)
    q1 = lam1 * 0.3 + (1 - lam1) * alpha1
    lp = asvi.log_prob(list(params), {"b1": 1.0, "b2": 0.0})
    lam2 = SIGMOID.forward(params[asvi.param_index["b2.prob.lam_logit"]])
    alpha2 = SIGMOID.forward(params[asvi.param_index["b2.prob.alpha"]])
    q2 = lam2 * 0.8 + (1 - lam2) * alpha2
    assert lp == pytest.approx(math.log(q1) + math.log(1 - q2), abs=1e-12)


def test_asvi_sampling_deterministic_given_noise():
    m = mixed_model()
    asvi = build_surrogate("asvi", m)
    noise = one_draw(asvi, np.random.default_rng(0))
    v1, lq1, _ = asvi.sample_and_log_prob(list(asvi.init_params), noise)
    v2, lq2, _ = asvi.sample_and_log_prob(list(asvi.init_params), noise)
    assert v1 == v2 and lq1 == lq2


def test_ar1_param_count_chain_of_three():
    m = brownian_chain(T=3, observed=[True, True, True])
    ar1 = build_surrogate("ar1", m)
    assert ar1.num_params == 8


def test_ar1_globals_get_no_outgoing_coef():
    nodes = [
        rv("sigma", LOG_NORMAL, params=(0.0, 1.0)),
        rv("x_0", NORMAL, parents=("sigma",), link=lambda s: (0.0, s)),
        rv("x_1", NORMAL, parents=("x_0", "sigma"), link=lambda p, s: (p, s)),
    ]
    m = condition(build_joint(nodes, global_names=("sigma",)), {})
    ar1 = build_surrogate("ar1", m)
    # edge sigma -> x_0 frozen (sigma is global); edge x_0 -> x_1 trainable
    assert "x_0.ar_coef" not in ar1.param_index
    assert "x_1.ar_coef" in ar1.param_index


def test_ar1_zero_coef_is_gaussian_mean_field():
    m = brownian_chain(T=4)
    ar1 = build_surrogate("ar1", m)
    params = list(ar1.init_params)
    noise = one_draw(ar1, np.random.default_rng(1))
    values, log_q, _ = ar1.sample_and_log_prob(params, noise)
    # with all coefficients zero, the log density factorizes per node
    total = 0.0
    for name in ar1.latent_names:
        mean_u = params[ar1.param_index[f"{name}.offset"]]
        scale = SOFTPLUS.forward(params[ar1.param_index[f"{name}.scale"]]) + SCALE_FLOOR
        total += NORMAL.log_prob((mean_u, scale), values[name])
    assert log_q == pytest.approx(total, rel=1e-9)


def test_mvn_param_count():
    m = brownian_chain(T=30)
    assert build_surrogate("mvn", m).num_params == 30 + 30 * 31 // 2


def test_mvn_identity_chol_log_density_at_origin():
    m = brownian_chain(T=5)
    mvn = build_surrogate("mvn", m)
    params = list(mvn.init_params)
    for name, idx in mvn.param_index.items():
        if name.endswith(".mvn_mean"):
            params[idx] = 0.0
    for i in range(5):
        params[mvn.param_index[f"chol.{i}.{i}"]] = SOFTPLUS.inverse(1.0 - SCALE_FLOOR)
        for j in range(i):
            params[mvn.param_index[f"chol.{i}.{j}"]] = 0.0
    lp = mvn.log_prob(params, {f"x_{t}": 0.0 for t in range(5)})
    assert lp == pytest.approx(-2.5 * LOG_2PI, abs=1e-9)


def test_mvn_log_density_carries_bijector_log_det():
    # 1-d positive latent: density must integrate to one over (0, inf)
    m = condition(build_joint([rv("s", HALF_NORMAL, params=(1.0,))]), {})
    mvn = build_surrogate("mvn", m)
    params = list(mvn.init_params)
    grid = np.linspace(1e-7, 40.0, 400001)
    pdf = np.array([math.exp(mvn.log_prob(params, {"s": x})) for x in grid])
    assert np.trapezoid(pdf, grid) == pytest.approx(1.0, abs=1e-3)


def test_mvn_sample_log_prob_consistent():
    m = brownian_chain(T=4)
    mvn = build_surrogate("mvn", m)
    params = list(mvn.init_params)
    rng = np.random.default_rng(3)
    for _ in range(10):
        noise = one_draw(mvn, rng)
        values, log_q, _ = mvn.sample_and_log_prob(params, noise)
        assert log_q == pytest.approx(mvn.log_prob(params, values), rel=1e-9)


def test_ar1_sample_log_prob_consistent():
    m = mixed_model()
    ar1 = build_surrogate("ar1", m)
    params = list(ar1.init_params)
    rng = np.random.default_rng(4)
    for _ in range(10):
        noise = one_draw(ar1, rng)
        values, log_q, _ = ar1.sample_and_log_prob(params, noise)
        assert log_q == pytest.approx(ar1.log_prob(params, values), rel=1e-9)


def test_build_surrogate_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown surrogate"):
        build_surrogate("flow", mixed_model())


def test_a_numerical_failure_at_a_prior_center_falls_back():
    # z is centred at 0, so x's link fails with a DomainError at the
    # centers and x starts at the neutral center; the bytes are those of
    # the catch-all handler this one replaced
    model = build_joint(
        [
            rv("z", NORMAL, params=(0.0, 1.0)),
            rv("x", NORMAL, parents=("z",), link=lambda z: (ad.log(z), 1.0)),
            rv("y", NORMAL, parents=("x",), link=lambda x: (x, 0.5)),
        ]
    )
    expected = {
        "asvi": "50100c5bb984eabf00000000000000000c84b4be18d8e0bf8218112f8552e13f"
        "7a9bcbb11448e33fac6e3f2a2b2be2bf7e7afddbcbf9e9bfae5b4a16b098cbbf"
        "e0dc83959373a5bf0000000000000000b60d6f6ed6c6e5bf9019daa540b2dbbf",
        "mean-field": "00000000000000008218112f8552e13f160b8167cd530040aa330882007204c0"
        "00000000000000009019daa540b2dbbf",
    }
    for kind, hex_bytes in expected.items():
        assert build_surrogate(kind, model, init_seed=3).init_params.tobytes().hex() == hex_bytes


def test_a_bug_in_a_link_raises_from_build_surrogate():
    model = build_joint(
        [
            rv("z", NORMAL, params=(0.0, 1.0)),
            rv("x", NORMAL, parents=("z",), link=lambda z: (z + "1", 1.0)),
        ]
    )
    for kind in ("asvi", "mean-field"):
        with pytest.raises(TypeError):
            build_surrogate(kind, model)


@pytest.mark.parametrize("task_id", TASK_IDS)
@pytest.mark.parametrize("kind", list(SURROGATES))
def test_every_kind_in_the_table_builds_fits_and_parses(kind, task_id):
    task = get_task(task_id)
    model = task.model
    if not task.is_pre_conditioned:
        model = condition(model, generate_data(task, seed=1)[0])
    result = fit(model, kind, TrainConfig(steps=1, lr=None, seed=1))
    assert result.surrogate.kind == kind and not result.diverged
    # Adam's first step moves each parameter by lr * |g| / (|g| + eps)
    step = np.abs(result.params - result.surrogate.init_params)
    assert step.max() == pytest.approx(SURROGATES[kind].lr, rel=1e-3)
    # a program built by its own constructor knows its kind and its rate
    program = SURROGATES[kind].build(model, init_seed=1)
    assert program.kind == kind
    own = fit(model, program, TrainConfig(steps=1, lr=None, seed=1))
    assert np.array_equal(own.params, result.params)

    assert RunConfig(task=task_id, surrogates=(kind,)).surrogates == (kind,)
    with pytest.raises(UsageError, match="invalid surrogate"):
        RunConfig(task=task_id, surrogates=(kind + "x",))
    (line,) = [ln for ln in USAGE.splitlines() if ln.lstrip().startswith("--surrogate")]
    assert line.split(": ")[1].split(" (")[0].split(", ") == list(SURROGATES)
    with pytest.raises(ValueError, match="unknown surrogate"):
        build_surrogate(kind + "x", model)


def categorical_model():
    from convexvi.distributions import Categorical

    cat = Categorical(3)
    nodes = [
        rv("c", cat, params=([0.5, 0.3, 0.2],)),
        rv("x", NORMAL, parents=("c",), link=lambda c: (2.0 * c, 0.5)),
    ]
    return condition(build_joint(nodes), {"x": 1.8})


def test_asvi_categorical_single_lam_preserves_simplex():
    m = categorical_model()
    asvi = build_surrogate("asvi", m, init_seed=2)
    # one lam plus k-1 alphas for the simplex parameter
    assert "c.probs.lam_logit" in asvi.param_index
    assert "c.probs.alpha_0" in asvi.param_index and "c.probs.alpha_1" in asvi.param_index
    params = list(asvi.init_params)
    lam = SIGMOID.forward(params[asvi.param_index["c.probs.lam_logit"]])
    from convexvi.distributions import SOFTMAX_CENTERED

    alpha = SOFTMAX_CENTERED.forward(
        [params[asvi.param_index["c.probs.alpha_0"]], params[asvi.param_index["c.probs.alpha_1"]]]
    )
    theta = [0.5, 0.3, 0.2]
    expected = [lam * t + (1 - lam) * a for t, a in zip(theta, alpha)]
    assert sum(expected) == pytest.approx(1.0, abs=1e-12)
    for value, probs in ((0.0, expected[0]), (1.0, expected[1]), (2.0, expected[2])):
        assert asvi.log_prob(params, {"c": value}) == pytest.approx(math.log(probs), abs=1e-12)


def test_asvi_categorical_sampling_and_gradient():
    from convexvi.inference import elbo_gradient

    m = categorical_model()
    asvi = build_surrogate("asvi", m, init_seed=2)
    noise = one_draw(asvi, np.random.default_rng(0))
    values, log_q, disc = asvi.sample_and_log_prob(list(asvi.init_params), noise)
    assert values["c"] in (0.0, 1.0, 2.0)
    assert disc is not None
    g = elbo_gradient(m, asvi, asvi.init_params, n_samples=2, seed=4)
    assert g.shape == (asvi.num_params,)
    assert np.all(np.isfinite(g))


def test_mean_field_categorical_param_count():
    m = categorical_model()
    mf = build_surrogate("mean-field", m, init_seed=0)
    # k-1 = 2 trainable scalars for the lone categorical latent
    assert mf.num_params == 2


@pytest.mark.parametrize("kind", ["asvi", "mean-field"])
@pytest.mark.parametrize("make_model", [mixed_model, categorical_model])
def test_convex_update_log_prob_is_the_sampled_log_q(kind, make_model):
    m = make_model()
    q = build_surrogate(kind, m, init_seed=1)
    rng = np.random.default_rng(6)
    for _ in range(10):
        params = list(q.init_params + 0.3 * rng.standard_normal(q.num_params))
        values, log_q, disc = q.sample_and_log_prob(params, one_draw(q, rng))
        assert q.log_prob(params, values) == log_q
        if make_model is categorical_model:
            # the lone latent is discrete: its term is all of log_q and
            # is returned alone for the score-function estimator
            assert disc == log_q
        else:
            assert disc is None


@pytest.mark.parametrize("kind", list(SURROGATES))
def test_log_prob_on_tape_params_is_differentiable(kind):
    # positive latents, so ar1's and mvn's bijectors carry a log-det
    m = mixed_model()
    q = build_surrogate(kind, m, init_seed=1)
    rng = np.random.default_rng(8)
    params = list(q.init_params + 0.3 * rng.standard_normal(q.num_params))
    values = q.sample_and_log_prob(params, one_draw(q, rng))[0]
    tape = ad.Tape()
    lp = q.log_prob([tape.input(p) for p in params], values)
    assert isinstance(lp, ad.Node) and not tape.value_read
    assert tape.vals[lp.i] == q.log_prob(params, values)
    assert ad.finite_difference_check(lambda ps: q.log_prob(ps, values), params) < 1e-6


@pytest.mark.parametrize("kind", ["ar1", "mvn"])
def test_gaussian_baselines_reject_a_discrete_latent(kind):
    # the prior draws asked for a Bernoulli's support bijector first and
    # raised TypeError, so this ValueError could not be reached
    nodes = [
        rv("b", BERNOULLI, params=(0.3,)),
        rv("x", NORMAL, parents=("b",), link=lambda b: (2.0 * b, 1.0)),
        rv("y", NORMAL, parents=("x",), link=lambda x: (x, 0.5)),
    ]
    m = condition(build_joint(nodes), {"y": 0.4})
    with pytest.raises(ValueError, match=f"{kind} surrogate requires continuous latents"):
        build_surrogate(kind, m)
