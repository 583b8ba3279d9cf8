import math

import numpy as np
import pytest

from convexvi import inference
from convexvi.autodiff import INPUT, DomainError, value_of
from convexvi.distributions import (
    HALF_NORMAL,
    LOG_NORMAL,
    NORMAL,
    ParameterError,
    draw_noise,
    unconstrain_param,
)
from convexvi.inference import (
    _DIVERGENCE,
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
from convexvi.surrogates import SURROGATES, ConvexUpdateProgram, build_surrogate
from convexvi.tasks import TASK_IDS, generate_data, get_task
from test_distributions import scalar_draws


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
    return draw_noise(surrogate.noise_spec, n_samples, rng)


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
        assert graph.replayable
        tape = graph.tape
        for seed in range(3):
            draws = draw(surrogate, n_samples, np.random.default_rng(seed))
            value, grad = graph.replay(params, draws)
            fresh = CompiledElbo(model, surrogate, params, draws)
            assert fresh.replayable
            ft = fresh.tape
            assert (ft.ops, ft.p1, ft.p2, ft.aux) == (tape.ops, tape.p1, tape.p2, tape.aux)
            assert value == fresh.value
            assert grad.tobytes() == fresh.gradient().tobytes()
            g = elbo_gradient(model, surrogate, params, n_samples, seed=seed)
            assert grad.tobytes() == g.tobytes()
            # a node divided by b is a * (1 / b) on the tape, a / b on floats
            est = elbo_estimate(model, surrogate, params, n_samples, seed=seed)
            assert value == pytest.approx(est.value)
            params = params + 0.01 * np.tanh(grad)


def test_replay_rejects_inputs_of_another_length():
    task = get_task("br")
    model = condition(task.model, generate_data(task, seed=1)[0])
    surrogate = build_surrogate("asvi", model, init_seed=1)
    params = surrogate.init_params
    graph = CompiledElbo(model, surrogate, params, draw(surrogate, 2, np.random.default_rng(1)))
    size = len(graph.tape.vals)
    # unchecked, one sample's draws shrank the tape and replay raised IndexError
    with pytest.raises(ValueError, match="noise entries"):
        graph.replay(params, draw(surrogate, 1, np.random.default_rng(2)))
    with pytest.raises(ValueError, match="params"):
        graph.replay(params[:-1], draw(surrogate, 2, np.random.default_rng(2)))
    assert len(graph.tape.vals) == size
    draws = draw(surrogate, 2, np.random.default_rng(3))
    value, grad = graph.replay(params, draws)
    fresh = CompiledElbo(model, surrogate, params, draws)
    assert value == fresh.value
    assert grad.tobytes() == fresh.gradient().tobytes()


@pytest.mark.parametrize("kind", ["asvi", "mean-field", "ar1", "mvn"])
@pytest.mark.parametrize("task_id", TASK_IDS)
def test_every_recorded_node_reaches_the_objective(task_id, kind):
    # a dead node costs every replayed forward and backward sweep, and
    # replay keeps it, since dropping it would drop its domain checks
    task = get_task(task_id)
    model = task.model
    if not task.is_pre_conditioned:
        model = condition(model, generate_data(task, seed=1)[0])
    surrogate = build_surrogate(kind, model, init_seed=1)
    draws = draw(surrogate, 1, np.random.default_rng(1))
    graph = CompiledElbo(model, surrogate, surrogate.init_params, draws)
    tape = graph.tape
    live = [False] * len(tape)
    live[graph.objective.i] = True
    for i in reversed(range(len(tape))):
        if live[i]:
            for p in (tape.p1[i], tape.p2[i]):
                if p >= 0:
                    live[p] = True
    dead = [i for i, op in enumerate(tape.ops) if op != INPUT and not live[i]]
    assert dead == []


# numpy's warnings for the SD of one sample, or of samples holding inf
SD_WARNINGS = pytest.mark.filterwarnings(
    "ignore:Degrees of freedom", "ignore:invalid value encountered"
)


def reference_samples(model, surrogate, params, n_samples, seed):
    """The per-sample loop: scalar noise draws (`scalar_draws`),
    `sample_and_log_prob` and, with a model, `joint_log_prob` on floats,
    one sample at a time.  Returns (values, terms), one float array per
    latent and the ELBO terms."""
    noise = scalar_draws(surrogate.noise_spec, n_samples, np.random.default_rng(seed)).tolist()
    params = [float(p) for p in params]
    values = {name: np.empty(n_samples) for name in surrogate.latent_names}
    terms = np.empty(n_samples)
    for s in range(n_samples):
        sample, log_q, _ = surrogate.sample_and_log_prob(params, noise[s])
        for name in values:
            values[name][s] = value_of(sample[name])
        if model is not None:
            terms[s] = inference.joint_log_prob(model, sample) - log_q
    return values, terms


def assert_batch_is_the_loop(model, surrogate, params, n_samples, seed):
    """`elbo_estimate` and `surrogate_moments` equal the per-sample loop
    in bytes; a non-finite term raises `NonFiniteError` naming the first
    such sample."""
    values, terms = reference_samples(model, surrogate, params, n_samples, seed)
    bad = np.flatnonzero(~np.isfinite(terms))
    if len(bad):
        with pytest.raises(NonFiniteError, match=f"at sample {bad[0]}$"):
            elbo_estimate(model, surrogate, params, n_samples, seed=seed)
    else:
        est = elbo_estimate(model, surrogate, params, n_samples, seed=seed)
        assert np.array(est.per_sample_terms).tobytes() == terms.tobytes()
        assert all(type(t) is float for t in est.per_sample_terms)
        assert est.value == float(np.mean(terms.tolist()))
    means, sds = surrogate_moments(surrogate, params, n_samples, seed=seed)
    assert list(means) == list(sds) == list(surrogate.latent_names)
    for name, v in values.items():
        assert np.float64(means[name]).tobytes() == v.mean().tobytes(), name
        assert np.float64(sds[name]).tobytes() == v.std(ddof=1).tobytes(), name


def count_loops(monkeypatch):
    """A list that gets one entry per batch evaluated one sample at a time."""
    calls = []
    loop = inference._one_at_a_time

    def counted(*args):
        calls.append(1)
        return loop(*args)

    monkeypatch.setattr(inference, "_one_at_a_time", counted)
    return calls


@pytest.mark.parametrize("kind", ["asvi", "mean-field", "ar1", "mvn"])
@pytest.mark.parametrize("task_id", TASK_IDS)
@SD_WARNINGS
def test_batch_is_bit_identical_to_the_per_sample_loop(task_id, kind, monkeypatch):
    task = get_task(task_id)
    model = task.model
    if not task.is_pre_conditioned:
        model = condition(model, generate_data(task, seed=1)[0])
    result = fit(model, kind, TrainConfig(steps=50, seed=1, window=0))
    assert not result.diverged
    loops = count_loops(monkeypatch)
    for n_samples, seed in ((1, 3), (2, 4), (257, 5)):
        assert_batch_is_the_loop(model, result.surrogate, result.params, n_samples, seed)
    assert not loops  # every pass ran on arrays


@pytest.mark.parametrize("edge, seed", [("underflow", 104), ("overflow", 119)])
@SD_WARNINGS
def test_one_lognormal_sample_off_the_float_range(edge, seed, monkeypatch):
    # the model of `test_elbo_nonfinite_raises_diagnostic`; at these seeds
    # three draws hold one far below (104) or above (119) the other two,
    # so s = exp(loc + scale * eps) can put that sample alone out of the
    # float range, 0 (outside the support, and a zero scale for x) or
    # inf, with the other two near 1
    m = build_joint(
        [
            rv("s", LOG_NORMAL, params=(0.0, 1.0)),
            rv("x", NORMAL, parents=("s",), link=lambda s: (0.0, s)),
        ]
    )
    m = condition(m, {"x": 0.5})
    mf = build_surrogate("mean-field", m)
    eps = scalar_draws(mf.noise_spec, 3, np.random.default_rng(seed))[:, 0]
    k = int(np.argmin(eps) if edge == "underflow" else np.argmax(eps))
    others = np.delete(eps, k)
    assert k > 0 and np.ptp(others) < 0.005 * np.min(np.abs(others - eps[k]))
    scale = 800.0 / np.min(np.abs(others - eps[k]))
    params = mf.init_params.copy()
    params[mf.param_index["s.scale.alpha"]] = unconstrain_param("positive", scale)
    params[mf.param_index["s.loc.alpha"]] = -scale * others.mean()
    loops = count_loops(monkeypatch)
    values, terms = reference_samples(m, mf, params, 3, seed)
    assert values["s"][k] == (0.0 if edge == "underflow" else math.inf)
    assert np.flatnonzero(~np.isfinite(terms)).tolist() == [k]
    with pytest.raises(NonFiniteError, match=f"non-finite ELBO term nan at sample {k}$"):
        elbo_estimate(m, mf, params, 3, seed=seed)
    # the moment pass checks no density: it keeps the sample as drawn
    means, _ = surrogate_moments(mf, params, 3, seed=seed)
    assert means["s"] == values["s"].mean()
    assert_batch_is_the_loop(m, mf, params, 3, seed)
    assert not loops


def test_one_non_positive_link_scale_raises_from_the_array_pass(monkeypatch):
    m = build_joint(
        [
            rv("s", NORMAL, params=(0.3, 0.3)),
            rv("y", NORMAL, parents=("s",), link=lambda s: (0.0, s)),
        ]
    )
    m = condition(m, {"y": 0.1})
    mf = build_surrogate("mean-field", m)
    n, seed = 16, 0
    eps = scalar_draws(mf.noise_spec, n, np.random.default_rng(seed))[:, 0]
    k = int(np.argmin(eps))
    assert k > 0
    params = mf.init_params.copy()
    params[mf.param_index["s.scale.alpha"]] = unconstrain_param("positive", 1.0)
    # s = loc + eps: only the smallest draw gives a negative scale for y
    params[mf.param_index["s.loc.alpha"]] = -(eps[k] + np.sort(eps)[1]) / 2
    with pytest.raises(ParameterError) as loop_error:
        reference_samples(m, mf, params, n, seed)
    loops = count_loops(monkeypatch)
    with pytest.raises(ParameterError) as batch_error:
        elbo_estimate(m, mf, params, n, seed=seed)
    assert str(batch_error.value) == str(loop_error.value)
    assert "Normal requires scale > 0, got -" in str(loop_error.value)
    # q alone never reads y's scale
    means, _ = surrogate_moments(mf, params, n, seed=seed)
    assert means["s"] == reference_samples(None, mf, params, n, seed)[0]["s"].mean()
    assert not loops


@SD_WARNINGS
@pytest.mark.parametrize(
    "make_model, loops_expected",
    # uniform noise: every pass; y's link reads x: the ELBOs only, as q
    # never calls it
    [("two_bernoulli_model", 6), ("branching_link_model", 3)],
)
def test_programs_that_cannot_run_on_arrays_go_one_sample_at_a_time(
    make_model, loops_expected, monkeypatch
):
    model = globals()[make_model]()
    surrogate = build_surrogate("asvi", model)
    loops = count_loops(monkeypatch)
    for n_samples in (1, 2, 257):
        assert_batch_is_the_loop(model, surrogate, surrogate.init_params, n_samples, seed=n_samples)
    assert len(loops) == loops_expected


def mean_field_with_the_prior_link(model):
    """Mean-field as it was built before it skipped the prior link: the
    link runs for every latent and its output is dropped."""

    class CallsPriorLink(ConvexUpdateProgram):
        kind = "mean-field"

        def _node_params(self, node, entries, params, parent_values):
            node.params(parent_values)
            return super()._node_params(node, entries, params, parent_values)

    return CallsPriorLink(model, with_lam=False, init_seed=1)


def test_mean_field_records_no_prior_link():
    task = get_task("lz")
    model = condition(task.model, generate_data(task, seed=1)[0])
    mf = build_surrogate("mean-field", model, init_seed=1)
    old = mean_field_with_the_prior_link(model)
    assert mf.init_params.tobytes() == old.init_params.tobytes()
    draws = draw(mf, 1, np.random.default_rng(1))
    graph, old_graph = (CompiledElbo(model, q, mf.init_params, draws) for q in (mf, old))
    assert (len(graph.tape), len(old_graph.tape)) == (2930, 3452)
    assert graph.value == old_graph.value
    assert graph.gradient().tobytes() == old_graph.gradient().tobytes()
    cfg = TrainConfig(steps=120, seed=1, window=0, record_every=1)
    new_fit, old_fit = fit(model, mf, cfg), fit(model, old, cfg)
    assert new_fit.params.tobytes() == old_fit.params.tobytes()
    assert [l for _, l, _ in new_fit.trajectory] == [l for _, l, _ in old_fit.trajectory]


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


def recorded_fit(model, config, kind="asvi", init_params=None):
    """What `fit` does at the kind's default learning rate, recording the
    graph at every step and never stopping early: (params, losses,
    diverged)."""
    surrogate = build_surrogate(kind, model, init_seed=config.seed)
    rng = np.random.default_rng(config.seed)
    params = surrogate.init_params.copy() if init_params is None else np.array(init_params)
    state = AdamState.fresh(len(params), lr=SURROGATES[kind].lr)
    losses = []
    for _ in range(config.steps):
        try:
            graph = CompiledElbo(model, surrogate, params, draw(surrogate, config.n_samples, rng))
            value, grad = graph.value, graph.gradient()
        except _DIVERGENCE:
            return params, losses, True
        if not math.isfinite(value) or not np.all(np.isfinite(grad)):
            return params, losses, True
        losses.append(-value)
        state, params = adam_step(state, grad, params)
    return params, losses, False


def assert_fit_is_recorded(model, config, kind="asvi", init_params=None):
    """`fit` equals `recorded_fit` in bytes (`config.record_every` is 1);
    returns the fit."""
    result = fit(model, kind, config, init_params=init_params)
    params, losses, diverged = recorded_fit(model, config, kind, init_params)
    assert (result.diverged, result.steps_run) == (diverged, len(losses))
    assert result.params.tobytes() == params.tobytes()
    assert [loss for _, loss, _ in result.trajectory] == losses
    return result


def test_fit_stops_replaying_a_graph_that_changed():
    model = branching_link_model()
    surrogate = build_surrogate("asvi", model)
    graph = CompiledElbo(model, surrogate, surrogate.init_params, [[0.0, 0.0]])
    assert not graph.replayable  # the link reads x's value
    for seed in range(8):
        cfg = TrainConfig(steps=60, seed=seed, window=20, patience=100, record_every=1)
        assert_fit_is_recorded(model, cfg)


def count_recordings(monkeypatch):
    """A list that gets one entry per `CompiledElbo` that `fit` builds."""
    built = []

    class Counted(CompiledElbo):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(inference, "CompiledElbo", Counted)
    return built


def test_fit_keeps_replaying_a_fixed_graph(monkeypatch):
    model, _ = brownian(T=6, seed=5)
    built = count_recordings(monkeypatch)
    result = fit(model, "asvi", TrainConfig(steps=50, seed=1, window=10))
    assert result.steps_run == 50 and len(built) == 1


def test_discrete_graph_is_recorded_every_step(monkeypatch):
    model = two_bernoulli_model()
    surrogate = build_surrogate("asvi", model)
    rng = np.random.default_rng(0)
    assert not CompiledElbo(model, surrogate, surrogate.init_params, draw(surrogate, 1, rng)).replayable
    built = count_recordings(monkeypatch)
    fit(model, surrogate, TrainConfig(steps=20, seed=0, window=0))
    assert len(built) == 20


def stopped_in_replay(model, config, kind, init_params=None):
    """A fit that equals `recorded_fit` and diverged after some replayed
    steps: (fit, its step-0 graph, the draws of the step that diverged)."""
    result = assert_fit_is_recorded(model, config, kind, init_params)
    assert result.diverged and result.steps_run > 1
    surrogate = result.surrogate
    rng = np.random.default_rng(config.seed)
    draws = [draw(surrogate, config.n_samples, rng) for _ in range(result.steps_run + 1)]
    start = surrogate.init_params if init_params is None else init_params
    return result, CompiledElbo(model, surrogate, start, draws[0]), draws[-1]


def test_scale_turning_non_positive_in_replay_stops_fit_as_recording():
    m = build_joint(
        [
            rv("s", NORMAL, params=(0.3, 0.3)),
            rv("y", NORMAL, parents=("s",), link=lambda s: (0.0, s)),
        ]
    )
    m = condition(m, {"y": 0.1})
    cfg = TrainConfig(steps=100, seed=0, window=0, record_every=1)
    result, graph, draws = stopped_in_replay(m, cfg, "mean-field")
    assert result.steps_run == 9
    with pytest.raises(ParameterError, match="scale > 0"):
        CompiledElbo(m, result.surrogate, result.params, draws)
    with pytest.raises(DomainError, match="log of non-positive"):
        graph.replay(result.params, draws)


def test_lognormal_underflow_in_replay_stops_fit_as_recording():
    m = build_joint(
        [
            rv("s", LOG_NORMAL, params=(0.0, 1.0)),
            rv("x", NORMAL, params=(0.0, 1.0)),
            rv("y", NORMAL, parents=("x",), link=lambda x: (x, 1.0)),
        ]
    )
    m = condition(m, {"y": 0.5})
    mf = build_surrogate("mean-field", m)
    start = mf.init_params.copy()
    start[mf.param_index["s.loc.alpha"]] = -650.0
    start[mf.param_index["s.scale.alpha"]] = unconstrain_param("positive", 60.0)
    cfg = TrainConfig(steps=100, seed=0, window=0, record_every=1)
    result, graph, draws = stopped_in_replay(m, cfg, "mean-field", start)
    values, _, _ = mf.sample_and_log_prob(list(result.params), draws[0])
    assert values["s"] == 0.0
    # recording takes log q and log p of s as -inf: the term is NaN
    assert math.isnan(CompiledElbo(m, result.surrogate, result.params, draws).value)
    with pytest.raises(DomainError, match="log of non-positive"):
        graph.replay(result.params, draws)


@pytest.mark.filterwarnings("ignore:overflow encountered")  # Adam squares gradients near 1e308
def test_log_density_overflow_in_replay_stops_fit_as_recording():
    m = build_joint(
        [
            rv("s", NORMAL, params=(0.0, 1.0)),
            rv("y", NORMAL, parents=("s",), link=lambda s: (s * 1e154, 1.0)),
        ]
    )
    m = condition(m, {"y": 0.0})
    for kind in ("asvi", "mean-field"):
        cfg = TrainConfig(steps=100, seed=0, window=0, record_every=1)
        result, graph, draws = stopped_in_replay(m, cfg, kind)
        recorded = CompiledElbo(m, result.surrogate, result.params, draws)
        assert recorded.value == -math.inf  # `_accumulate` stopped at y's -inf
        value, _ = graph.replay(result.params, draws)
        assert not math.isfinite(value)


def test_halfnormal_support_check_cannot_fail_in_replay():
    m = build_joint(
        [
            rv("t", HALF_NORMAL, params=(1.0,)),
            rv("s", HALF_NORMAL, parents=("t",), link=lambda t: (t,)),
            rv("y", NORMAL, parents=("s",), link=lambda s: (0.0, s)),
        ]
    )
    m = condition(m, {"y": 0.3})
    for kind in SURROGATES:
        cfg = TrainConfig(steps=150, seed=1, window=0, record_every=1)
        assert not assert_fit_is_recorded(m, cfg, kind).diverged, kind


def test_elbo_off_the_tape_is_divergence():
    # the lone latent's sample underflows to 0, so log q and log p are
    # both the float -inf and the objective is a float NaN
    m = build_joint(
        [
            rv("s", LOG_NORMAL, params=(0.0, 1.0)),
            rv("x", NORMAL, parents=("s",), link=lambda s: (0.0, s)),
        ]
    )
    m = condition(m, {"x": 0.5})
    asvi = build_surrogate("asvi", m)
    bad = asvi.init_params.copy()
    bad[asvi.param_index["s.loc.alpha"]] = -800.0
    bad[asvi.param_index["s.loc.lam_logit"]] = -40.0
    with pytest.raises(NonFiniteError, match="depends on no parameter"):
        elbo_gradient(m, asvi, bad)
    result = fit(m, asvi, TrainConfig(steps=10, seed=0, window=0), init_params=bad)
    assert result.diverged and result.steps_run == 0


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


@pytest.mark.parametrize("field, value", [("steps", -3), ("n_samples", 0), ("record_every", 0)])
def test_train_config_rejects_values_that_break_fit(field, value):
    # unchecked, `fit` gave an empty trajectory (steps < 0), a "divergence"
    # after 0 steps (n_samples 0) and a ZeroDivisionError (record_every 0)
    with pytest.raises(ValueError, match=f"TrainConfig.{field} must be >= "):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("lr", [0.0, -0.05, math.inf, math.nan])
def test_train_config_rejects_a_learning_rate_that_is_not_positive(lr):
    # a negative rate ran to the end and descended the ELBO instead
    with pytest.raises(ValueError, match="TrainConfig.lr must be positive and finite"):
        TrainConfig(lr=lr)


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
    for kind in SURROGATES:
        cfg = TrainConfig(steps=200, seed=3, window=0, record_every=1)
        assert not assert_fit_is_recorded(model, cfg, kind).diverged


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
