import math

import numpy as np
import pytest

from convexvi import model as model_module
from convexvi.autodiff import value_of
from convexvi.distributions import (
    BERNOULLI,
    HALF_NORMAL,
    LOG_NORMAL,
    NORMAL,
    Categorical,
    ParameterError,
    draw_noise,
)
from convexvi.model import (
    ModelError,
    build_joint,
    condition,
    joint_log_prob,
    latent_log_prob,
    rv,
    sample_forward,
    sample_prior,
)
from convexvi.tasks import TASK_IDS, generate_data, get_task

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


def count_per_seed_passes(monkeypatch, model, seeds):
    """A list that gets the seed of each ancestral pass on floats that
    `sample_prior(model, seeds)` runs (`over_rows`' per-row path), which
    it does only when the arrays cannot take the seeds.  A pass's seed is
    the one whose `sample_forward` noise row it is given."""
    noise_kinds = [n.family.noise for n in model.latent_nodes]
    seed_of = {tuple(draw_noise(noise_kinds, 1, np.random.default_rng(s))[0].tolist()): s for s in seeds}
    passes = []
    over_rows = model_module.over_rows

    def counted(kinds, noise, run, keys):
        def watched(row):
            if not any(isinstance(e, np.ndarray) for e in row):
                passes.append(seed_of[tuple(row)])
            return run(row)

        return over_rows(kinds, noise, watched, keys)

    monkeypatch.setattr(model_module, "over_rows", counted)
    return passes


def per_seed_values(model, seeds):
    """Each latent's `sample_forward` values over `seeds`, as bytes."""
    traces = [sample_forward(model, seed).values for seed in seeds]
    return {n.name: np.array([t[n.name] for t in traces]).tobytes() for n in model.latent_nodes}


@pytest.mark.parametrize("task_id", TASK_IDS)
def test_sample_prior_is_sample_forward_per_seed(task_id, monkeypatch):
    # at seed s: the data of seed s and the 100 seeds a Gaussian baseline
    # built at seed s draws, with a repeated seed and the extremes
    task = get_task(task_id)
    for s in (1, 2, 3):
        model = task.model if task.is_pre_conditioned else condition(task.model, generate_data(task, seed=s)[0])
        rng = np.random.default_rng(s)
        seeds = [int(rng.integers(2**31 - 1)) for _ in range(100)] + [0, 2**31 - 2, 0]
        expected = per_seed_values(model, seeds)
        passes = count_per_seed_passes(monkeypatch, model, seeds)
        prior = sample_prior(model, seeds)
        assert not passes  # one pass over arrays
        assert list(prior) == list(expected)
        assert {name: v.tobytes() for name, v in prior.items()} == expected
        monkeypatch.undo()


def test_sample_prior_runs_per_seed_where_a_link_reads_a_value(monkeypatch):
    # z's link branches on x's value, which an array of seeds cannot give;
    # a Bernoulli latent draws uniform noise, which the arrays never take
    branching = build_joint(
        [
            rv("x", NORMAL, params=(0.0, 1.0)),
            rv("z", NORMAL, parents=("x",), link=lambda x: (1.0 if value_of(x) > 0.0 else -1.0, 0.5)),
            rv("y", NORMAL, parents=("z",), link=lambda z: (z, 1.0)),
        ]
    )
    gated = build_joint(
        [
            rv("gate", BERNOULLI, params=(0.5,)),
            rv("x", NORMAL, parents=("gate",), link=lambda g: (5.0, 0.1) if g == 1.0 else (-5.0, 0.1)),
        ]
    )
    seeds = list(range(20))
    for model in (condition(branching, {"y": 0.4}), gated):
        expected = per_seed_values(model, seeds)
        passes = count_per_seed_passes(monkeypatch, model, seeds)
        prior = sample_prior(model, seeds)
        assert passes == seeds
        assert {name: v.tobytes() for name, v in prior.items()} == expected
        monkeypatch.undo()
    assert set(np.sign(sample_prior(branching, seeds)["x"])) == {-1.0, 1.0}


def test_sample_prior_raises_what_the_first_failing_seed_raises(monkeypatch):
    # the observed y's scale is x, which is negative at some seeds: the
    # density of y fails there, in the arrays and then for that seed
    model = build_joint(
        [
            rv("x", NORMAL, params=(0.3, 0.3)),
            rv("y", NORMAL, parents=("x",), link=lambda x: (0.0, x)),
        ]
    )
    model = condition(model, {"y": 0.1})
    seeds = list(range(12))
    failing = []
    for seed in seeds:
        try:
            sample_forward(model, seed)
        except ParameterError as error:
            failing.append((seed, str(error)))
    assert 0 < len(failing) < len(seeds) and failing[0][0] > 0
    passes = count_per_seed_passes(monkeypatch, model, seeds)
    with pytest.raises(ParameterError) as error:
        sample_prior(model, seeds)
    assert str(error.value) == failing[0][1]
    assert "Normal requires scale > 0, got -" in failing[0][1]
    assert passes == seeds[: failing[0][0] + 1]  # the arrays raised, then the loop
    # the good seeds alone run on arrays
    good = [seed for seed in seeds if seed not in dict(failing)]
    passes.clear()
    assert sample_prior(model, good)["x"].tobytes() == per_seed_values(model, good)["x"]
    assert not passes


def test_sample_prior_of_no_seeds_is_one_empty_array_per_latent(monkeypatch):
    # es runs on arrays, of no entries; a Bernoulli latent draws uniform
    # noise, so its model goes one seed at a time, of which there is none
    gated = build_joint(
        [
            rv("gate", BERNOULLI, params=(0.5,)),
            rv("x", NORMAL, parents=("gate",), link=lambda g: (5.0 * g, 0.1)),
        ]
    )
    for model, array_runs in ((get_task("es").model, [True]), (gated, [])):
        runs = []
        over_rows = model_module.over_rows

        def spied(kinds, noise, run, keys):
            def watched(eps):
                runs.append(any(isinstance(e, np.ndarray) for e in eps))
                return run(eps)

            return over_rows(kinds, noise, watched, keys)

        monkeypatch.setattr(model_module, "over_rows", spied)
        prior = sample_prior(model, [])
        monkeypatch.undo()
        assert runs == array_runs
        assert list(prior) == [n.name for n in model.latent_nodes]
        for values in prior.values():
            assert type(values) is np.ndarray and values.dtype == np.float64 and values.shape == (0,)
