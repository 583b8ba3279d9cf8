import dataclasses
import math
import re

import numpy as np
import pytest

from convexvi.model import condition, joint_log_prob, sample_forward
from convexvi.oracles import collapsed_posterior, kalman_filter_smoother
from convexvi.tasks import (
    BR_CONFIG,
    LZ_CONFIG,
    RadonRecord,
    SchoolsData,
    SdeTaskConfig,
    Task,
    brownian_chain_spec,
    collapsed_spec,
    default_mask,
    generate_data,
    get_task,
    load_radon_csv,
    load_task_config,
    lorenz_drift,
    make_brownian,
    make_eight_schools,
    make_lorenz,
    make_radon,
    save_radon_csv,
    synthetic_radon_records,
)


def test_brownian_defaults():
    assert BR_CONFIG.steps == 30
    assert BR_CONFIG.dt == 0.01
    assert BR_CONFIG.innovation_scale == 0.1
    assert BR_CONFIG.obs_scale == 0.15
    assert BR_CONFIG.mask == tuple(t < 10 or t >= 20 for t in range(30))


def test_brownian_node_counts():
    m = make_brownian()
    assert len(m.nodes) == 30 + 20  # 30 states, 20 observation sites
    mg = make_brownian(with_globals=True)
    assert len(mg.nodes) == len(m.nodes) + 2
    assert mg.global_names == {"sigma_x", "sigma_obs"}


def test_brownian_observation_mask():
    task = get_task("br")
    assert task.observed_names == tuple(f"y_{t}" for t in list(range(10)) + list(range(20, 30)))
    # masked steps carry no observation records
    obs, _ = generate_data(task, seed=0)
    assert set(obs) == set(task.observed_names)
    for t in range(10, 20):
        assert f"y_{t}" not in obs


def test_brownian_x0_anchored_at_zero():
    m = make_brownian()
    node = m.node("x_0")
    assert node.params(()) == (0.0, pytest.approx(0.1 * math.sqrt(0.01)))


def test_lorenz_defaults_and_drift():
    assert LZ_CONFIG.dt == 0.02
    assert LZ_CONFIG.steps == 30
    assert lorenz_drift(1.0, 1.0, 1.0) == (0.0, 26.0, pytest.approx(1.0 - 8.0 / 3.0))


def test_lorenz_structure():
    m = make_lorenz()
    state_nodes = [n for n in m.nodes if n.name.startswith("x_")]
    assert len(state_nodes) == 90
    obs_nodes = [n for n in m.nodes if n.name.startswith("y_")]
    assert len(obs_nodes) == 20
    # only the first coordinate is observed
    for n in obs_nodes:
        assert n.parents[0].endswith("_0")
    mg = make_lorenz(with_globals=True)
    assert mg.global_names == {"sigma", "sigma_obs"}
    assert len(mg.nodes) == len(m.nodes) + 2


@pytest.mark.parametrize("task_id", ["br", "brg", "lz", "lzg"])
def test_lorenz_transition_link(task_id):
    # start, innovation and observation links of each SDE task at fixed
    # parent values: parent order, loc and scale, bit for bit
    m = get_task(task_id).model
    state, s, s_obs = (1.2, -0.7, 2.0), 0.3, 0.4
    if task_id.startswith("br"):
        sqdt = math.sqrt(0.01)
        dims = [("x_0", "x_5", ("x_4",), state[0])]
        obs_parent, obs_scale = "x_2", 0.15
    else:
        sqdt = math.sqrt(0.02)
        d = lorenz_drift(*state)
        dims = [
            (f"x_0_{i}", f"x_5_{i}", ("x_4_0", "x_4_1", "x_4_2"), state[i] + d[i] * 0.02)
            for i in range(3)
        ]
        obs_parent, obs_scale = "x_2_0", 1.0
    with_globals = task_id.endswith("g")
    scale_name = {"brg": "sigma_x", "lzg": "sigma"}.get(task_id)
    for start, name, prev, loc in dims:
        if with_globals:
            assert m.node(start).parents == (scale_name,)
            assert m.node(start).params((s,)) == (0.0, s * sqdt)
            assert m.node(name).parents == prev + (scale_name,)
            assert m.node(name).params(state[: len(prev)] + (s,)) == (loc, s * sqdt)
        else:
            assert m.node(start).parents == ()
            assert m.node(start).params(()) == (0.0, 0.1 * sqdt)
            assert m.node(name).parents == prev
            assert m.node(name).params(state[: len(prev)]) == (loc, 0.1 * sqdt)
    obs = m.node("y_2")
    if with_globals:
        assert obs.parents == (obs_parent, "sigma_obs")
        assert obs.params((1.2, s_obs)) == (1.2, s_obs)
    else:
        assert obs.parents == (obs_parent,)
        assert obs.params((1.2,)) == (1.2, obs_scale)


def test_eight_schools_bundled_dataset():
    data = SchoolsData()
    assert data.effects == (28.0, 8.0, -3.0, 7.0, -1.0, 1.0, 18.0, 12.0)
    assert data.standard_errors == (15.0, 10.0, 16.0, 11.0, 9.0, 11.0, 10.0, 18.0)


def test_eight_schools_latents():
    m = make_eight_schools()
    latent = [n.name for n in m.latent_nodes]
    assert len(latent) == 10
    assert latent[:2] == ["mu", "tau"]
    assert all(f"theta_{i}" in latent for i in range(8))
    assert len(m.observations) == 8


def test_radon_latent_count():
    records = synthetic_radon_records(n_counties=3, n_records=10, seed=1)
    m = make_radon(records)
    assert len(m.latent_nodes) == 9  # mu, tau, beta1..3, sigma, theta_0..2
    assert len(m.observations) == 10


def test_radon_rejects_bad_records():
    with pytest.raises(ValueError):
        RadonRecord(county=0, log_uranium=0.0, floor=2, county_mean_floor=0.0, log_radon=0.0)
    with pytest.raises(ValueError):
        make_radon([])
    bad = [RadonRecord(county=1, log_uranium=0.0, floor=0, county_mean_floor=0.0, log_radon=0.0)]
    with pytest.raises(ValueError, match="contiguous"):
        make_radon(bad)


def test_radon_truncated_prior_support():
    records = synthetic_radon_records(seed=2)
    m = make_radon(records)
    tr = sample_forward(m, seed=0)
    values = dict(tr.values)
    values["tau"] = -0.5
    assert joint_log_prob(m, values) == float("-inf")


def test_radon_csv_round_trip(tmp_path):
    records = synthetic_radon_records(n_counties=2, n_records=6, seed=3)
    path = tmp_path / "radon.csv"
    save_radon_csv(records, path)
    back = load_radon_csv(path)
    assert back == records


def test_generate_data_deterministic():
    task = get_task("br")
    obs1, truth1 = generate_data(task, seed=42)
    obs2, truth2 = generate_data(task, seed=42)
    assert obs1 == obs2
    assert truth1.values == truth2.values


def test_generate_data_rejects_fixed_data_tasks():
    with pytest.raises(ValueError, match="fixed data"):
        generate_data(get_task("es"), seed=0)


def test_brownian_observation_residual_sd():
    task = get_task("br")
    residuals = []
    for seed in range(400):
        obs, truth = generate_data(task, seed=seed)
        for name, y in obs.items():
            t = int(name.split("_")[1])
            residuals.append(y - truth.values[f"x_{t}"])
    sd = float(np.std(residuals))
    assert abs(sd - 0.15) / 0.15 < 0.05


def test_euler_maruyama_transition_variance():
    task = get_task("lz")
    scaled = []
    sqdt = math.sqrt(LZ_CONFIG.dt)
    for seed in range(300):
        _, truth = generate_data(task, seed=seed)
        v = truth.values
        for t in range(1, 30):
            state = (v[f"x_{t-1}_0"], v[f"x_{t-1}_1"], v[f"x_{t-1}_2"])
            drift = lorenz_drift(*state)
            for i in range(3):
                pred = state[i] + drift[i] * LZ_CONFIG.dt
                scaled.append((v[f"x_{t}_{i}"] - pred) / sqdt)
    sd = float(np.std(scaled))
    assert abs(sd - 0.1) / 0.1 < 0.05


def test_all_tasks_finite_log_prob_on_forward_sweep():
    for task_id in ("br", "brg", "lz", "lzg", "es", "radon"):
        task = get_task(task_id)
        if task.is_pre_conditioned:
            model = task.model
        else:
            obs, _ = generate_data(task, seed=0)
            model = condition(task.model, obs)
        n_seeds = 1000 if task_id in ("br", "brg", "es", "radon") else 200
        for seed in range(n_seeds):
            tr = sample_forward(model, seed=seed)
            assert math.isfinite(tr.total), (task_id, seed)


def test_brownian_kalman_spec_matches_model():
    # the chain spec and the graph define the same joint density
    task = get_task("br")
    obs, truth = generate_data(task, seed=9)
    model = condition(task.model, obs)
    spec = brownian_chain_spec(BR_CONFIG)
    res = kalman_filter_smoother(spec, {int(k.split("_")[1]): v for k, v in obs.items()})
    # exact evidence must upper-bound any ELBO; spot-check finiteness here
    assert math.isfinite(res.log_evidence)
    lp = joint_log_prob(model, truth.values)
    manual = 0.0
    sq = 0.1 * math.sqrt(0.01)
    prev = 0.0
    for t in range(30):
        x = truth.values[f"x_{t}"]
        manual += -0.5 * ((x - prev) / sq) ** 2 - math.log(sq) - 0.5 * math.log(2 * math.pi)
        prev = x
    for name, y in obs.items():
        t = int(name.split("_")[1])
        x = truth.values[f"x_{t}"]
        manual += -0.5 * ((y - x) / 0.15) ** 2 - math.log(0.15) - 0.5 * math.log(2 * math.pi)
    assert lp == pytest.approx(manual, rel=1e-12)


def test_task_config_rejects_bad_values():
    with pytest.raises(ValueError):
        SdeTaskConfig(steps=0)
    with pytest.raises(ValueError):
        SdeTaskConfig(dt=-1.0)
    # a NaN passed `dt <= 0`, and inf too
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            SdeTaskConfig(dt=bad)
        for scale in ("innovation_scale", "obs_scale"):
            with pytest.raises(ValueError, match="finite"):
                SdeTaskConfig(**{scale: bad})
    with pytest.raises(ValueError):
        SdeTaskConfig(steps=5, mask=(True,) * 4)


def test_task_config_checks_types_when_built_in_python():
    # the type checks sit in the config, not only at the JSON boundary:
    # steps=True was a 1-step chain, and a mask entry "no" was taken as True
    for kwargs, message in (
        ({"steps": True}, "'steps' takes an integer, not True"),
        ({"steps": 3.0}, "'steps' takes an integer, not 3.0"),
        ({"dt": False}, "'dt' takes a number, not False"),
        ({"innovation_scale": "0.1"}, "'innovation_scale' takes a number, not '0.1'"),
        ({"obs_scale": None}, "'obs_scale' takes a number, not None"),
        ({"steps": 3, "mask": ["no", 1, 0]}, "'mask' takes a list of booleans or 0/1"),
        ({"steps": 3, "mask": [1, 2, 1]}, "'mask' takes a list of booleans or 0/1"),
        ({"steps": 3, "mask": "yes"}, "'mask' takes a list of booleans or 0/1"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            SdeTaskConfig(**kwargs)
    assert SdeTaskConfig(steps=3, dt=1, mask=[1, 0, True]).mask == (True, False, True)


def test_default_mask_thirds():
    assert default_mask(30) == tuple(t < 10 or t >= 20 for t in range(30))
    assert sum(default_mask(9)) == 6


def test_load_task_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"steps": 12, "dt": 0.05}')
    overrides = load_task_config(path)
    cfg = SdeTaskConfig(**{**{"innovation_scale": 0.1, "obs_scale": 0.15}, **overrides})
    assert cfg.steps == 12 and cfg.dt == 0.05
    bad = tmp_path / "bad.json"
    bad.write_text('{"nope": 1}')
    with pytest.raises(ValueError, match="unknown task-config"):
        load_task_config(bad)


def test_unknown_task_id():
    with pytest.raises(ValueError, match="unknown task"):
        get_task("zzz")


def test_global_variant_data_comes_from_fixed_scale_law():
    # brg/lzg are inference models only; datasets follow the br/lz law
    residuals = []
    for seed in range(300):
        obs, truth = generate_data(get_task("brg"), seed=seed)
        assert "sigma_x" not in truth.values
        for name, y in obs.items():
            t = int(name.split("_")[1])
            residuals.append(y - truth.values[f"x_{t}"])
    sd = float(np.std(residuals))
    assert abs(sd - 0.15) / 0.15 < 0.05

    obs_brg, _ = generate_data(get_task("brg"), seed=11)
    obs_br, _ = generate_data(get_task("br"), seed=11)
    assert obs_brg == obs_br

    obs_lzg, _ = generate_data(get_task("lzg"), seed=11)
    obs_lz, _ = generate_data(get_task("lz"), seed=11)
    assert obs_lzg == obs_lz


# ---------------------------------------------------------------------------
# the collapsed oracle's conditionals

COLLAPSED = ("es", "radon", "brg")
# three points in the bulk of each posterior, as log scales
BULK = {
    "es": [(1.5,), (2.5,), (3.5,)],
    "radon": [(-1.5, -1.2), (-0.5, -1.0), (0.2, -0.7)],
    "brg": [(-3.0, -2.0), (-2.3, -1.9), (-1.0, -1.7)],
}
# SD of each scale's log under its prior: LogNormal(., 1), log|N(0, 1)|, LogNormal(., 2)
PRIOR_LOG_SD = {"es": 1.0, "radon": math.pi / math.sqrt(8.0), "brg": 2.0}


def collapsed_dataset(task_id, seed=1):
    task = get_task(task_id)
    model = task.model
    if not task.is_pre_conditioned:
        model = condition(model, generate_data(task, seed=seed)[0])
    return model, collapsed_spec(task, model)


def block_log_density(model, spec, scales):
    """z -> log p(z, data | scales) from the model's own joint density, for
    rows z of block values."""
    prior = sum(node.family.log_prob(node.params(()), scales[node.name]) for node in spec.scales)

    def f(z):
        return joint_log_prob(model, {**scales, **dict(zip(spec.block, z.T))}) - prior

    return f


def hessian(f, z):
    """Central second differences at unit steps: exact, up to rounding,
    for a quadratic f."""
    k = len(z)
    signs = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    eye = np.eye(k)
    points = [z + a * eye[i] + b * eye[j] for i in range(k) for j in range(k) for a, b in signs]
    v = f(np.array(points)).reshape(k, k, 4)
    return (v[..., 0] - v[..., 1] - v[..., 2] + v[..., 3]) / 4.0


@pytest.mark.parametrize("task_id", COLLAPSED)
def test_collapsed_conditional_factors_the_model_density(task_id):
    # log p(z, data | scales) = log p(data | scales) + log N(z | mean, cov)
    model, spec = collapsed_dataset(task_id)
    rng = np.random.default_rng(0)
    for point in BULK[task_id]:
        u = [axis[np.argmin(abs(axis - p))] for axis, p in zip(spec.axes, point)]
        scales = {node.name: math.exp(v) for node, v in zip(spec.scales, u)}
        log_ev, means, variances = spec.conditional(*(np.array([s]) for s in scales.values()))
        log_ev, mean, var = float(log_ev[0]), means[0], variances[0]
        f = block_log_density(model, spec, scales)
        precision = -hessian(f, mean)
        cov = np.linalg.inv(precision)
        assert np.allclose(var, np.diag(cov), rtol=1e-9, atol=0)
        _, logdet = np.linalg.slogdet(precision)
        z = mean + rng.standard_normal((3, len(mean))) @ np.linalg.cholesky(cov).T
        r = z - mean
        quad = np.einsum("ni,ij,nj->n", r, precision, r)
        log_normal = -0.5 * (quad - logdet + len(mean) * math.log(2 * math.pi))
        assert np.allclose(f(z), log_ev + log_normal, rtol=0, atol=1e-9)


@pytest.mark.parametrize("task_id", COLLAPSED)
def test_collapsed_grid_is_wide_and_fine_enough(task_id):
    # twice the points on axes 2 prior SDs wider each way move no moment
    # by 1e-6 of its SD
    _, spec = collapsed_dataset(task_id)
    sd = PRIOR_LOG_SD[task_id]
    wider = tuple(np.linspace(a[0] - 2 * sd, a[-1] + 2 * sd, 2 * len(a)) for a in spec.axes)
    base = collapsed_posterior(spec)
    fine = collapsed_posterior(dataclasses.replace(spec, axes=wider))
    assert list(base.means) == [n.name for n in spec.scales] + list(spec.block)
    for name, true_sd in fine.sds.items():
        assert abs(base.means[name] - fine.means[name]) < 1e-6 * true_sd, name
        assert abs(base.sds[name] - true_sd) < 1e-6 * true_sd, name
    assert base.edge_mass < 1e-6 and base.grid_shape == tuple(map(len, spec.axes))


def test_brownian_conditional_at_the_br_scales_is_the_br_smoother():
    model, spec = collapsed_dataset("brg", seed=4)
    log_ev, means, variances = spec.conditional(np.array([0.1]), np.array([0.15]))
    observations = {int(k.split("_")[1]): v for k, v in model.observations.items()}
    res = kalman_filter_smoother(brownian_chain_spec(), observations)
    assert np.allclose(means[0], res.smoothed_means, rtol=0, atol=1e-12)
    assert np.allclose(variances[0], res.smoothed_vars, rtol=0, atol=1e-12)
    assert abs(log_ev[0] - res.log_evidence) < 1e-12
