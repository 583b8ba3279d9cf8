"""Benchmark model constructors and data generators.

Six tasks: Brownian-motion bridging with fixed or unknown scales
(br/brg), a stochastic Lorenz system likewise (lz/lzg), Eight Schools
(es), and a hierarchical Radon regression (radon).  The four SDE tasks
are one Euler-Maruyama chain (``_euler_maruyama``): Brownian motion is
its driftless 1-D case, and the global-scale variants give its two
scales LogNormal priors.  They declare observation nodes only at
masked-in steps, so the latent set is exactly the state chain; data for
them is produced by forward simulation (``generate_data``) and bound
with ``condition``.

es, radon and brg are Gaussian once their scale latents are fixed; each
supplies that Gaussian block to the collapsed oracle (``collapsed_spec``).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import HALF_NORMAL, LOG_NORMAL, NORMAL
from .model import JointModel, build_joint, condition, rv, sample_forward
from .oracles import (
    CollapsedSpec,
    LinearGaussianChainSpec,
    gaussian_condition,
    kalman_filter_smoother,
)


def default_mask(steps):
    """Observe the first and last thirds; 30 steps -> first and last 10."""
    third = steps // 3
    return tuple(t < third or t >= steps - third for t in range(steps))


@dataclass(frozen=True)
class SdeTaskConfig:
    steps: int = 30
    dt: float = 0.01
    innovation_scale: float = 0.1
    obs_scale: float = 0.15
    mask: tuple = None

    def __post_init__(self):
        # a bool is no number here: True would be a 1-step chain or a scale of 1.0
        for name in ("steps", "dt", "innovation_scale", "obs_scale"):
            value = getattr(self, name)
            kind, what = (int, "an integer") if name == "steps" else ((int, float), "a number")
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{name!r} takes {what}, not {value!r}")
        mask = self.mask
        if mask is not None and not (
            isinstance(mask, (list, tuple)) and all(type(b) in (bool, int) and b in (0, 1) for b in mask)
        ):
            raise ValueError(f"'mask' takes a list of booleans or 0/1, not {mask!r}")
        if self.steps <= 0 or not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError("steps and dt must be positive, dt finite")
        scales = (self.innovation_scale, self.obs_scale)
        if not all(math.isfinite(s) and s > 0 for s in scales):
            raise ValueError("scales must be positive and finite")
        if self.mask is None:
            object.__setattr__(self, "mask", default_mask(self.steps))
        elif len(self.mask) != self.steps:
            raise ValueError("mask length must equal steps")
        else:
            object.__setattr__(self, "mask", tuple(bool(b) for b in self.mask))


BR_CONFIG = SdeTaskConfig(steps=30, dt=0.01, innovation_scale=0.1, obs_scale=0.15)
LZ_CONFIG = SdeTaskConfig(steps=30, dt=0.02, innovation_scale=0.1, obs_scale=1.0)
# the default configuration of each SDE task
SDE_DEFAULTS = {"br": BR_CONFIG, "brg": BR_CONFIG, "lz": LZ_CONFIG, "lzg": LZ_CONFIG}


def _euler_maruyama(config, locs=None, scale_prior=None, scale_name="sigma"):
    """Euler-Maruyama chain from the origin, observed at masked-in steps.

    With `locs` None the state is the scalar walk x_t (no drift).  With
    three functions `locs[i](x0, x1, x2)`, the mean of component i of
    the next state, it is the 3-D state x_t_i, and only x_t_0 is
    observed.  A `scale_prior` (LogNormal parameters) turns the
    innovation and observation scales into the latents `scale_name` and
    `sigma_obs`.  Every sample calls every link, so each link takes its
    parents as plain positional arguments.
    """
    sqdt = math.sqrt(config.dt)
    dims = ("",) if locs is None else ("_0", "_1", "_2")
    if scale_prior is None:
        scale, obs_scale = config.innovation_scale * sqdt, config.obs_scale
        globals_, scales, obs_scales = (), (), ()
        start = {"params": (0.0, scale)}
        walk = lambda p: (p, scale)
        drift = [lambda a, b, c, loc=loc: (loc(a, b, c), scale) for loc in locs or ()]
        observe = lambda x: (x, obs_scale)
    else:
        globals_, scales, obs_scales = (scale_name, "sigma_obs"), (scale_name,), ("sigma_obs",)
        start = {"link": lambda s: (0.0, s * sqdt)}
        walk = lambda p, s: (p, s * sqdt)
        drift = [lambda a, b, c, s, loc=loc: (loc(a, b, c), s * sqdt) for loc in locs or ()]
        observe = lambda x, s: (x, s)
    nodes = [rv(name, LOG_NORMAL, params=scale_prior) for name in globals_]
    for t in range(config.steps):
        prev = tuple(f"x_{t-1}{d}" for d in dims)
        for i, d in enumerate(dims):
            if t == 0:
                # previous state pinned at the origin, where the drift vanishes
                nodes.append(rv(f"x_0{d}", NORMAL, scales, **start))
            else:
                link = walk if locs is None else drift[i]
                nodes.append(rv(f"x_{t}{d}", NORMAL, prev + scales, link=link))
    for t in range(config.steps):
        if config.mask[t]:
            nodes.append(rv(f"y_{t}", NORMAL, (f"x_{t}{dims[0]}",) + obs_scales, link=observe))
    return build_joint(nodes, global_names=globals_)


def make_brownian(config: SdeTaskConfig = BR_CONFIG, with_globals=False) -> JointModel:
    """Driftless random walk, x_0 anchored at zero, ends observed.

    With globals, the innovation and observation scales become
    LogNormal(0, 2) latents `sigma_x` and `sigma_obs`.
    """
    prior = (0.0, 2.0) if with_globals else None
    return _euler_maruyama(config, scale_prior=prior, scale_name="sigma_x")


def brownian_chain_spec(config: SdeTaskConfig = BR_CONFIG, scales=None) -> LinearGaussianChainSpec:
    """The Brownian task as a linear-Gaussian chain, at the config's
    scales or at `scales` = (innovation, observation), which may be
    arrays over a grid."""
    innovation, obs = scales or (config.innovation_scale, config.obs_scale)
    var = (innovation**2) * config.dt
    return LinearGaussianChainSpec(
        init_mean=0.0,
        init_var=var,
        transition=[1.0] * (config.steps - 1),
        innovation_var=[var] * (config.steps - 1),
        obs_var=[obs**2] * config.steps,
        mask=list(config.mask),
    )


def observed_steps(observations):
    """{t: y_t} of an SDE dataset, from its observations {"y_t": y_t}."""
    return {int(name.split("_")[1]): y for name, y in observations.items()}


# the three components of the Lorenz drift, one function each, so that a
# link computes only the component it needs
LORENZ_DRIFT = (
    lambda x0, x1, x2: 10.0 * (x1 - x0),
    lambda x0, x1, x2: x0 * (28.0 - x2) - x1,
    lambda x0, x1, x2: x0 * x1 - (8.0 / 3.0) * x2,
)


def lorenz_drift(x0, x1, x2):
    """Deterministic part of the stochastic Lorenz system."""
    return tuple(d(x0, x1, x2) for d in LORENZ_DRIFT)


def make_lorenz(config: SdeTaskConfig = LZ_CONFIG, with_globals=False) -> JointModel:
    """Euler-Maruyama discretization of the stochastic Lorenz system.

    The chain starts from the origin; only the first coordinate is
    observed.  With globals, the innovation and observation scales
    become LogNormal(-1, 1) latents `sigma` and `sigma_obs`.
    """
    dt = config.dt
    locs = [lambda *x, i=i: x[i] + LORENZ_DRIFT[i](*x) * dt for i in range(3)]
    return _euler_maruyama(config, locs, scale_prior=(-1.0, 1.0) if with_globals else None)


# ---------------------------------------------------------------------------
# hierarchical models


@dataclass(frozen=True)
class SchoolsData:
    effects: tuple = (28.0, 8.0, -3.0, 7.0, -1.0, 1.0, 18.0, 12.0)
    standard_errors: tuple = (15.0, 10.0, 16.0, 11.0, 9.0, 11.0, 10.0, 18.0)

    def __post_init__(self):
        if len(self.effects) != 8 or len(self.standard_errors) != 8:
            raise ValueError("eight schools needs exactly 8 records")
        if any(s <= 0 for s in self.standard_errors):
            raise ValueError("standard errors must be positive")


def make_eight_schools(data: SchoolsData = SchoolsData()) -> JointModel:
    """Coaching-effect hierarchy, conditioned on the supplied effects.

    mu ~ N(0, 100), tau ~ LogNormal(5, 1), theta_i ~ N(mu, tau),
    y_i ~ N(theta_i, se_i); scale arguments are standard deviations.
    """
    nodes = [
        rv("mu", NORMAL, params=(0.0, 100.0)),
        rv("tau", LOG_NORMAL, params=(5.0, 1.0)),
    ]
    for i in range(8):
        nodes.append(rv(f"theta_{i}", NORMAL, parents=("mu", "tau"), link=lambda m, t: (m, t)))
        se = data.standard_errors[i]
        nodes.append(
            rv(f"y_{i}", NORMAL, parents=(f"theta_{i}",), link=lambda th, se=se: (th, se))
        )
    m = build_joint(nodes, global_names=("mu", "tau"))
    return condition(m, {f"y_{i}": data.effects[i] for i in range(8)})


@dataclass(frozen=True)
class RadonRecord:
    county: int
    log_uranium: float
    floor: int
    county_mean_floor: float
    log_radon: float

    def __post_init__(self):
        if self.floor not in (0, 1):
            raise ValueError(f"floor must be 0 or 1, got {self.floor!r}")
        if self.county < 0:
            raise ValueError("county index must be nonnegative")


def make_radon(records: Sequence[RadonRecord]) -> JointModel:
    """Hierarchical regression of log radon on floor and uranium.

    mu ~ N(0, 1), tau ~ HalfNormal(1), county effect theta_c ~ N(mu, tau),
    beta_{1..3} ~ N(0, 1), sigma ~ HalfNormal(1),
    y_j ~ N(beta1*z_c + beta2*floor_j + beta3*mean_floor_c + theta_c, sigma).
    """
    if not records:
        raise ValueError("need at least one record")
    counties = sorted({r.county for r in records})
    if counties != list(range(len(counties))):
        raise ValueError("county indices must be contiguous from 0")
    nodes = [
        rv("mu", NORMAL, params=(0.0, 1.0)),
        rv("tau", HALF_NORMAL, params=(1.0,)),
    ]
    for c in counties:
        nodes.append(rv(f"theta_{c}", NORMAL, parents=("mu", "tau"), link=lambda m, t: (m, t)))
    for k in (1, 2, 3):
        nodes.append(rv(f"beta_{k}", NORMAL, params=(0.0, 1.0)))
    nodes.append(rv("sigma", HALF_NORMAL, params=(1.0,)))
    observations = {}
    for j, r in enumerate(records):
        name = f"y_{j}"
        nodes.append(
            rv(
                name,
                NORMAL,
                parents=("beta_1", "beta_2", "beta_3", f"theta_{r.county}", "sigma"),
                link=lambda b1, b2, b3, th, s, r=r: (
                    b1 * r.log_uranium + b2 * float(r.floor) + b3 * r.county_mean_floor + th,
                    s,
                ),
            )
        )
        observations[name] = r.log_radon
    globals_ = ("mu", "tau", "beta_1", "beta_2", "beta_3", "sigma")
    return condition(build_joint(nodes, global_names=globals_), observations)


def synthetic_radon_records(n_counties=3, n_records=12, seed=0):
    """Forward-simulated records from the prior at a fixed seed."""
    rng = np.random.default_rng(seed)
    mu = rng.normal()
    tau = abs(rng.normal())
    theta = rng.normal(mu, tau, size=n_counties)
    beta = rng.normal(size=3)
    sigma = abs(rng.normal())
    county_of = rng.integers(0, n_counties, size=n_records)
    # make sure every county appears so indices stay contiguous
    county_of[:n_counties] = np.arange(n_counties)
    log_uranium = rng.normal(size=n_counties)
    floors = rng.integers(0, 2, size=n_records)
    mean_floor = np.zeros(n_counties)
    for c in range(n_counties):
        member = county_of == c
        mean_floor[c] = floors[member].mean() if member.any() else 0.0
    records = []
    for j in range(n_records):
        c = int(county_of[j])
        loc = (
            beta[0] * log_uranium[c]
            + beta[1] * floors[j]
            + beta[2] * mean_floor[c]
            + theta[c]
        )
        records.append(
            RadonRecord(
                county=c,
                log_uranium=float(log_uranium[c]),
                floor=int(floors[j]),
                county_mean_floor=float(mean_floor[c]),
                log_radon=float(rng.normal(loc, sigma)),
            )
        )
    return records


RADON_CSV_COLUMNS = ("county", "log_uranium", "floor", "county_mean_floor", "log_radon")


def load_radon_csv(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(RADON_CSV_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"radon csv missing columns {sorted(missing)}")
        return [
            RadonRecord(
                county=int(row["county"]),
                log_uranium=float(row["log_uranium"]),
                floor=int(row["floor"]),
                county_mean_floor=float(row["county_mean_floor"]),
                log_radon=float(row["log_radon"]),
            )
            for row in reader
        ]


def save_radon_csv(records, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RADON_CSV_COLUMNS)
        for r in records:
            writer.writerow([r.county, r.log_uranium, r.floor, r.county_mean_floor, r.log_radon])


# ---------------------------------------------------------------------------
# task registry


@dataclass(frozen=True)
class Task:
    """A benchmark bundle: model, observation names, oracle kind.

    `oracle` names the exact ground truth of a dataset: "kalman" (br,
    the smoother of `brownian_chain_spec`), "collapsed" (es, radon, brg:
    `oracles.collapsed_posterior` of `collapsed_spec`) or "none" (lz,
    lzg).  `data_model` is the generative process data is simulated
    from; for the global-scale variants (brg/lzg) it is the fixed-scale
    twin, so datasets come from the same law as br/lz and only the
    inference model treats the scales as unknown.
    """

    task_id: str
    model: JointModel
    observed_names: tuple
    oracle: str  # "kalman" | "collapsed" | "none"
    config: object = None
    data_model: JointModel = None

    @property
    def is_pre_conditioned(self):
        return bool(self.model.observations)


def generate_data(task: Task, seed):
    """Forward-simulate the generative model; returns (observations,
    ground-truth trace) with the observation mask applied."""
    if task.is_pre_conditioned:
        raise ValueError(f"task {task.task_id!r} ships with fixed data")
    trace = sample_forward(task.data_model or task.model, seed)
    observations = {name: trace.values[name] for name in task.observed_names}
    return observations, trace


TASK_IDS = ("br", "brg", "lz", "lzg", "es", "radon")


def get_task(task_id, sde_config=None) -> Task:
    if task_id in SDE_DEFAULTS:
        cfg = sde_config or SDE_DEFAULTS[task_id]
        make = make_brownian if task_id.startswith("br") else make_lorenz
        with_globals = task_id in ("brg", "lzg")
        model = make(cfg, with_globals=with_globals)
        data_model = make(cfg) if with_globals else None
        observed = tuple(f"y_{t}" for t in range(cfg.steps) if cfg.mask[t])
        oracle = {"br": "kalman", "brg": "collapsed"}.get(task_id, "none")
        return Task(task_id, model, observed, oracle, cfg, data_model)
    if task_id == "es":
        data = SchoolsData()
        model = make_eight_schools(data)
        return Task(task_id, model, tuple(f"y_{i}" for i in range(8)), "collapsed", data)
    if task_id == "radon":
        records = synthetic_radon_records()
        model = make_radon(records)
        observed = tuple(f"y_{j}" for j in range(len(records)))
        return Task(task_id, model, observed, "collapsed", tuple(records))
    raise ValueError(f"unknown task {task_id!r}; choose from {TASK_IDS}")


# ---------------------------------------------------------------------------
# collapsed oracles: es, radon and brg are Gaussian once their scales are fixed


# the grids over the log scales, wide and fine enough that refining them
# moves no moment by 1e-6 of its SD (tests/test_tasks.py)
ES_TAU_AXIS = np.linspace(-12.0, 14.0, 601)
RADON_AXES = (np.linspace(-16.0, 3.0, 127), np.linspace(-8.0, 3.0, 74))
BRG_AXES = (np.linspace(-14.0, 14.0, 201),) * 2


def collapsed_spec(task: Task, model: JointModel) -> CollapsedSpec:
    """The collapsed oracle's view of an es, radon or brg dataset, `model`
    conditioned on it: a grid over the log scales and the Gaussian block
    given the scales."""
    builders = {"es": _eight_schools_spec, "radon": _radon_spec, "brg": _brownian_spec}
    return builders[task.task_id](task, model)


def _observed(model, n):
    return np.array([model.observations[f"y_{j}"] for j in range(n)])


def _group_prior(model, n_groups, fixed=()):
    """Prior mean and covariance of (mu, theta_0.., *fixed) where
    theta_c ~ N(mu, tau) and the `fixed` latents are independent
    normals: the mean, and `base` and `groups` of the covariance
    base + tau**2 * groups."""
    mu_loc, mu_scale = model.node("mu").params(())
    fixed_params = [model.node(name).params(()) for name in fixed]
    head = 1 + n_groups
    mean = np.array([mu_loc] * head + [loc for loc, _ in fixed_params])
    base = np.zeros((len(mean), len(mean)))
    base[:head, :head] = mu_scale**2
    base[head:, head:] = np.diag([scale**2 for _, scale in fixed_params])
    groups = np.diag([0.0] + [1.0] * n_groups + [0.0] * len(fixed))
    return mean, base, groups


def _eight_schools_spec(task, model):
    """(mu, theta) given tau: y_i = theta_i + N(0, se_i**2)."""
    block = ("mu",) + tuple(f"theta_{i}" for i in range(8))
    mean, base, groups = _group_prior(model, 8)
    design = np.eye(8, 9, k=1)
    noise = np.diag(np.square(task.config.standard_errors))
    y = _observed(model, 8)

    def conditional(tau):
        cov = base + tau[..., None, None] ** 2 * groups
        log_ev, means, covs = gaussian_condition(mean, cov, design, noise, y)
        return log_ev, means, np.diagonal(covs, axis1=-2, axis2=-1)

    return CollapsedSpec((model.node("tau"),), (ES_TAU_AXIS,), block, conditional)


def _radon_spec(task, model):
    """(mu, theta, beta) given (tau, sigma): y_j = the record's design row
    times the block + N(0, sigma**2)."""
    records = task.config
    n_counties = 1 + max(r.county for r in records)
    fixed = ("beta_1", "beta_2", "beta_3")
    block = ("mu",) + tuple(f"theta_{c}" for c in range(n_counties)) + fixed
    mean, base, groups = _group_prior(model, n_counties, fixed)
    design = np.zeros((len(records), len(block)))
    for j, r in enumerate(records):
        design[j, 1 + r.county] = 1.0
        design[j, 1 + n_counties :] = (r.log_uranium, float(r.floor), r.county_mean_floor)
    eye = np.eye(len(records))
    y = _observed(model, len(records))

    def conditional(tau, sigma):
        cov = base + tau[..., None, None] ** 2 * groups
        noise = sigma[..., None, None] ** 2 * eye
        log_ev, means, covs = gaussian_condition(mean, cov, design, noise, y)
        return log_ev, means, np.diagonal(covs, axis1=-2, axis2=-1)

    scales = (model.node("tau"), model.node("sigma"))
    return CollapsedSpec(scales, RADON_AXES, block, conditional)


def _brownian_spec(task, model):
    """The walk given (sigma_x, sigma_obs): a Kalman smoother per grid point."""
    config = task.config
    observations = observed_steps(model.observations)

    def conditional(sigma_x, sigma_obs):
        chain = brownian_chain_spec(config, (sigma_x, sigma_obs))
        res = kalman_filter_smoother(chain, observations)
        move = lambda a: np.moveaxis(a, 0, -1)  # noqa: E731 - step axis last
        return res.log_evidence, move(res.smoothed_means), move(res.smoothed_vars)

    scales = (model.node("sigma_x"), model.node("sigma_obs"))
    block = tuple(f"x_{t}" for t in range(config.steps))
    return CollapsedSpec(scales, BRG_AXES, block, conditional)


def check_task_overrides(data):
    """Overrides of the SDE task defaults (steps, dt, scales, mask) from
    JSON: an object of known keys, with a mask list made a tuple.
    `SdeTaskConfig` checks the values' types and ranges."""
    if not isinstance(data, dict):
        raise ValueError(f"task config must hold a JSON object, not {type(data).__name__}")
    allowed = {"steps", "dt", "innovation_scale", "obs_scale", "mask"}
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown task-config keys {sorted(unknown)}")
    data = dict(data)
    if isinstance(data.get("mask"), list):
        data["mask"] = tuple(data["mask"])
    return data


def load_task_config(path):
    """JSON overrides for the SDE task defaults, checked."""
    with open(path) as fh:
        return check_task_overrides(json.load(fh))
