"""Exact and brute-force reference computations.

These are the independent checks the rest of the package is validated
against: a scalar Kalman filter with RTS smoothing (exact posterior for
linear-Gaussian chains, also run on arrays over a grid of variances),
batched dense Gaussian conditioning, the collapsed oracle (a model that
is Gaussian once its scales are fixed, mixed exactly over a grid of its
log scales), conjugate Normal updates, closed-form Gaussian KL,
exhaustive enumeration for small discrete models, and an adaptive
random-walk Metropolis sampler for small nonconjugate models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .distributions import support_bijector
from .model import JointModel, ModelError, joint_log_prob, sample_forward

LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# linear-Gaussian chains


@dataclass(frozen=True)
class LinearGaussianChainSpec:
    """x_t ~ N(a_t x_{t-1}, q_t), y_t ~ N(x_t, r_t) where mask[t] is set.

    `transition` and `innovation_var` describe steps 1..T-1; the state at
    t=0 is N(init_mean, init_var).  The variances may instead be arrays
    over a grid (shapes that broadcast together), one chain per point.
    """

    init_mean: float
    init_var: float
    transition: Sequence[float]
    innovation_var: Sequence[float]
    obs_var: Sequence[float]
    mask: Sequence[bool]

    def __post_init__(self):
        T = len(self.mask)
        if len(self.transition) != T - 1 or len(self.innovation_var) != T - 1:
            raise ValueError("transition/innovation_var must have length T-1")
        if len(self.obs_var) != T:
            raise ValueError("obs_var must have length T")
        if not all(np.all(v > 0) for v in self.variances):
            raise ValueError("variances must be positive")

    @property
    def num_steps(self):
        return len(self.mask)

    @property
    def variances(self):
        return (self.init_var, *self.innovation_var, *self.obs_var)


@dataclass(frozen=True)
class KalmanResult:
    filtered_means: np.ndarray
    filtered_vars: np.ndarray
    smoothed_means: np.ndarray
    smoothed_vars: np.ndarray
    gains: np.ndarray
    log_evidence: float


def kalman_filter_smoother(spec: LinearGaussianChainSpec, observations: Mapping[int, float]) -> KalmanResult:
    """Exact forward filter plus RTS backward smoother.

    `observations` maps step index -> y_t and must cover exactly the
    masked steps.  The log evidence is the sum of one-step predictive
    log-densities.  On a spec over a grid every result gains the grid's
    axes after the step axis, and the log evidence is an array.
    """
    T = spec.num_steps
    expected = {t for t in range(T) if spec.mask[t]}
    if set(observations) != expected:
        raise ValueError(f"observations must cover exactly steps {sorted(expected)}")

    shape = (T,) + np.broadcast_shapes(*map(np.shape, spec.variances))
    mf = np.zeros(shape)  # filtered means
    vf = np.zeros(shape)
    mp = np.zeros(shape)  # one-step predictive means
    vp = np.zeros(shape)
    gains = np.zeros(shape)
    log_ev = 0.0
    for t in range(T):
        if t == 0:
            mp[t], vp[t] = spec.init_mean, spec.init_var
        else:
            a = spec.transition[t - 1]
            mp[t] = a * mf[t - 1]
            vp[t] = a * a * vf[t - 1] + spec.innovation_var[t - 1]
        if spec.mask[t]:
            y = observations[t]
            s = vp[t] + spec.obs_var[t]
            k = vp[t] / s
            gains[t] = k
            mf[t] = mp[t] + k * (y - mp[t])
            vf[t] = (1.0 - k) * vp[t]
            log_ev += -0.5 * ((y - mp[t]) ** 2 / s + np.log(s) + LOG_2PI)
        else:
            mf[t], vf[t] = mp[t], vp[t]

    ms = mf.copy()
    vs = vf.copy()
    for t in range(T - 2, -1, -1):
        a = spec.transition[t]
        c = vf[t] * a / vp[t + 1]
        ms[t] = mf[t] + c * (ms[t + 1] - mp[t + 1])
        vs[t] = vf[t] + c * c * (vs[t + 1] - vp[t + 1])
    return KalmanResult(
        filtered_means=mf,
        filtered_vars=vf,
        smoothed_means=ms,
        smoothed_vars=vs,
        gains=gains,
        log_evidence=log_ev,
    )


# ---------------------------------------------------------------------------
# collapsed grids: a Gaussian block mixed over a grid of log scales


def gaussian_condition(prior_mean, prior_cov, design, noise_cov, y):
    """Exact conditioning of z ~ N(prior_mean, prior_cov) on
    y = design @ z + e, e ~ N(0, noise_cov), batched over leading axes.

    `design` is (n, k) and `y` (n,); the other arguments broadcast over
    the batch.  Returns (log p(y), posterior means, posterior
    covariances).
    """
    resid = y - prior_mean @ design.T  # (..., n)
    cross = prior_cov @ design.T  # prior_cov A^T, (..., k, n)
    s = design @ cross + noise_cov  # (..., n, n)
    resid = np.broadcast_to(resid, s.shape[:-1])
    alpha = np.linalg.solve(s, resid[..., None])[..., 0]  # S^-1 resid
    mean = prior_mean + (cross @ alpha[..., None])[..., 0]
    cov = prior_cov - cross @ np.linalg.solve(s, np.swapaxes(cross, -1, -2))
    _, logdet = np.linalg.slogdet(s)
    log_ev = -0.5 * (np.sum(resid * alpha, axis=-1) + logdet + len(y) * LOG_2PI)
    return log_ev, mean, cov


@dataclass(frozen=True)
class CollapsedSpec:
    """A model that is Gaussian in its `block` latents once its positive
    `scales` are fixed, conditioned on one dataset.

    `scales` holds the scale latents' nodes, a priori independent with
    fixed parameters; `axes[i]` is a uniform grid over log(scales[i]).
    `conditional(*values)`, given the scale values on the grid (arrays
    that broadcast to the grid's shape), returns (log_evidence, means,
    vars): log p(data | scales) over the grid, and the block's
    conditional means and variances with a trailing axis in `block`
    order.
    """

    scales: tuple
    axes: tuple
    block: tuple
    conditional: Callable


@dataclass(frozen=True)
class CollapsedResult:
    means: dict
    sds: dict
    grid_shape: tuple
    edge_mass: float  # posterior mass on the grid's outermost points


# grid points per call of the conditional, which bounds the memory it takes
CHUNK_POINTS = 4096


def collapsed_posterior(spec: CollapsedSpec) -> CollapsedResult:
    """Exact posterior means and SDs of the scales and the block.

    Each grid point u (the log scales) weighs p(u) p(data | scales) times
    the grid's uniform cell volume, p(u) being the scales' prior with
    the Jacobian of exp.  The weights mix the conditional moments:
    E[z] = sum w m and Var[z] = sum w (v + m^2) - E[z]^2, and likewise
    for the scales.  The conditional runs on slabs of CHUNK_POINTS points
    along the first axis, each slab's sums taken relative to its largest
    log weight.  A posterior that reaches past the grid shows as mass on
    its edge.
    """
    d = len(spec.axes)
    logs = np.meshgrid(*spec.axes, indexing="ij", sparse=True)
    values = [np.exp(u) for u in logs]
    log_prior = sum(
        (node.family.log_prob(node.params(()), v.ravel()) + u.ravel()).reshape(u.shape)
        for node, u, v in zip(spec.scales, logs, values)
    )
    shape = log_prior.shape
    edge = np.ones(shape, bool)
    edge[(slice(1, -1),) * d] = False
    rows = max(1, CHUNK_POINTS * shape[0] // log_prior.size)
    tops, sums = [], []
    for start in range(0, shape[0], rows):
        slab = slice(start, start + rows)
        log_ev, means, variances = spec.conditional(values[0][slab], *values[1:])
        log_w = log_ev + log_prior[slab]
        if not np.isfinite(log_w).all():
            raise ValueError("collapsed oracle: a log weight on the grid is not finite")
        tops.append(log_w.max())
        w = np.exp(log_w - tops[-1])
        scales = [np.broadcast_to(v, shape)[slab] for v in values]
        sums.append(np.concatenate([
            [w.sum(), w[edge[slab]].sum()],
            [np.sum(w * v) for v in scales],
            np.tensordot(w, means, axes=d),
            [np.sum(w * v * v) for v in scales],
            np.tensordot(w, variances + means * means, axes=d),
        ]))
    total = np.exp(np.array(tops) - max(tops)) @ np.array(sums)
    first, second = np.split(total[2:] / total[0], 2)
    names = [node.name for node in spec.scales] + list(spec.block)
    return CollapsedResult(
        means=dict(zip(names, first.tolist())),
        sds={n: math.sqrt(v) for n, v in zip(names, (second - first * first).tolist())},
        grid_shape=shape,
        edge_mass=float(total[1] / total[0]),
    )


# ---------------------------------------------------------------------------
# conjugate Normal updates


@dataclass(frozen=True)
class ConjugateSpec:
    """Known-precision Gaussian likelihood with a Gaussian prior on the mean."""

    prior_mean: float
    prior_precision: float
    likelihood_precision: float
    data: Sequence[float] = ()

    def __post_init__(self):
        if self.prior_precision <= 0 or self.likelihood_precision <= 0:
            raise ValueError("precisions must be positive")


@dataclass(frozen=True)
class ConjugatePosterior:
    mean: float
    precision: float
    prior_weight: float
    data_weight: float


def conjugate_normal_posterior(spec: ConjugateSpec) -> ConjugatePosterior:
    """Exact posterior over the mean; exposes the convex weights."""
    n = len(spec.data)
    tau0, tau = spec.prior_precision, spec.likelihood_precision
    lam = tau0 / (tau0 + n * tau)
    data_weight = 1.0 - lam
    ybar = sum(spec.data) / n if n else 0.0
    return ConjugatePosterior(
        mean=lam * spec.prior_mean + data_weight * ybar,
        precision=tau0 + n * tau,
        prior_weight=lam,
        data_weight=data_weight,
    )


def gaussian_kl(mean1, var1, mean2, var2):
    """KL(N(mean1, var1) || N(mean2, var2)) for variances, not scales."""
    if var1 <= 0 or var2 <= 0:
        raise ValueError("variances must be positive")
    return 0.5 * (var1 / var2 + (mean1 - mean2) ** 2 / var2 - 1.0 + math.log(var2 / var1))


# ---------------------------------------------------------------------------
# exhaustive enumeration for discrete models

MAX_DISCRETE_STATES = 10**6


@dataclass(frozen=True)
class DiscretePosterior:
    names: tuple
    table: dict  # assignment tuple -> posterior probability
    log_evidence: float

    def marginal(self, name):
        i = self.names.index(name)
        out = {}
        for assignment, p in self.table.items():
            out[assignment[i]] = out.get(assignment[i], 0.0) + p
        return out


def _discrete_values(family):
    if family.name == "Bernoulli":
        return (0.0, 1.0)
    if family.name == "Categorical":
        return tuple(float(i) for i in range(family.num_classes))
    raise ModelError(f"{family.name} is not enumerable")


def enumerate_discrete_posterior(model: JointModel) -> DiscretePosterior:
    """Exact posterior over all-discrete latents by full summation."""
    latents = model.latent_nodes
    supports = []
    size = 1
    for node in latents:
        if not node.family.is_discrete:
            raise ModelError(f"latent {node.name!r} is not discrete")
        vals = _discrete_values(node.family)
        size *= len(vals)
        if size > MAX_DISCRETE_STATES:
            raise ModelError(f"state space exceeds {MAX_DISCRETE_STATES}")
        supports.append(vals)

    names = tuple(n.name for n in latents)
    log_joint = {}
    assignments = [()]
    for vals in supports:
        assignments = [a + (v,) for a in assignments for v in vals]
    for assignment in assignments:
        values = dict(zip(names, assignment))
        log_joint[assignment] = joint_log_prob(model, values)

    m = max(log_joint.values())
    weights = {a: math.exp(lp - m) for a, lp in log_joint.items()}
    z = sum(weights.values())
    table = {a: w / z for a, w in weights.items()}
    return DiscretePosterior(names=names, table=table, log_evidence=m + math.log(z))


def exact_discrete_elbo(posterior: DiscretePosterior, model, surrogate, params):
    """ELBO of a surrogate on an enumerable model, summed exactly."""
    total = 0.0
    log_joint = {
        a: joint_log_prob(model, dict(zip(posterior.names, a))) for a in posterior.table
    }
    for assignment in posterior.table:
        values = dict(zip(posterior.names, assignment))
        log_q = surrogate.log_prob(params, values)
        q = math.exp(log_q)
        if q > 0.0:
            total += q * (log_joint[assignment] - log_q)
    return total


def exact_discrete_elbo_gradient(posterior, model, surrogate, params, step=1e-5):
    """Central differences of the exact ELBO; independent of the tape."""
    params = list(params)
    grad = []
    for i in range(len(params)):
        hi, lo = list(params), list(params)
        hi[i] += step
        lo[i] -= step
        f_hi = exact_discrete_elbo(posterior, model, surrogate, hi)
        f_lo = exact_discrete_elbo(posterior, model, surrogate, lo)
        grad.append((f_hi - f_lo) / (2.0 * step))
    return grad


# ---------------------------------------------------------------------------
# adaptive random-walk Metropolis


@dataclass(frozen=True)
class ChainConfig:
    steps: int = 20000
    burn_in: int = 5000
    n_chains: int = 4
    proposal_scale: float = 0.5
    target_accept: float = 0.3
    seed: int = 0


@dataclass
class MetropolisResult:
    means: dict
    sds: dict
    mean_ses: dict
    rhat: dict
    acceptance_rate: float
    reliable: bool
    warnings: list = field(default_factory=list)


def _unconstrained_target(model):
    """Log density over unconstrained latents, with Jacobian corrections."""
    latents = model.latent_nodes
    bijectors = [support_bijector(n.family) for n in latents]
    names = [n.name for n in latents]

    def log_target(u):
        values = {}
        ldj = 0.0
        for name, bij, ui in zip(names, bijectors, u):
            # plain floats: Python float math raises OverflowError where
            # numpy scalars would only warn and propagate inf
            values[name] = float(bij.forward(float(ui)))
            ldj += bij.log_det_jacobian(float(ui))
        try:
            lp = joint_log_prob(model, values)
        except (ValueError, OverflowError):
            return -math.inf, values
        if math.isnan(lp):
            return -math.inf, values
        return lp + ldj, values

    return names, bijectors, log_target


def metropolis_sample(model: JointModel, config: ChainConfig = ChainConfig()) -> MetropolisResult:
    """Adaptive random-walk Metropolis over the unconstrained latents.

    The global proposal scale is tuned by Robbins-Monro during burn-in
    toward `target_accept`; per-coordinate scales track the running
    spread of the chain.  Reports split-Rhat per latent; results with
    any Rhat > 1.05 are flagged unreliable but still returned.
    """
    for node in model.latent_nodes:
        if node.family.is_discrete:
            raise ModelError("metropolis_sample requires continuous latents")
    names, bijectors, log_target = _unconstrained_target(model)
    d = len(names)
    rng = np.random.default_rng(config.seed)

    chains = []  # constrained draws, one (steps, d) array per chain
    accept_total = 0
    for _ in range(config.n_chains):
        init = sample_forward(model, seed=int(rng.integers(2**31 - 1)))
        u = np.array([bij.inverse(init.values[name]) for name, bij in zip(names, bijectors)])
        lp, _ = log_target(u)

        log_c = math.log(config.proposal_scale)
        coord_scale = np.ones(d)
        history = []
        draws = np.empty((config.steps, d))
        accepted = 0
        total_steps = config.burn_in + config.steps
        for step in range(total_steps):
            prop = u + math.exp(log_c) * coord_scale * rng.standard_normal(d)
            lp_prop, values = log_target(prop)
            if math.log(rng.uniform()) < lp_prop - lp:
                u, lp = prop, lp_prop
                alpha_ind = 1.0
            else:
                alpha_ind = 0.0
            if step < config.burn_in:
                log_c += (step + 1) ** -0.6 * (alpha_ind - config.target_accept)
                history.append(u.copy())
                if (step + 1) % 200 == 0 and len(history) >= 100:
                    spread = np.std(np.asarray(history[-500:]), axis=0)
                    coord_scale = np.maximum(spread, 1e-3)
            else:
                idx = step - config.burn_in
                constrained = [bijectors[j].forward(u[j]) for j in range(d)]
                draws[idx] = constrained
                accepted += alpha_ind
        chains.append(draws)
        accept_total += accepted

    stacked = np.stack(chains)  # (n_chains, steps, d)
    pooled = stacked.reshape(-1, d)
    means = {name: float(pooled[:, j].mean()) for j, name in enumerate(names)}
    sds = {name: float(pooled[:, j].std(ddof=1)) for j, name in enumerate(names)}
    mean_ses = {}
    rhat = {}
    for j, name in enumerate(names):
        rhat[name] = _split_rhat(stacked[:, :, j])
        mean_ses[name] = _batch_means_se(stacked[:, :, j])
    reliable = all(r <= 1.05 for r in rhat.values())
    warnings = [] if reliable else [
        f"split-Rhat above 1.05 for {sorted(n for n, r in rhat.items() if r > 1.05)}"
    ]
    return MetropolisResult(
        means=means,
        sds=sds,
        mean_ses=mean_ses,
        rhat=rhat,
        acceptance_rate=accept_total / (config.n_chains * config.steps),
        reliable=reliable,
        warnings=warnings,
    )


def _split_rhat(chain_draws):
    """Potential scale reduction on half-chains; chain_draws is (m, n)."""
    m, n = chain_draws.shape
    half = n // 2
    seqs = np.concatenate([chain_draws[:, :half], chain_draws[:, half : 2 * half]], axis=0)
    n = half
    seq_means = seqs.mean(axis=1)
    w = seqs.var(axis=1, ddof=1).mean()
    b = n * seq_means.var(ddof=1)
    if w == 0.0:
        return 1.0
    var_plus = (n - 1) / n * w + b / n
    return float(math.sqrt(var_plus / w))


def _batch_means_se(chain_draws, n_batches=20):
    """Autocorrelation-robust SE of the pooled mean via batch means."""
    m, n = chain_draws.shape
    per = max(n // n_batches, 1)
    batches = []
    for row in chain_draws:
        usable = per * (len(row) // per)
        batches.extend(row[:usable].reshape(-1, per).mean(axis=1))
    batches = np.asarray(batches)
    return float(batches.std(ddof=1) / math.sqrt(len(batches)))
