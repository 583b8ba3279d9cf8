"""Monte-Carlo ELBO estimation, gradients, Adam, and the fit loop.

Gradients go through the reparameterized sampling path for continuous
nodes; discrete nodes contribute score-function terms weighted by each
sample's ELBO term (with a leave-one-out baseline when more than one
sample is drawn).

Every gradient comes from one recorder, ``CompiledElbo``: the ELBO graph
recorded at one step's parameters and noise draws.  For fully
continuous programs ``fit`` records it at the first step and then
replays it: the tape turns into generated Python once, and every step
runs that code (``tape.forward``/``backward``), several times faster
than re-recording.  A link may still branch on a latent's value, so
``fit`` records the graph again at step 1 and at every multiple of
``window`` and compares fingerprints; if the graph has changed, it
records every step from then on.  Programs with discrete latents, whose
graph shape can change with the sampled values, record every step.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import DomainError, Tape, value_of
from .distributions import ParameterError
from .model import joint_log_prob
from .surrogates import SURROGATES, build_surrogate


class NonFiniteError(RuntimeError):
    """An ELBO term or gradient entry came out non-finite."""


@dataclass(frozen=True)
class ElboEstimate:
    value: float
    per_sample_terms: tuple
    n_samples: int


def elbo_estimate(model, surrogate, params, n_samples=1, seed=0) -> ElboEstimate:
    """Mean over samples of log p(x, y) - log q(x) with x ~ q."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    params = [float(p) for p in params]
    terms = []
    for s in range(n_samples):
        noise = surrogate.draw_noise(rng)
        values, log_q, _ = surrogate.sample_and_log_prob(params, noise)
        term = joint_log_prob(model, values) - log_q
        if not math.isfinite(term):
            raise NonFiniteError(f"non-finite ELBO term {term!r} at sample {s}")
        terms.append(term)
    return ElboEstimate(
        value=float(np.mean(terms)), per_sample_terms=tuple(terms), n_samples=n_samples
    )


class CompiledElbo:
    """The ELBO graph, recorded at one step's parameters and noise draws
    (`draws` holds one list of draws per sample).

    Parameters and non-uniform noise are tape inputs; uniform noise,
    which picks the values of discrete latents, is folded in as a float.
    Discrete latents add a score-function term weighted by the sample's
    ELBO term less a leave-one-out baseline (none at one sample).
    `value` is the ELBO estimate at the recorded inputs, the mean of the
    samples' terms.

    `replay` re-evaluates the recorded graph at new inputs, which is
    right only while the graph shape does not depend on the sampled
    values: no discrete latents, and no link that branches on a latent's
    value.  `fit` checks that by comparing `tape.fingerprint()` with a
    fresh recording.
    """

    def __init__(self, model, surrogate, params, draws):
        self.tape = tape = Tape()
        self.param_nodes = [tape.input(v) for v in params]
        self.noise_nodes = []
        samples = []
        for sample_draws in draws:
            noise = []
            for kind, d in zip(surrogate.noise_spec, sample_draws):
                if kind != "uniform":
                    d = tape.input(d)
                    self.noise_nodes.append(d)
                noise.append(d)
            values, log_q, disc_log_q = surrogate.sample_and_log_prob(self.param_nodes, noise)
            samples.append((joint_log_prob(model, values) - log_q, disc_log_q))
        n = len(draws)
        w_vals = [value_of(w) for w, _ in samples]
        obj = None
        for s, (w, disc_log_q) in enumerate(samples):
            if disc_log_q is not None:
                baseline = (sum(w_vals) - w_vals[s]) / (n - 1) if n > 1 else 0.0
                w = w + (w_vals[s] - baseline) * disc_log_q
            obj = w if obj is None else obj + w
        self.objective = obj * (1.0 / n)
        self.value = sum(w_vals) * (1.0 / n)

    def gradient(self):
        """Gradient of the recorded objective with respect to the params."""
        adj = self.tape.backward(self.objective)
        return np.array([adj[p.i] for p in self.param_nodes])

    def replay(self, params, draws):
        """(value, gradient) of the recorded graph at new `params` and
        `draws`, run as generated code (`Tape.forward`)."""
        vals = self.tape.vals
        for node, v in zip(self.param_nodes, params):
            vals[node.i] = float(v)
        noise = (d for sample_draws in draws for d in sample_draws)
        for node, d in zip(self.noise_nodes, noise):
            vals[node.i] = d
        self.tape.forward()
        return self.objective.value, self.gradient()


def elbo_gradient(model, surrogate, params, n_samples=1, seed=0):
    """Gradient of the ELBO estimate with respect to `params`.

    Uses the same noise stream as ``elbo_estimate`` for the same seed
    (common random numbers), so central finite differences of the
    estimate at a fixed seed match this gradient for continuous models.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    draws = [surrogate.draw_noise(rng) for _ in range(n_samples)]
    graph = CompiledElbo(model, surrogate, params, draws)
    grad = graph.gradient()
    bad = [i for i, g in enumerate(grad) if not math.isfinite(g)]
    if not math.isfinite(graph.value) or bad:
        names = [surrogate.param_names[i] for i in bad[:5]]
        raise NonFiniteError(f"non-finite ELBO gradient (value={graph.value!r}, params {names})")
    return grad


# ---------------------------------------------------------------------------
# Adam


@dataclass(frozen=True)
class AdamState:
    step: int
    m: np.ndarray
    v: np.ndarray
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def fresh(cls, dim, lr):
        return cls(step=0, m=np.zeros(dim), v=np.zeros(dim), lr=lr)


def adam_step(state: AdamState, gradient, params):
    """One bias-corrected Adam ascent step on the ELBO."""
    g = np.asarray(gradient, dtype=float)
    if g.shape != state.m.shape or len(params) != len(g):
        raise ValueError("gradient/parameter dimension mismatch")
    t = state.step + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * g
    v = state.beta2 * state.v + (1.0 - state.beta2) * g * g
    m_hat = m / (1.0 - state.beta1**t)
    v_hat = v / (1.0 - state.beta2**t)
    new_params = np.asarray(params, dtype=float) + state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return replace(state, step=t, m=m, v=v), new_params


# ---------------------------------------------------------------------------
# training loop


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 10000
    lr: float = None  # None: the kind's default, `SURROGATES[kind].lr`
    n_samples: int = 1
    seed: int = 0
    record_every: int = 10
    window: int = 1000  # early stopping: trailing-window mean loss; a
    # replayed graph is also checked against a fresh recording at step 1
    # and at every multiple of `window`
    tol: float = 1e-4  # relative improvement threshold
    patience: int = 5  # consecutive stale windows before stopping


@dataclass
class FitResult:
    params: np.ndarray
    trajectory: list  # (step, negative_elbo, wall_time_s)
    wall_time: float
    converged: bool
    diverged: bool
    seed: int
    steps_run: int = 0
    surrogate: object = field(repr=False, default=None)
    # step at which a fresh recording no longer matched the replayed
    # graph; that step and all later ones recorded the graph anew
    rerecord_from: int = None

    @property
    def final_loss(self):
        return self.trajectory[-1][1]


# numerical failures of one step, reported as divergence; any other
# error (a ModelError, say) is a bug and is raised
_DIVERGENCE = (DomainError, ParameterError, OverflowError, ZeroDivisionError, NonFiniteError)


def fit(model, surrogate, config: TrainConfig = TrainConfig(), init_params=None) -> FitResult:
    """Optimize a surrogate's ELBO; `surrogate` is a key of `SURROGATES`
    or a program from `build_surrogate`.  Divergence (a non-finite
    loss, or a domain or distribution-parameter error, overflow or zero
    division while recording or evaluating the graph) is reported in
    the result, not raised; any other error is raised.
    Bit-reproducible for a fixed config.

    `init_params` warm-starts from a previous fit's parameters.
    """
    if isinstance(surrogate, str):
        surrogate = build_surrogate(surrogate, model, init_seed=config.seed)
    lr = config.lr if config.lr is not None else SURROGATES[surrogate.kind].lr
    rng = np.random.default_rng(config.seed)
    if init_params is None:
        params = surrogate.init_params.copy().astype(float)
    else:
        params = np.array(init_params, dtype=float)
        if params.shape != (surrogate.num_params,):
            raise ValueError("init_params dimension mismatch")
    state = AdamState.fresh(len(params), lr)

    # a graph without discrete latents is replayed until a check finds it changed
    replay = all(k != "uniform" for k in surrogate.noise_spec)
    graph = None
    rerecord_from = None

    start = time.perf_counter()
    trajectory = []
    losses = []
    stale_windows = 0
    prev_window_mean = None
    converged = False
    diverged = False

    if config.steps == 0:
        est = elbo_estimate(model, surrogate, params, config.n_samples, seed=config.seed)
        trajectory.append((0, -est.value, time.perf_counter() - start))

    for step in range(config.steps):
        draws = [surrogate.draw_noise(rng) for _ in range(config.n_samples)]
        check = step == 1 or (config.window > 0 and step % config.window == 0)
        try:
            if graph is None or not replay or check:
                fresh = CompiledElbo(model, surrogate, params, draws)
                if graph is None:
                    graph = fresh
                elif replay and fresh.tape.fingerprint() != graph.tape.fingerprint():
                    replay = False
                    rerecord_from = step
                if not replay:
                    graph = fresh
            if replay:
                value, grad = graph.replay(params, draws)
            else:
                value, grad = graph.value, graph.gradient()
        except _DIVERGENCE:
            diverged = True
            break
        if not math.isfinite(value) or not np.all(np.isfinite(grad)):
            diverged = True
            break
        loss = -value
        losses.append(loss)
        if step % config.record_every == 0 or step == config.steps - 1:
            trajectory.append((step, loss, time.perf_counter() - start))
        state, params = adam_step(state, grad, params)

        if config.window > 0 and (step + 1) % config.window == 0:
            window_mean = float(np.mean(losses[-config.window :]))
            if prev_window_mean is not None:
                denom = max(1.0, abs(prev_window_mean))
                if (prev_window_mean - window_mean) / denom < config.tol:
                    stale_windows += 1
                else:
                    stale_windows = 0
                if stale_windows >= config.patience:
                    converged = True
            prev_window_mean = window_mean
            if converged:
                break

    wall = time.perf_counter() - start
    if trajectory and config.steps > 0 and not diverged:
        last_step = len(losses) - 1
        if trajectory[-1][0] != last_step:
            trajectory.append((last_step, losses[-1], wall))
    return FitResult(
        params=np.asarray(params),
        trajectory=trajectory,
        wall_time=wall,
        converged=converged,
        diverged=diverged,
        seed=config.seed,
        steps_run=len(losses),
        surrogate=surrogate,
        rerecord_from=rerecord_from,
    )


def save_trajectory(trajectory, path):
    """A `FitResult.trajectory` as CSV (step, negative_elbo, wall_time_s)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "negative_elbo", "wall_time_s"])
        for step, loss, wall in trajectory:
            writer.writerow([step, repr(loss), f"{wall:.3f}"])


def surrogate_moments(surrogate, params, n_samples=4000, seed=0):
    """Per-latent posterior mean/SD estimated by sampling the program."""
    rng = np.random.default_rng(seed)
    params = [float(p) for p in params]
    draws = {name: np.empty(n_samples) for name in surrogate.latent_names}
    for s in range(n_samples):
        noise = surrogate.draw_noise(rng)
        values, _, _ = surrogate.sample_and_log_prob(params, noise)
        for name in draws:
            draws[name][s] = value_of(values[name])
    means = {name: float(v.mean()) for name, v in draws.items()}
    sds = {name: float(v.std(ddof=1)) for name, v in draws.items()}
    return means, sds
