"""Monte-Carlo ELBO estimation, gradients, Adam, and the fit loop.

Gradients go through the reparameterized sampling path for continuous
nodes; discrete nodes contribute score-function terms weighted by each
sample's ELBO term (with a leave-one-out baseline when more than one
sample is drawn).

For fully continuous programs the ELBO graph is recorded once
(``CompiledElbo``); the first step turns the tape into generated Python
and every step runs that code (``tape.forward``/``backward``), which is
several times faster than re-recording.  A link may still branch on a
latent's value, so ``fit`` records the graph again at the first step and
every ``window`` steps, and switches to per-step recording for good if
the graph has changed.  Programs with discrete latents, whose graph
shape can change with the sampled values, record every step.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import Tape, value_of
from .model import joint_log_prob
from .surrogates import build_surrogate

DEFAULT_LEARNING_RATES = {"asvi": 1e-2, "mean-field": 1e-2, "ar1": 1e-2, "mvn": 1e-3}


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


def _recorded_value_and_grad(model, surrogate, params, rng, n_samples):
    """Re-record the ELBO graph; handles discrete latents."""
    tape = Tape()
    pnodes = [tape.input(v) for v in params]
    samples = []
    for _ in range(n_samples):
        noise = surrogate.draw_noise(rng)
        values, log_q, disc_log_q = surrogate.sample_and_log_prob(pnodes, noise)
        w = joint_log_prob(model, values) - log_q
        samples.append((w, disc_log_q))
    w_vals = [value_of(w) for w, _ in samples]
    obj = None
    for s, (w, disc_log_q) in enumerate(samples):
        term = w
        if disc_log_q is not None:
            if n_samples > 1:
                baseline = (sum(w_vals) - w_vals[s]) / (n_samples - 1)
            else:
                baseline = 0.0
            term = term + (w_vals[s] - baseline) * disc_log_q
        obj = term if obj is None else obj + term
    obj = obj * (1.0 / n_samples)
    adj = tape.backward(obj)
    grad = np.array([adj[p.i] for p in pnodes])
    return float(np.mean(w_vals)), grad


def _record_static_elbo(model, surrogate, params, draws):
    """Record the ELBO with parameters and noise (one list of draws per
    sample) as tape inputs.  Returns (tape, param_nodes, noise_nodes,
    objective)."""
    tape = Tape()
    param_nodes = [tape.input(v) for v in params]
    noise_nodes = []
    obj = None
    for sample_draws in draws:
        noise = [tape.input(d) for d in sample_draws]
        noise_nodes.extend(noise)
        values, log_q, disc_log_q = surrogate.sample_and_log_prob(param_nodes, noise)
        if disc_log_q is not None:
            raise ValueError("compiled ELBO requires fully continuous latents")
        w = joint_log_prob(model, values) - log_q
        obj = w if obj is None else obj + w
    return tape, param_nodes, noise_nodes, obj * (1.0 / len(draws))


class CompiledElbo:
    """One recorded ELBO graph, re-evaluated in place per step.

    Valid only for programs with no discrete latents and links that do
    not branch on latent values: the graph shape must not depend on the
    sampled values.  ``rerecord`` checks that for one step.
    """

    def __init__(self, model, surrogate, params, n_samples):
        self.model = model
        self.surrogate = surrogate
        record_rng = np.random.default_rng(0)
        self.draws = [surrogate.draw_noise(record_rng) for _ in range(n_samples)]
        self.tape, self.param_nodes, self.noise_nodes, self.objective = _record_static_elbo(
            model, surrogate, params, self.draws
        )

    def value_and_grad(self, params, rng):
        self.draw(params, rng)
        return self.replay()

    def draw(self, params, rng):
        """Set the inputs of one step: `params` and fresh noise from `rng`."""
        vals = self.tape.vals
        for node, v in zip(self.param_nodes, params):
            vals[node.i] = float(v)
        self.draws = [self.surrogate.draw_noise(rng) for _ in self.draws]
        noise = (d for sample_draws in self.draws for d in sample_draws)
        for node, d in zip(self.noise_nodes, noise):
            vals[node.i] = d

    def replay(self):
        """(value, gradient) of the recorded graph at the current inputs."""
        self.tape.forward()
        adj = self.tape.backward(self.objective)
        return self.objective.value, np.array([adj[p.i] for p in self.param_nodes])

    def rerecord(self, params):
        """Record the graph again at `params` and the drawn noise.

        Returns None when the fresh tape's fingerprint matches the
        replayed one.  Otherwise the replay no longer follows the program
        (a link branched on a value), and the fresh recording's
        (value, gradient) is returned to use in its place.
        """
        tape, param_nodes, _, objective = _record_static_elbo(
            self.model, self.surrogate, params, self.draws
        )
        if tape.fingerprint() == self.tape.fingerprint():
            return None
        adj = tape.backward(objective)
        return objective.value, np.array([adj[p.i] for p in param_nodes])


def elbo_gradient(model, surrogate, params, n_samples=1, seed=0):
    """Gradient of the ELBO estimate with respect to `params`.

    Uses the same noise stream as ``elbo_estimate`` for the same seed
    (common random numbers), so central finite differences of the
    estimate at a fixed seed match this gradient for continuous models.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    value, grad = _recorded_value_and_grad(model, surrogate, list(params), rng, n_samples)
    bad = [i for i, g in enumerate(grad) if not math.isfinite(g)]
    if not math.isfinite(value) or bad:
        names = [surrogate.param_names[i] for i in bad[:5]]
        raise NonFiniteError(f"non-finite ELBO gradient (value={value!r}, params {names})")
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
    lr: float = None  # defaults per surrogate kind
    n_samples: int = 1
    seed: int = 0
    record_every: int = 10
    window: int = 1000  # early stopping: trailing-window mean loss; also
    # how often a replayed graph is checked against a fresh recording
    tol: float = 1e-4  # relative improvement threshold
    patience: int = 5  # consecutive stale windows before stopping
    compile: bool = True


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


# numerical failures of one step, reported as divergence
_DIVERGENCE = (ValueError, OverflowError, ZeroDivisionError, NonFiniteError)


def fit(model, surrogate, config: TrainConfig = TrainConfig(), init_params=None) -> FitResult:
    """Optimize a surrogate's ELBO; `surrogate` is a kind string or a
    built program.  Divergence (a non-finite loss, or a domain error,
    overflow or zero division while recording or evaluating the graph)
    is reported in the result, not raised.  Bit-reproducible for a fixed
    config.

    `init_params` warm-starts from a previous fit's parameters.
    """
    if isinstance(surrogate, str):
        surrogate = build_surrogate(surrogate, model, init_seed=config.seed)
    lr = config.lr if config.lr is not None else DEFAULT_LEARNING_RATES.get(surrogate.kind, 1e-2)
    rng = np.random.default_rng(config.seed)
    if init_params is None:
        params = surrogate.init_params.copy().astype(float)
    else:
        params = np.array(init_params, dtype=float)
        if params.shape != (surrogate.num_params,):
            raise ValueError("init_params dimension mismatch")
    state = AdamState.fresh(len(params), lr)

    replay = config.compile and all(k != "uniform" for k in surrogate.noise_spec)
    compiled = None
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
        try:
            if replay:
                if compiled is None:
                    compiled = CompiledElbo(model, surrogate, params, config.n_samples)
                compiled.draw(params, rng)
                fresh = None
                if step == 0 or (config.window > 0 and step % config.window == 0):
                    fresh = compiled.rerecord(params)
                if fresh is None:
                    value, grad = compiled.replay()
                else:
                    value, grad = fresh
                    replay = False
                    rerecord_from = step
            else:
                value, grad = _recorded_value_and_grad(
                    model, surrogate, params, rng, config.n_samples
                )
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
