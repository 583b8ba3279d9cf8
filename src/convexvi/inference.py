"""Monte-Carlo ELBO estimation, gradients, Adam, and the fit loop.

A sample's ELBO term has one definition, ``elbo_term``, on tape nodes,
floats and float arrays alike.  The final ELBO (``elbo_estimate``) and
the posterior moments (``surrogate_moments``) are reductions over one
evaluator, ``sample_batch``, which runs the program over a sample axis
through ``model.over_rows``, the one home of the batch policy.

Gradients go through the reparameterized sampling path for continuous
nodes; discrete nodes contribute score-function terms weighted by each
sample's ELBO term (with a leave-one-out baseline when more than one
sample is drawn).

Every gradient comes from one recorder, ``CompiledElbo``: the ELBO graph
recorded at one step's parameters and noise draws.  The recording says
whether the graph can be replayed: it can unless recording read a
node's value (a link that branches on a latent's value, a discrete
density) or drew uniform noise (discrete latents).  ``fit`` records a
replayable graph once and replays it at every step, the first included:
the tape turns into generated Python once, and every step runs that
code (``tape.forward``/``backward``), several times faster than
re-recording.  Any other graph is recorded anew at every step.
"""

from __future__ import annotations

import csv
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import DomainError, Node, Tape, value_of
from .distributions import ParameterError, draw_noise
from .model import joint_log_prob, over_rows
from .surrogates import SURROGATES, build_surrogate


class NonFiniteError(RuntimeError):
    """An ELBO term or gradient entry came out non-finite."""


@dataclass(frozen=True)
class ElboEstimate:
    value: float
    per_sample_terms: tuple
    n_samples: int


def elbo_term(model, surrogate, params, noise):
    """`(values, log p(x, y) - log q(x), log q of the discrete latents or
    None)` of the surrogate's sample from `noise`: the one ELBO term, on
    tape nodes, floats or float arrays."""
    values, log_q, disc_log_q = surrogate.sample_and_log_prob(params, noise)
    return values, joint_log_prob(model, values) - log_q, disc_log_q


def sample_batch(surrogate, params, n, rng, model=None):
    """`n` samples of the surrogate program at `params`, noise from `rng`.

    Returns `(values, terms)`: `values` maps each latent to a float array
    of its `n` sampled values, and `terms` holds each sample's
    `elbo_term` under `model` (None without a model).  The noise is one
    `draw_noise` array, row `s` for sample `s`, run by `over_rows`, so a
    caller gets the values, terms or error of the per-sample float loop.
    """
    params = [float(p) for p in params]
    kinds, keys = surrogate.noise_spec, list(surrogate.latent_names)

    def run(noise):
        if model is None:
            return surrogate.sample_and_log_prob(params, noise)[0]
        values, term, _ = elbo_term(model, surrogate, params, noise)
        return {**values, None: term}  # None names no latent

    values = over_rows(kinds, draw_noise(kinds, n, rng), run, keys + ([] if model is None else [None]))
    terms = values.pop(None, None)
    return values, terms


def elbo_estimate(model, surrogate, params, n_samples=1, seed=0) -> ElboEstimate:
    """Mean over samples of log p(x, y) - log q(x) with x ~ q, on floats:
    the mean of `sample_batch`'s terms.  The first non-finite term raises
    `NonFiniteError` with its sample index.  The value can differ from
    `CompiledElbo.value` in the last bits: a node divided by `b` is
    `a * (1 / b)` on the tape, floats compute `a / b`."""
    check_sample_count(n_samples, 1)
    rng = np.random.default_rng(seed)
    _, terms = sample_batch(surrogate, params, n_samples, rng, model)
    bad = np.flatnonzero(~np.isfinite(terms))
    if len(bad):
        s = int(bad[0])
        raise NonFiniteError(f"non-finite ELBO term {float(terms[s])!r} at sample {s}")
    return ElboEstimate(
        value=float(np.mean(terms)), per_sample_terms=tuple(terms.tolist()), n_samples=n_samples
    )


class CompiledElbo:
    """The ELBO graph, recorded at one step's parameters and noise draws
    (`draws`: one row per sample, as `draw_noise` returns them).

    The tape's inputs come first: the `P` parameters are entries
    `[0, P)`, then the non-uniform noise, sample by sample, so `replay`
    assigns two slices and the gradient is the first `P` adjoints.
    Uniform noise, which picks the values of discrete latents, is folded
    in as a float.  Discrete latents add a score-function term weighted
    by the sample's ELBO term less a leave-one-out baseline (none at one
    sample).  `value` is the ELBO estimate at the recorded inputs, the
    mean of the samples' terms.  An objective that no parameter reaches
    (every term a float, such as NaN from -inf - -inf) raises
    `NonFiniteError`.

    `replayable`: `replay` gives what a fresh recording at new inputs
    would, since recording read no node's value (`Tape.value_read`) and
    drew no uniform noise.
    """

    def __init__(self, model, surrogate, params, draws):
        self.tape = tape = Tape()
        self.n_params = len(params)
        param_nodes = [tape.input(v) for v in params]
        rows = [
            [d if k == "uniform" else tape.input(d) for k, d in zip(surrogate.noise_spec, row)]
            for row in np.asarray(draws, dtype=float).tolist()
        ]
        self.n_inputs = len(tape)
        samples = [elbo_term(model, surrogate, param_nodes, noise)[1:] for noise in rows]
        n = len(rows)
        # taken before the reads of the terms' values just below
        self.replayable = not tape.value_read and "uniform" not in surrogate.noise_spec
        w_vals = [value_of(w) for w, _ in samples]
        obj = None
        for s, (w, disc_log_q) in enumerate(samples):
            if disc_log_q is not None:
                baseline = (sum(w_vals) - w_vals[s]) / (n - 1) if n > 1 else 0.0
                w = w + (w_vals[s] - baseline) * disc_log_q
            obj = w if obj is None else obj + w
        if not isinstance(obj, Node):
            raise NonFiniteError(f"ELBO objective {obj!r} depends on no parameter")
        self.objective = obj * (1.0 / n)
        self.value = sum(w_vals) * (1.0 / n)

    def gradient(self):
        """Gradient of the recorded objective with respect to the params:
        the first `P` adjoints.  The sweep asks for those alone
        (`Tape.backward`'s `wrt`), so the noise inputs' entries, and the
        nodes that depend on noise alone, are not computed."""
        return np.fromiter(self.tape.backward(self.objective, self.n_params), float, self.n_params)

    def replay(self, params, draws):
        """(value, gradient) of the recorded graph at new `params` and
        `draws` (no uniform noise), run as generated code
        (`Tape.forward`).  Inputs of another length than the recording's
        raise `ValueError` and leave the graph as it was."""
        noise = np.ravel(draws)
        if len(params) != self.n_params or noise.size != self.n_inputs - self.n_params:
            raise ValueError(
                f"replay needs {self.n_params} params and {self.n_inputs - self.n_params} "
                f"noise entries, got {len(params)} and {noise.size}"
            )
        vals = self.tape.vals
        vals[: self.n_params] = np.asarray(params, dtype=float).tolist()
        vals[self.n_params : self.n_inputs] = noise.tolist()
        self.tape.forward()
        return vals[self.objective.i], self.gradient()


def elbo_gradient(model, surrogate, params, n_samples=1, seed=0):
    """Gradient of the ELBO estimate with respect to `params`.

    Uses the same noise stream as ``elbo_estimate`` for the same seed
    (common random numbers), so central finite differences of the
    estimate at a fixed seed match this gradient for continuous models.
    """
    check_sample_count(n_samples, 1)
    draws = draw_noise(surrogate.noise_spec, n_samples, np.random.default_rng(seed))
    graph = CompiledElbo(model, surrogate, params, draws)
    grad = graph.gradient()
    bad = [i for i, g in enumerate(grad) if not math.isfinite(g)]
    if not math.isfinite(graph.value) or bad:
        names = [surrogate.param_names[i] for i in bad[:5]]
        raise NonFiniteError(f"non-finite ELBO gradient (value={graph.value!r}, params {names})")
    return grad


# ---------------------------------------------------------------------------
# Adam


@dataclass(slots=True)
class AdamState:
    """Adam's step count and moment estimates; `adam_step` updates them
    in place."""

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
    """One bias-corrected Adam ascent step on the ELBO: `state`, updated
    in place, and the new parameters."""
    g = np.asarray(gradient, dtype=float)
    if g.shape != state.m.shape or len(params) != len(g):
        raise ValueError("gradient/parameter dimension mismatch")
    beta1, beta2 = state.beta1, state.beta2
    t = state.step = state.step + 1
    m = state.m = beta1 * state.m + (1.0 - beta1) * g
    v = state.v = beta2 * state.v + (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    return state, np.asarray(params, dtype=float) + state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


# ---------------------------------------------------------------------------
# training loop


def check_integer(what, value):
    """Raise ValueError unless `value` is an int or a numpy integer: a
    bool or a float count would be taken here and fail later, in `range`
    or `default_rng`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")


def check_sample_count(n_samples, low):
    """Raise ValueError unless `n_samples` is an integer >= `low`."""
    check_integer("n_samples", n_samples)
    if n_samples < low:
        raise ValueError(f"n_samples must be >= {low}, got {n_samples!r}")


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 10000
    lr: float = None  # None: the kind's default, `SURROGATES[kind].lr`
    n_samples: int = 1
    seed: int = 0
    record_every: int = 10
    window: int = 1000  # early stopping: trailing-window mean loss; 0 turns it off
    tol: float = 1e-4  # relative improvement threshold
    patience: int = 5  # consecutive stale windows before stopping

    def __post_init__(self):
        lows = (("steps", 0), ("n_samples", 1), ("seed", 0), ("record_every", 1), ("window", 0), ("patience", 1))
        for name, low in lows:
            check_integer(f"TrainConfig.{name}", getattr(self, name))
            if getattr(self, name) < low:
                raise ValueError(f"TrainConfig.{name} must be >= {low}, got {getattr(self, name)!r}")
        for name in ("lr", "tol"):  # True would run as a rate of 1.0
            if isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"TrainConfig.{name} must be a number, got {getattr(self, name)!r}")
        if self.lr is not None and not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"TrainConfig.lr must be positive and finite, got {self.lr!r}")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError(f"TrainConfig.tol must be non-negative and finite, got {self.tol!r}")


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


# Steps whose noise `fit` draws in one `draw_noise` call.  draw_noise
# draws its rows in order, so a block of steps gets the rows that one
# call per step would.
NOISE_BLOCK = 64

# numerical failures of one step, reported as divergence; any other
# error (a ModelError, say) is a bug and is raised
_DIVERGENCE = (DomainError, ParameterError, OverflowError, ZeroDivisionError, NonFiniteError)


def fit(model, surrogate, config: TrainConfig = TrainConfig(), init_params=None) -> FitResult:
    """Optimize a surrogate's ELBO; `surrogate` is a key of `SURROGATES`
    or a surrogate program.  Divergence (a non-finite
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
    graph = None

    start = time.perf_counter()
    trajectory = []
    losses = []
    stale_windows = 0
    prev_window_mean = None
    converged = False
    diverged = False

    if config.steps == 0:
        try:
            est = elbo_estimate(model, surrogate, params, config.n_samples, seed=config.seed)
            trajectory.append((0, -est.value, time.perf_counter() - start))
        except _DIVERGENCE:
            diverged = True

    n, k = config.n_samples, len(surrogate.noise_spec)
    for step in range(config.steps):
        b = step % NOISE_BLOCK
        if b == 0:
            count = min(NOISE_BLOCK, config.steps - step)
            block = draw_noise(surrogate.noise_spec, count * n, rng).reshape(count, n, k)
        draws = block[b]
        try:
            if graph is None or not graph.replayable:
                graph = CompiledElbo(model, surrogate, params, draws)
            if graph.replayable:
                value, grad = graph.replay(params, draws)
            else:
                value, grad = graph.value, graph.gradient()
        except _DIVERGENCE:
            diverged = True
            break
        if not (math.isfinite(value) and np.isfinite(grad).all()):
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
    )


def save_trajectory(trajectory, path):
    """A `FitResult.trajectory` as CSV (step, negative_elbo, wall_time_s)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "negative_elbo", "wall_time_s"])
        for step, loss, wall in trajectory:
            writer.writerow([step, repr(loss), f"{wall:.3f}"])


def surrogate_moments(surrogate, params, n_samples=4000, seed=0):
    """Per-latent posterior mean/SD estimated by sampling the program:
    the mean and SD (ddof 1) of each latent's `sample_batch` array.  A
    sample is kept as drawn, even one outside its support (no density of
    the model is checked here).  An SD of one sample is undefined, so
    `n_samples` must be >= 2."""
    check_sample_count(n_samples, 2)
    values, _ = sample_batch(surrogate, params, n_samples, np.random.default_rng(seed))
    means = {name: float(v.mean()) for name, v in values.items()}
    sds = {name: float(v.std(ddof=1)) for name, v in values.items()}
    return means, sds
