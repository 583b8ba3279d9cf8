"""Automatic construction of variational programs from a joint model.

The main construction (kind ``asvi``) rewrites every latent
conditional so its parameters become a learned convex combination of
the prior-propagated parameters and a free term:

    q_param = sigmoid(lam_logit) * theta(parents) + (1 - sigmoid(lam_logit)) * alpha

with one (lam, alpha) pair per schema parameter and alpha stored in
unconstrained space.  Structure, control flow, and family kinds of the
latent sub-model are preserved.  Baselines: ``mean-field`` (the same
program with lam frozen at zero), ``ar1``, a linear-Gaussian
autoregression over unconstrained values, and ``mvn``, a
full-covariance Gaussian.  ``SURROGATES`` maps each kind to its
constructor and default learning rate; ``build_surrogate`` builds one.

Every kind walks its program in one method, ``_walk``, which draws a
trace from the noise or scores a given one; ``SurrogateProgram`` builds
the common surface on it: a flat named parameter vector, a noise spec,
``sample_and_log_prob`` and ``log_prob`` of a given trace, both
differentiable when given tape nodes.  ``ConvexUpdateProgram`` walks
through one update rule in which a scalar parameter is a one-entry
vector; its alpha starts at the prior's parameter at the prior centers.
ar1 and mvn start from 100 prior draws (``_gaussian_start``), taken in
one array pass (``model.sample_prior``).
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import value_of
from .distributions import (
    HALF_LOG_2PI,
    SOFTMAX_CENTERED,
    constrain_param,
    support_bijector,
    unconstrain_param,
)
from .model import sample_prior


def convex_update(theta, lam, alpha):
    """Elementwise convex combination lam*theta + (1-lam)*alpha.

    All three sequences must have the same length; with each lam in
    (0, 1) and alpha in the same constraint region as theta, the result
    stays in the region (the domains are convex).
    """
    if not (len(theta) == len(lam) == len(alpha)):
        raise ValueError(
            f"length mismatch: theta={len(theta)}, lam={len(lam)}, alpha={len(alpha)}"
        )
    return [l * t + (1.0 - l) * a for t, l, a in zip(theta, lam, alpha)]


def _std_normal_log_pdf(z):
    return -0.5 * (z * z) - HALF_LOG_2PI


# what a link may raise at a prior center: DomainError, ParameterError and
# ModelError are ValueErrors, OverflowError and ZeroDivisionError
# ArithmeticErrors
_NUMERICAL = (ValueError, ArithmeticError)


def _prior_centers(model):
    """Per latent, its link's parameters at the central values of its
    parents, propagated through the links; Nones where the link failed.

    Used only to initialize alpha at the prior's parameter values; a
    numerical failure (a domain, parameter or model error, an overflow
    or a zero division) falls back to a neutral center, and any other
    error, a bug in a link, raises.
    """
    centers = dict(model.observations)
    thetas = {}
    for node in model.latent_nodes:
        thetas[node.name] = [None] * len(node.family.param_schema)
        try:
            thetas[node.name] = node.params([centers[p] for p in node.parents])
            centers[node.name] = node.family.mean_proxy(thetas[node.name])
        except _NUMERICAL:
            centers[node.name] = 0.0
    return thetas


def _alpha_start(kind, theta, size, rng):
    """alpha's initial entries: the prior's parameter `theta` at the
    centers, unconstrained; or, where the link failed there (`theta` is
    None), `theta` lies outside the domain or its pre-image is not finite
    (an infinite parameter), `size` standard-normal draws."""
    if theta is not None:
        try:
            if kind == "simplex":
                start = SOFTMAX_CENTERED.inverse([value_of(p) for p in theta])
            else:
                start = [unconstrain_param(kind, value_of(theta))]
            if all(map(math.isfinite, start)):
                return start
        except ValueError:
            pass
    return list(rng.standard_normal(size))


def _gaussian_start(model, init_seed, kind):
    """Per latent: (node, support bijector, mean, raw scale) of 100 prior
    draws in unconstrained space, the raw scale being the softplus
    pre-image of their SD.  This starts the Gaussian baselines near the
    prior marginals: the exact start is a free choice, and a unit scale is
    hopeless for models whose latents live at very different magnitudes.
    The draws are `sample_forward`'s at 100 seeds from `init_seed`, taken
    in one pass over arrays (`sample_prior`); a draw whose pre-image fails
    or is not finite is skipped."""
    latents = model.latent_nodes
    if any(node.family.is_discrete for node in latents):
        raise ValueError(f"{kind} surrogate requires continuous latents")
    rng = np.random.default_rng(init_seed)
    prior = sample_prior(model, [int(rng.integers(2**31 - 1)) for _ in range(100)])
    start = []
    for node in latents:
        bij = support_bijector(node.family)
        u = []
        for y in prior[node.name].tolist():
            try:
                x = bij.inverse(y)
            except ValueError:
                continue
            if math.isfinite(x):  # an infinite draw is skipped too
                u.append(x)
        mean, sd = 0.0, 1.0
        if len(u) >= 2:
            u = np.asarray(u)
            mean, sd = float(u.mean()), float(max(u.std(ddof=1), 1e-3))
        start.append((node, bij, mean, unconstrain_param("positive", sd + 2e-6)))
    return start


class _ParamLayout:
    def __init__(self):
        self.names = []
        self.index = {}
        self.init = []

    def add(self, name, init_value):
        if name in self.index:
            raise ValueError(f"duplicate parameter name {name!r}")
        self.index[name] = len(self.names)
        self.names.append(name)
        self.init.append(float(init_value))
        return self.index[name]


class SurrogateProgram:
    """Base container: flat named trainable vector plus a noise spec,
    and the surface each kind's `_walk(params, noise, given)` serves:
    one ancestral pass that draws each latent from its entry of `noise`,
    or reads it from the trace `given` when that is not None, and
    returns (values, log_q, discrete_log_q)."""

    def __init__(self, model, layout, noise_spec):
        self.model = model
        self.param_names = tuple(layout.names)
        self.param_index = dict(layout.index)
        self.init_params = np.array(layout.init, dtype=float)
        self.noise_spec = tuple(noise_spec)
        self.latent_names = tuple(n.name for n in model.latent_nodes)

    @property
    def num_params(self):
        return len(self.param_names)

    def sample_and_log_prob(self, params, noise):
        """A trace drawn from `noise` and its log-density.

        Returns (values, log_q, discrete_log_q); the sampled values of
        continuous nodes are differentiable functions of `params` via
        the reparameterization path, discrete values are plain floats
        whose density contribution is also accumulated separately for
        the score-function estimator (None when there is none).
        """
        return self._walk(params, noise, None)

    def log_prob(self, params, values):
        """Surrogate log-density of a full latent assignment."""
        log_q = self._walk(params, None, values)[1]
        return 0.0 if log_q is None else log_q


class ConvexUpdateProgram(SurrogateProgram):
    """ASVI program; also serves as mean-field when lam is frozen at 0.

    Per latent node and per schema parameter the program stores a logit
    for lam and an unconstrained alpha (a vector of k-1 entries for a
    simplex parameter, which shares one lam so the update stays on the
    simplex).
    """

    def __init__(self, model, with_lam, init_seed=0):
        self.with_lam = with_lam
        self.kind = "asvi" if with_lam else "mean-field"
        rng = np.random.default_rng(init_seed)
        thetas = _prior_centers(model)
        layout = _ParamLayout()
        self._rules = []
        for node in model.latent_nodes:
            entries = []
            for k, (pname, kind) in enumerate(node.family.param_schema):
                if kind not in ("unconstrained", "positive", "unit-interval", "simplex"):
                    raise ValueError(
                        f"{node.name}.{pname}: parameter domain {kind!r} is not convex"
                    )
                lam_idx = None
                if with_lam:
                    lam_idx = layout.add(f"{node.name}.{pname}.lam_logit", rng.uniform(-1.0, 1.0))
                simplex = kind == "simplex"
                size = node.family.num_classes - 1 if simplex else 1
                alpha0 = _alpha_start(kind, thetas[node.name][k], size, rng)
                names = [f"alpha_{i}" for i in range(len(alpha0))] if simplex else ["alpha"]
                alpha_idx = [
                    layout.add(f"{node.name}.{pname}.{name}", a0) for name, a0 in zip(names, alpha0)
                ]
                entries.append((kind, lam_idx, alpha_idx))
            self._rules.append((node, entries))
        super().__init__(model, layout, [node.family.noise for node, _ in self._rules])

    def _node_params(self, node, entries, params, parent_values):
        # mean-field has no lam, so it never uses the prior link's output
        theta = node.params(parent_values) if self.with_lam else [None] * len(entries)
        out = []
        for (kind, lam_idx, alpha_idx), theta_k in zip(entries, theta):
            # a scalar parameter is a one-entry vector; a simplex shares one lam
            simplex = kind == "simplex"
            raw = [params[i] for i in alpha_idx]
            q = SOFTMAX_CENTERED.forward(raw) if simplex else [constrain_param(kind, raw[0])]
            if lam_idx is not None:
                lam = ad.sigmoid(params[lam_idx])
                q = convex_update(theta_k if simplex else [theta_k], [lam] * len(q), q)
            out.append(q if simplex else q[0])
        return out

    def _walk(self, params, noise, given):
        obs = self.model.observations
        values = {}
        log_q = None
        disc_log_q = None
        for i, (node, entries) in enumerate(self._rules):
            parent_values = [obs[p] if p in obs else values[p] for p in node.parents]
            q_params = self._node_params(node, entries, params, parent_values)
            if given is not None:
                x = given[node.name]
            elif node.family.is_discrete:
                x = node.family.sample_score(q_params, noise[i])
            else:
                x = node.family.sample_reparam(q_params, noise[i])
            term = node.family.log_prob(q_params, x)
            if node.family.is_discrete:
                disc_log_q = term if disc_log_q is None else disc_log_q + term
            values[node.name] = x
            log_q = term if log_q is None else log_q + term
        return values, log_q, disc_log_q


class Ar1Program(SurrogateProgram):
    """Linear-Gaussian conditionals between successive latents.

    Operates on unconstrained values (pushed through each family's
    support bijector); the autoregressive coefficient into a node is
    frozen at zero when its predecessor is a global variable, and the
    first node has none.
    """

    kind = "ar1"

    def __init__(self, model, init_seed=0):
        layout = _ParamLayout()
        self._rows = []
        for node, bij, mean_u, raw_scale in _gaussian_start(model, init_seed, "ar1"):
            coef_idx = None
            if self._rows and self._rows[-1][0].name not in model.global_names:
                coef_idx = layout.add(f"{node.name}.ar_coef", 0.0)
            offset_idx = layout.add(f"{node.name}.offset", mean_u)
            scale_idx = layout.add(f"{node.name}.scale", raw_scale)
            self._rows.append((node, bij, coef_idx, offset_idx, scale_idx))
        super().__init__(model, layout, ["normal"] * len(self._rows))

    def _walk(self, params, noise, given):
        values = {}
        log_q = None
        prev_u = None
        for i, (node, bij, coef_idx, offset_idx, scale_idx) in enumerate(self._rows):
            mean_u = params[offset_idx]
            if coef_idx is not None:
                mean_u = mean_u + params[coef_idx] * prev_u
            scale = constrain_param("positive", params[scale_idx])
            if given is None:
                u = mean_u + scale * noise[i]
            else:
                u = bij.inverse(given[node.name])
            term = _std_normal_log_pdf((u - mean_u) / scale) - ad.log(scale)
            term = term - bij.log_det_jacobian(u)
            # after the term: recording the value first reorders the tape
            values[node.name] = bij.forward(u) if given is None else given[node.name]
            log_q = term if log_q is None else log_q + term
            prev_u = u
        return values, log_q, None


class MvnProgram(SurrogateProgram):
    """Full-covariance Gaussian over the unconstrained latent space."""

    kind = "mvn"

    def __init__(self, model, init_seed=0):
        start = _gaussian_start(model, init_seed, "mvn")
        layout = _ParamLayout()
        for node, _, mean_u, _ in start:
            layout.add(f"{node.name}.mvn_mean", mean_u)
        self._bijectors = [bij for _, bij, _, _ in start]
        self._chol_idx = {}
        for i, (_, _, _, raw_scale) in enumerate(start):
            for j in range(i + 1):
                init = raw_scale if i == j else 0.0
                self._chol_idx[(i, j)] = layout.add(f"chol.{i}.{j}", init)
        super().__init__(model, layout, ["normal"] * len(start))

    def _chol_entry(self, params, i, j):
        raw = params[self._chol_idx[(i, j)]]
        return constrain_param("positive", raw) if i == j else raw

    def _walk(self, params, noise, given):
        values = {}
        log_q = None
        z = noise if given is None else []  # standard-normal coordinates
        for i, (node, bij) in enumerate(zip(self.model.latent_nodes, self._bijectors)):
            if given is None:
                u = params[i]  # mean entry
                for j in range(i + 1):
                    u = u + self._chol_entry(params, i, j) * z[j]
            else:  # forward substitution through the same entries
                u = bij.inverse(given[node.name])
                resid = u - params[i]
                for j in range(i):
                    resid = resid - self._chol_entry(params, i, j) * z[j]
                z.append(resid / self._chol_entry(params, i, i))
            term = _std_normal_log_pdf(z[i]) - ad.log(self._chol_entry(params, i, i))
            term = term - bij.log_det_jacobian(u)
            # after the term: recording the value first reorders the tape
            values[node.name] = bij.forward(u) if given is None else given[node.name]
            log_q = term if log_q is None else log_q + term
        return values, log_q, None


class SurrogateKind(NamedTuple):
    build: Callable  # (model, init_seed=...) -> SurrogateProgram
    lr: float  # default Adam learning rate


SURROGATES = {
    "asvi": SurrogateKind(partial(ConvexUpdateProgram, with_lam=True), 1e-2),
    "mean-field": SurrogateKind(partial(ConvexUpdateProgram, with_lam=False), 1e-2),
    "ar1": SurrogateKind(Ar1Program, 1e-2),
    "mvn": SurrogateKind(MvnProgram, 1e-3),
}


def build_surrogate(kind, model, init_seed=0):
    """The `kind` program over `model`'s latents."""
    if kind not in SURROGATES:
        raise ValueError(f"unknown surrogate kind {kind!r}; choose from {sorted(SURROGATES)}")
    return SURROGATES[kind].build(model, init_seed=init_seed)
