"""Automatic construction of variational programs from a joint model.

The main construction (kind ``asvi``) rewrites every latent
conditional so its parameters become a learned convex combination of
the prior-propagated parameters and a free term:

    q_param = sigmoid(lam_logit) * theta(parents) + (1 - sigmoid(lam_logit)) * alpha

with one (lam, alpha) pair per scalar parameter and alpha stored in
unconstrained space.  Structure, control flow, and family kinds of the
latent sub-model are preserved.  Baselines: ``mean-field`` (the same
program with lam frozen at zero), ``ar1``, a linear-Gaussian
autoregression over unconstrained values, and ``mvn``, a
full-covariance Gaussian.  ``SURROGATES`` maps each kind to its
constructor and default learning rate; ``build_surrogate`` builds one.

All programs expose the same surface: a flat named parameter vector,
a noise spec, ``sample_and_log_prob`` (differentiable when given tape
nodes), and ``log_prob`` of a given trace.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import value_of
from .distributions import (
    SOFTMAX_CENTERED,
    constrain_param,
    support_bijector,
    unconstrain_param,
)
from .model import sample_forward

HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


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


def _prior_centers(model):
    """Per-node central values, propagated through the links.

    Used only to initialize alpha at the prior's parameter values; any
    failure falls back to a neutral center.
    """
    centers = {}
    for node in model.nodes:
        if node.name in model.observations:
            centers[node.name] = model.observations[node.name]
            continue
        try:
            params = node.params([centers[p] for p in node.parents])
            centers[node.name] = node.family.mean_proxy(params)
        except Exception:
            centers[node.name] = 0.0
    return centers


def _theta_at_centers(node, centers):
    return node.params([centers[p] for p in node.parents])


def _prior_unconstrained_stats(model, init_seed, n=100):
    """Per-latent mean/SD of the prior in unconstrained space.

    Used to start the Gaussian baselines near the prior marginals; the
    exact initialization is a free choice, and a unit scale is hopeless
    for models whose latents live at very different magnitudes.
    """
    latents = model.latent_nodes
    bijectors = [support_bijector(node.family) for node in latents]
    draws = {node.name: [] for node in latents}
    rng = np.random.default_rng(init_seed)
    for _ in range(n):
        trace = sample_forward(model, seed=int(rng.integers(2**31 - 1)))
        for node, bij in zip(latents, bijectors):
            try:
                draws[node.name].append(bij.inverse(trace.values[node.name]))
            except ValueError:
                pass
    stats = {}
    for node in latents:
        u = np.asarray(draws[node.name])
        if len(u) < 2:
            stats[node.name] = (0.0, 1.0)
        else:
            stats[node.name] = (float(u.mean()), float(max(u.std(ddof=1), 1e-3)))
    return stats


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
    """Base container: flat named trainable vector plus a noise spec."""

    kind = None  # the SURROGATES key, set by build_surrogate

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

    def draw_noise(self, rng):
        out = []
        for kind in self.noise_spec:
            if kind == "normal":
                out.append(rng.standard_normal())
            elif kind == "abs-normal":
                out.append(abs(rng.standard_normal()))
            else:  # uniform
                out.append(rng.uniform())
        return out


class ConvexUpdateProgram(SurrogateProgram):
    """ASVI program; also serves as mean-field when lam is frozen at 0.

    Per latent node and per schema parameter the program stores a logit
    for lam and an unconstrained alpha (a vector of k-1 entries for a
    simplex parameter, which shares one lam so the update stays on the
    simplex).
    """

    def __init__(self, model, with_lam, init_seed=0):
        self.with_lam = with_lam
        rng = np.random.default_rng(init_seed)
        centers = _prior_centers(model)
        layout = _ParamLayout()
        noise_spec = []
        self._rules = []
        for node in model.latent_nodes:
            try:
                theta_center = _theta_at_centers(node, centers)
            except Exception:
                theta_center = None
            entries = []
            for k, (pname, kind) in enumerate(node.family.param_schema):
                if kind not in ("unconstrained", "positive", "unit-interval", "simplex"):
                    raise ValueError(
                        f"{node.name}.{pname}: parameter domain {kind!r} is not convex"
                    )
                lam_idx = None
                if with_lam:
                    lam_idx = layout.add(f"{node.name}.{pname}.lam_logit", rng.uniform(-1.0, 1.0))
                if kind == "simplex":
                    k_classes = node.family.num_classes
                    if theta_center is not None:
                        try:
                            alpha0 = SOFTMAX_CENTERED.inverse(
                                [value_of(p) for p in theta_center[k]]
                            )
                        except ValueError:
                            alpha0 = list(rng.standard_normal(k_classes - 1))
                    else:
                        alpha0 = list(rng.standard_normal(k_classes - 1))
                    alpha_idx = [
                        layout.add(f"{node.name}.{pname}.alpha_{i}", a0)
                        for i, a0 in enumerate(alpha0)
                    ]
                else:
                    if theta_center is not None:
                        try:
                            a0 = unconstrain_param(kind, value_of(theta_center[k]))
                        except ValueError:
                            a0 = rng.standard_normal()
                    else:
                        a0 = rng.standard_normal()
                    alpha_idx = layout.add(f"{node.name}.{pname}.alpha", a0)
                entries.append((kind, lam_idx, alpha_idx))
            self._rules.append((node, entries))
            noise_spec.append(node.family.noise)
        super().__init__(model, layout, noise_spec)

    def _node_params(self, node, entries, params, parent_values):
        theta = node.params(parent_values)
        out = []
        for (kind, lam_idx, alpha_idx), theta_k in zip(entries, theta):
            if kind == "simplex":
                alpha = SOFTMAX_CENTERED.forward([params[i] for i in alpha_idx])
                if lam_idx is None:
                    out.append(alpha)
                else:
                    lam = ad.sigmoid(params[lam_idx])
                    out.append(convex_update(theta_k, [lam] * len(alpha), alpha))
            else:
                alpha = constrain_param(kind, params[alpha_idx])
                if lam_idx is None:
                    out.append(alpha)
                else:
                    lam = ad.sigmoid(params[lam_idx])
                    (updated,) = convex_update((theta_k,), (lam,), (alpha,))
                    out.append(updated)
        return out

    def sample_and_log_prob(self, params, noise):
        """Ancestral sampling through the convex-update rules.

        Returns (values, log_q, discrete_log_q); the sampled values of
        continuous nodes are differentiable functions of `params` via
        the reparameterization path, discrete values are plain floats
        whose density contribution is also accumulated separately for
        the score-function estimator.
        """
        values = {}
        obs = self.model.observations
        log_q = None
        disc_log_q = None
        for (node, entries), eps in zip(self._rules, noise):
            parent_values = [obs.get(p, values.get(p)) for p in node.parents]
            q_params = self._node_params(node, entries, params, parent_values)
            if node.family.is_discrete:
                x = node.family.sample_score(q_params, eps)
                term = node.family.log_prob(q_params, x)
                disc_log_q = term if disc_log_q is None else disc_log_q + term
            else:
                x = node.family.sample_reparam(q_params, eps)
                term = node.family.log_prob(q_params, x)
            values[node.name] = x
            log_q = term if log_q is None else log_q + term
        return values, log_q, disc_log_q

    def log_prob(self, params, values):
        """Surrogate log-density of a full latent assignment."""
        obs = self.model.observations
        total = None
        for node, entries in self._rules:
            parent_values = [
                obs[p] if p in obs else values[p] for p in node.parents
            ]
            q_params = self._node_params(node, entries, params, parent_values)
            term = node.family.log_prob(q_params, values[node.name])
            total = term if total is None else total + term
        return 0.0 if total is None else total


class Ar1Program(SurrogateProgram):
    """Linear-Gaussian conditionals between successive latents.

    Operates on unconstrained values (pushed through each family's
    support bijector); the autoregressive coefficient into a node is
    frozen at zero when its predecessor is a global variable, and the
    first node has none.
    """

    def __init__(self, model, init_seed=0):
        stats = _prior_unconstrained_stats(model, init_seed)
        latents = model.latent_nodes
        layout = _ParamLayout()
        self._rows = []
        prev_name = None
        for i, node in enumerate(latents):
            if node.family.is_discrete:
                raise ValueError("ar1 surrogate requires continuous latents")
            bij = support_bijector(node.family)
            mean_u, sd_u = stats[node.name]
            coef_idx = None
            if i > 0 and prev_name not in model.global_names:
                coef_idx = layout.add(f"{node.name}.ar_coef", 0.0)
            offset_idx = layout.add(f"{node.name}.offset", mean_u)
            scale_idx = layout.add(f"{node.name}.scale", _softplus_inverse_safe(sd_u))
            self._rows.append((node, bij, coef_idx, offset_idx, scale_idx))
            prev_name = node.name
        super().__init__(model, layout, ["normal"] * len(latents))

    def sample_and_log_prob(self, params, noise):
        values = {}
        log_q = None
        prev_u = None
        for (node, bij, coef_idx, offset_idx, scale_idx), eps in zip(self._rows, noise):
            mean_u = params[offset_idx]
            if coef_idx is not None:
                mean_u = mean_u + params[coef_idx] * prev_u
            scale = constrain_param("positive", params[scale_idx])
            u = mean_u + scale * eps
            term = _std_normal_log_pdf((u - mean_u) / scale) - ad.log(scale)
            term = term - bij.log_det_jacobian(u)
            values[node.name] = bij.forward(u)
            log_q = term if log_q is None else log_q + term
            prev_u = u
        return values, log_q, None

    def log_prob(self, params, values):
        total = None
        prev_u = None
        for node, bij, coef_idx, offset_idx, scale_idx in self._rows:
            u = bij.inverse(values[node.name])
            mean_u = params[offset_idx]
            if coef_idx is not None:
                mean_u = mean_u + params[coef_idx] * prev_u
            scale = constrain_param("positive", params[scale_idx])
            term = _std_normal_log_pdf((u - mean_u) / scale) - ad.log(scale)
            term = term - bij.log_det_jacobian(u)
            total = term if total is None else total + term
            prev_u = u
        return 0.0 if total is None else total


class MvnProgram(SurrogateProgram):
    """Full-covariance Gaussian over the unconstrained latent space."""

    def __init__(self, model, init_seed=0):
        stats = _prior_unconstrained_stats(model, init_seed)
        latents = model.latent_nodes
        layout = _ParamLayout()
        self._bijectors = []
        diag_init = []
        for node in latents:
            if node.family.is_discrete:
                raise ValueError("mvn surrogate requires continuous latents")
            mean_u, sd_u = stats[node.name]
            layout.add(f"{node.name}.mvn_mean", mean_u)
            self._bijectors.append(support_bijector(node.family))
            diag_init.append(_softplus_inverse_safe(sd_u))
        d = len(latents)
        self._chol_idx = {}
        for i in range(d):
            for j in range(i + 1):
                init = diag_init[i] if i == j else 0.0
                self._chol_idx[(i, j)] = layout.add(f"chol.{i}.{j}", init)
        self._dim = d
        super().__init__(model, layout, ["normal"] * d)

    def _chol_entry(self, params, i, j):
        raw = params[self._chol_idx[(i, j)]]
        return constrain_param("positive", raw) if i == j else raw

    def sample_and_log_prob(self, params, noise):
        latents = self.model.latent_nodes
        d = self._dim
        values = {}
        log_q = None
        for i, node in enumerate(latents):
            u = params[i]  # mean entry
            for j in range(i + 1):
                u = u + self._chol_entry(params, i, j) * noise[j]
            term = _std_normal_log_pdf(noise[i]) - ad.log(self._chol_entry(params, i, i))
            term = term - self._bijectors[i].log_det_jacobian(u)
            values[node.name] = self._bijectors[i].forward(u)
            log_q = term if log_q is None else log_q + term
        return values, log_q, None

    def log_prob(self, params, values):
        latents = self.model.latent_nodes
        us = [self._bijectors[i].inverse(values[n.name]) for i, n in enumerate(latents)]
        z = []
        total = 0.0
        for i in range(self._dim):
            resid = us[i] - value_of(params[i])
            for j in range(i):
                resid -= value_of(self._chol_entry(params, i, j)) * z[j]
            lii = value_of(self._chol_entry(params, i, i))
            zi = resid / lii
            z.append(zi)
            total += _std_normal_log_pdf(zi) - math.log(lii)
            total -= value_of(self._bijectors[i].log_det_jacobian(us[i]))
        return total


def _softplus_inverse_safe(y):
    return unconstrain_param("positive", y + 2e-6)


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
    """The `kind` program over `model`'s latents, with `.kind` set."""
    if kind not in SURROGATES:
        raise ValueError(f"unknown surrogate kind {kind!r}; choose from {sorted(SURROGATES)}")
    program = SURROGATES[kind].build(model, init_seed=init_seed)
    program.kind = kind
    return program
