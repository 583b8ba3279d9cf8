"""Probabilistic programs as DAGs of conditional-distribution nodes.

Each node owns a distribution family, an ordered parent list, and a
deterministic link function mapping parent values to the family's
parameter tuple.  Link functions must be written with the ops in
:mod:`convexvi.autodiff` so that gradients can flow through them when a
surrogate re-executes the link at posterior parent values, and so that
a batch of samples can run through them as float arrays.

Stochastic control flow is supported through links that branch on a
*discrete* parent's value (discrete values are plain floats and never
carry gradients), selecting among pre-declared parameter rules.  A link
may also read a continuous parent's value (``value_of``); the ELBO graph
then depends on the sampled values, and ``fit`` records it every step
instead of replaying it, and a batch is evaluated one sample at a time.

``over_rows`` is the one home of the batch policy: a pass over rows of
noise runs once on float arrays, or else once per row on floats, with
the same bits.  ``sample_forward`` draws one prior trace from a seed;
``sample_prior`` draws the traces of many seeds through ``over_rows``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .autodiff import DomainError, PerSampleOnly, value_for_check
from .distributions import NEG_INF, ParameterError, draw_noise, zero_density


class ModelError(ValueError):
    """Invalid graph construction or conditioning."""


@dataclass(frozen=True)
class RandomVariableNode:
    """One conditional distribution with its link function."""

    name: str
    family: object
    parents: tuple = ()
    link: Callable = None

    def params(self, parent_values):
        if self.link is None:
            raise ModelError(f"node {self.name!r} has no link function")
        return self.link(*parent_values)


def rv(name, family, parents=(), link=None, params=None):
    """Node constructor; pass either `link` or a fixed `params` tuple."""
    if (link is None) == (params is None):
        raise ModelError(f"node {name!r}: give exactly one of link= or params=")
    if params is not None:
        fixed = tuple(params)
        link = lambda *_: fixed  # noqa: E731 - tiny closure is clearer here
    return RandomVariableNode(name=name, family=family, parents=tuple(parents), link=link)


@dataclass(frozen=True)
class JointModel:
    """Topologically ordered node list plus observation bindings."""

    nodes: tuple
    observations: Mapping[str, float] = field(default_factory=dict)
    global_names: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "_by_name", {n.name: n for n in self.nodes})

    def node(self, name):
        return self._by_name[name]

    @property
    def latent_nodes(self):
        return [n for n in self.nodes if n.name not in self.observations]

    @property
    def observed_nodes(self):
        return [n for n in self.nodes if n.name in self.observations]


@dataclass
class Trace:
    """Named assignment of values and their joint log-density."""

    values: dict
    total: float


def build_joint(nodes: Sequence[RandomVariableNode], global_names=()) -> JointModel:
    """Validate and topologically order a node list.

    Declaration order is kept wherever the DAG allows it, so two
    declarations of the same graph sort identically.
    """
    names = [n.name for n in nodes]
    seen = set()
    for name in names:
        if name in seen:
            raise ModelError(f"duplicate node name {name!r}")
        seen.add(name)
    for n in nodes:
        for p in n.parents:
            if p not in seen:
                raise ModelError(f"node {n.name!r} references undeclared parent {p!r}")
            if p == n.name:
                raise ModelError(f"node {n.name!r} lists itself as a parent")

    order_index = {n.name: i for i, n in enumerate(nodes)}
    children = {n.name: [] for n in nodes}
    missing = {n.name: len(n.parents) for n in nodes}
    for n in nodes:
        for p in n.parents:
            children[p].append(n.name)

    by_name = {n.name: n for n in nodes}
    ready = sorted((name for name, k in missing.items() if k == 0), key=order_index.get)
    ordered = []
    while ready:
        ready.sort(key=order_index.get)
        name = ready.pop(0)
        ordered.append(by_name[name])
        for child in children[name]:
            missing[child] -= 1
            if missing[child] == 0:
                ready.append(child)
    if len(ordered) != len(nodes):
        stuck = sorted(name for name, k in missing.items() if k > 0)
        raise ModelError(f"cycle detected among nodes {stuck}")

    unknown_globals = set(global_names) - seen
    if unknown_globals:
        raise ModelError(f"unknown global names {sorted(unknown_globals)}")
    return JointModel(nodes=tuple(ordered), global_names=frozenset(global_names))


def condition(model: JointModel, observations: Mapping[str, float]) -> JointModel:
    """Bind observed values; the unobserved set shrinks accordingly."""
    bound = dict(model.observations)
    for name, value in observations.items():
        if name not in model._by_name:
            raise ModelError(f"cannot observe unknown node {name!r}")
        if name in bound:
            raise ModelError(f"node {name!r} is already observed")
        # checked first: a family's own test may pass inf or fail on NaN
        if not math.isfinite(value):
            raise ModelError(f"observed value {value!r} of {name!r} is not finite")
        if not model.node(name).family.in_support(value):
            raise ModelError(f"observed value {value!r} outside support of {name!r}")
        bound[name] = float(value)
    return JointModel(nodes=model.nodes, observations=bound, global_names=model.global_names)


def _parent_values(node, values, observations):
    out = []
    for p in node.parents:
        if p in observations:
            out.append(observations[p])
        elif p in values:
            out.append(values[p])
        else:
            raise ModelError(f"missing assignment for {p!r} (parent of {node.name!r})")
    return out


def _ancestral(model, noise):
    """One ancestral pass: each latent takes the next entry of the
    iterator `noise`; returns (values of every node, joint log-density)."""
    values = {}
    total = 0.0
    for node in model.nodes:
        params = node.params(_parent_values(node, values, model.observations))
        if node.name in model.observations:
            x = model.observations[node.name]
        elif node.family.is_discrete:
            x = node.family.sample_score(params, next(noise))
        else:
            x = node.family.sample_reparam(params, next(noise))
        values[node.name] = x
        total += node.family.log_prob(params, x)
    return values, total


def sample_forward(model: JointModel, seed) -> Trace:
    """Ancestral sampling; observed nodes keep their bound values.

    Deterministic given the seed: one `draw_noise` row holds the latents'
    noise, in node order.
    """
    kinds = [n.family.noise for n in model.latent_nodes]
    noise = draw_noise(kinds, 1, np.random.default_rng(seed))[0].tolist()
    return Trace(*_ancestral(model, iter(noise)))


def sample_prior(model: JointModel, seeds) -> dict:
    """`sample_forward` over a seed axis, through `over_rows`: each
    latent's values as a float array, one entry per seed, with the bits
    `sample_forward(model, seed)` gives.  Each seed's noise row comes
    from its own generator; every node's `log_prob` runs, observed nodes
    included, so a density that fails for a seed fails here too."""
    latents = model.latent_nodes
    kinds = [n.family.noise for n in latents]
    rows = [draw_noise(kinds, 1, np.random.default_rng(seed)) for seed in seeds]
    noise = np.array(rows).reshape(len(rows), len(kinds))
    return over_rows(kinds, noise, lambda eps: _ancestral(model, iter(eps))[0], [n.name for n in latents])


def over_rows(kinds, noise, run, keys) -> dict:
    """Each of `keys` in what `run` returns over the rows of `noise` (an
    `(n, k)` float array, one column per noise kind in `kinds`), as a
    float array with one entry per row, each with the bits `run` gives
    on that row's floats; no rows give one empty array per key.

    `run` is called once, with one float array per column in place of
    each float.  The arrays take the rows whole or not at all: uniform
    noise (discrete values, which links branch on), `PerSampleOnly` (a
    read value, a row of density 0), a floating-point error (numpy
    raises here), a `DomainError` or a `ParameterError` call `run` once
    per row on floats instead, which gives the same values or raises
    what the first failing row raises.  Any other error is raised.
    """
    noise = np.ascontiguousarray(noise.T)  # row j: column j of every row, the one copy kept
    if "uniform" not in kinds:
        try:
            with np.errstate(all="raise", under="ignore"):
                out = run(list(noise))
            return {key: out[key] for key in keys}
        except (PerSampleOnly, FloatingPointError, DomainError, ParameterError):
            pass
    columns = {key: np.empty(noise.shape[1]) for key in keys}
    for s, row in enumerate(noise.T.tolist()):
        out = run(row)
        for key, column in columns.items():
            column[s] = out[key]
    return columns


def _accumulate(model, node_subset, values):
    total = None
    for node in node_subset:
        if node.name in model.observations:
            x = model.observations[node.name]
        elif node.name in values:
            x = values[node.name]
        else:
            raise ModelError(f"missing assignment for node {node.name!r}")
        params = node.params(_parent_values(node, values, model.observations))
        lp = node.family.log_prob(params, x)
        # density is zero at an out-of-support point; children may
        # see nonsense parameters there, so do not evaluate them
        # (unnoted read: a -inf term makes a replayed sum non-finite;
        # a batch with such a sample goes to the per-sample loop)
        if zero_density(value_for_check(lp) == NEG_INF):
            return NEG_INF
        total = lp if total is None else total + lp
    return 0.0 if total is None else total


def joint_log_prob(model: JointModel, values: Mapping) -> float:
    """Sum of every node's conditional log-density, likelihood included.

    `values` must assign every unobserved node; observation bindings
    supply the rest.  Works on floats, on tape nodes, or on float arrays
    of samples (one log-density per sample).  A density of 0 gives -inf,
    and the later nodes are not evaluated; on arrays a sample of density
    0 raises `PerSampleOnly`, for the per-sample loop to evaluate it.
    """
    return _accumulate(model, model.nodes, values)


def latent_log_prob(model: JointModel, values: Mapping):
    """Log-density of the latent (unobserved) nodes only."""
    return _accumulate(model, model.latent_nodes, values)
