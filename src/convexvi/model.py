"""Probabilistic programs as DAGs of conditional-distribution nodes.

Each node owns a distribution family, an ordered parent list, and a
deterministic link function mapping parent values to the family's
parameter tuple.  Link functions must be written with the scalar ops in
:mod:`convexvi.autodiff` so that gradients can flow through them when a
surrogate re-executes the link at posterior parent values.

Stochastic control flow is supported through links that branch on a
*discrete* parent's value (discrete values are plain floats and never
carry gradients), selecting among pre-declared parameter rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .autodiff import value_of


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
    """Named assignment of values with per-node log-density contributions."""

    values: dict
    log_densities: dict
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


def sample_forward(model: JointModel, seed) -> Trace:
    """Ancestral sampling; observed nodes keep their bound values.

    Deterministic given the seed.
    """
    rng = np.random.default_rng(seed)
    values = {}
    log_densities = {}
    total = 0.0
    for node in model.nodes:
        params = node.params(_parent_values(node, values, model.observations))
        if node.name in model.observations:
            x = model.observations[node.name]
        elif node.family.is_discrete:
            x = node.family.sample_score(params, rng.uniform())
        else:
            x = node.family.sample_reparam(params, rng.standard_normal())
        values[node.name] = x
        lp = node.family.log_prob(params, x)
        log_densities[node.name] = lp
        total += lp
    return Trace(values=values, log_densities=log_densities, total=total)


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
        if value_of(lp) == float("-inf"):
            # density is zero at an out-of-support point; children may
            # see nonsense parameters there, so do not evaluate them
            return float("-inf")
        total = lp if total is None else total + lp
    return 0.0 if total is None else total


def joint_log_prob(model: JointModel, values: Mapping) -> float:
    """Sum of every node's conditional log-density, likelihood included.

    `values` must assign every unobserved node; observation bindings
    supply the rest.  Works on floats or tape nodes.
    """
    return _accumulate(model, model.nodes, values)


def latent_log_prob(model: JointModel, values: Mapping):
    """Log-density of the latent (unobserved) nodes only."""
    return _accumulate(model, model.latent_nodes, values)
