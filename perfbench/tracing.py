"""Spans recorded by wrapping program functions where callers look them up.

A `Tracer` swaps each target attribute for a wrapper that appends one
`Span` per call and swaps the original back on exit, so a pass run
outside the `with` block carries no wrapper.  Spans stay in memory until
the run ends.  `layer_metrics` turns one pass's spans into the per-layer
metrics: every span's self time (its duration minus its children's) is
charged to exactly one `*_s` metric, so those metrics plus
`trace.unattributed_s` add up to the traced wall time.
"""

from __future__ import annotations

import functools
import time
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same list, -1 at the root
    cell: str  # "task/surrogate/seed" inside a cell, "" at sweep level
    info: object  # what the target's `info` hook extracted, or None


class Target(NamedTuple):
    owner: object  # module or class whose attribute is replaced
    attr: str
    name: str  # span name: layer module, then function
    info: object = None  # callable(args, result) -> span info, or None


CELL_SPAN = "cli.run_single"
FIT_SPAN = "inference.fit"


def _cell_id(args):
    config, kind, seed = args[:3]
    return f"{config.task}/{kind}/{seed}"


class Tracer:
    def __init__(self, targets, clock):
        self.targets = tuple(targets)
        self.clock = clock  # time.perf_counter, or SpeedProbe.clock
        self.spans = []
        self._stack = []
        self._cell = ""
        self._saved = []

    def __enter__(self):
        for owner, attr, name, info in self.targets:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, info))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _wrap(self, fn, name, info):
        spans, stack, clock = self.spans, self._stack, self.clock
        is_cell = name == CELL_SPAN

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            if is_cell:
                self._cell = _cell_id(args)
            stack.append(index)
            returned = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = clock()
                stack.pop()
                extra = info(args, result) if returned and info else None
                spans[index] = Span(name, start, end, parent, self._cell, extra)
                if is_cell:
                    self._cell = ""

        return wrapper


def timer_targets(cli):
    """The two timers an untraced pass keeps: the cell and the fit."""
    return [
        Target(cli, "run_single", CELL_SPAN),
        Target(cli, "fit", FIT_SPAN, lambda a, r: (r.steps_run, int(r.diverged))),
    ]


def program_targets():
    """Every layer boundary, wrapped at the name its caller looks up."""
    from convexvi import autodiff, cli, inference, oracles

    return timer_targets(cli) + [
        Target(cli, "run_benchmark", "cli.run_benchmark"),
        Target(cli, "get_task", "tasks.get_task"),
        Target(cli, "generate_data", "tasks.generate_data"),
        Target(cli, "elbo_estimate", "inference.elbo_estimate"),
        Target(cli, "surrogate_moments", "inference.surrogate_moments"),
        Target(
            cli,
            "metropolis_sample",
            "oracles.metropolis_sample",
            lambda a, r: (r.acceptance_rate, max(r.rhat.values())),
        ),
        Target(cli, "kalman_filter_smoother", "oracles.kalman_filter_smoother"),
        Target(inference, "build_surrogate", "surrogates.build_surrogate", lambda a, r: r.num_params),
        Target(inference.CompiledElbo, "__init__", "autodiff.record", lambda a, r: len(a[0].tape)),
        Target(autodiff.Tape, "forward", "autodiff.Tape.forward", lambda a, r: len(a[0])),
        Target(autodiff.Tape, "backward", "autodiff.Tape.backward", lambda a, r: a[1].i + 1),
        Target(inference, "adam_step", "inference.adam_step"),
        Target(inference, "joint_log_prob", "model.joint_log_prob"),
        Target(oracles, "joint_log_prob", "model.joint_log_prob"),
    ]


# span name -> the per-layer metric its self time is charged to
SELF_METRICS = {
    "cli.run_benchmark": "cli.sweep_self_s",
    CELL_SPAN: "cli.cell_self_s",
    "tasks.get_task": "tasks.build_s",
    "tasks.generate_data": "tasks.generate_data_s",
    FIT_SPAN: "inference.step_self_s",
    "inference.elbo_estimate": "inference.final_elbo_s",
    "inference.surrogate_moments": "inference.moments_s",
    "oracles.metropolis_sample": "oracles.metropolis_s",
    "oracles.kalman_filter_smoother": "oracles.kalman_s",
    "surrogates.build_surrogate": "surrogates.build_s",
    "autodiff.record": "autodiff.record_s",
    "autodiff.Tape.forward": "autodiff.forward_s",
    "autodiff.Tape.backward": "autodiff.backward_s",
    "inference.adam_step": "inference.adam_s",
    "model.joint_log_prob": "model.joint_log_prob_s",
}

# Spans that absorb their descendants: the joint_log_prob calls made while
# recording the ELBO tape are part of recording, not the float path.
FOLDING = {"autodiff.record"}

# per-layer metric -> unit; the `*_s` entries of SELF_METRICS partition the
# traced wall time together with trace.unattributed_s
LAYER_UNITS = {
    "autodiff.forward_s": "s",
    "autodiff.backward_s": "s",
    "autodiff.forward_ns_per_node": "ns",
    "autodiff.backward_ns_per_node": "ns",
    "autodiff.tape_nodes": "count",
    "autodiff.record_s": "s",
    "autodiff.rerecord_steps": "count",
    "inference.fit_s": "s",
    "inference.steps": "count",
    "inference.adam_s": "s",
    "inference.step_self_s": "s",
    "inference.final_elbo_s": "s",
    "inference.moments_s": "s",
    "inference.diverged": "count",
    "oracles.metropolis_s": "s",
    "oracles.metropolis_evals": "count",
    "oracles.metropolis_accept_rate": "ratio",
    "oracles.max_rhat": "ratio",
    "oracles.kalman_s": "s",
    "model.joint_log_prob_calls": "count",
    "model.joint_log_prob_s": "s",
    "surrogates.build_s": "s",
    "surrogates.params": "count",
    "tasks.build_s": "s",
    "tasks.generate_data_s": "s",
    "cli.sweep_self_s": "s",
    "cli.cell_self_s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "ratio",
}


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def charged_names(spans):
    """Span name each span's self time is charged to, after folding."""
    charged = []
    for s in spans:
        up = charged[s.parent] if s.parent >= 0 else None
        charged.append(up if up in FOLDING else s.name)
    return charged


def layer_metrics(spans, wall_s):
    """Per-layer metrics of one traced pass whose wall time was `wall_s`.

    Metrics of a layer the pass never entered read 0 (a rate or Rhat of 0
    means no Metropolis chain ran).  `trace.overhead_frac` needs the
    untraced wall time and is filled in by the caller.
    """
    out = {name: 0.0 for name in LAYER_UNITS}
    charged = charged_names(spans)
    for name, own in zip(charged, self_times(spans)):
        out[SELF_METRICS[name]] += own
    out["trace.wall_s"] = wall_s
    out["trace.unattributed_s"] = wall_s - sum(out[m] for m in set(SELF_METRICS.values()))

    forward_nodes = backward_nodes = forwards = 0
    rates, rhats = [], []
    for s, name in zip(spans, charged):
        info = s.info  # None where the call raised
        if s.name == FIT_SPAN:
            out["inference.fit_s"] += s.end - s.start
            if info:
                out["inference.steps"] += info[0]
                out["inference.diverged"] += info[1]
        elif s.name == "autodiff.Tape.forward":
            forwards += 1
            forward_nodes += info or 0
        elif s.name == "autodiff.Tape.backward":
            backward_nodes += info or 0
        elif s.name == "autodiff.record":
            out["autodiff.tape_nodes"] += info or 0
        elif s.name == "surrogates.build_surrogate":
            out["surrogates.params"] += info or 0
        elif s.name == "oracles.metropolis_sample" and info:
            rates.append(info[0])
            rhats.append(info[1])
        elif name == "model.joint_log_prob":
            out["model.joint_log_prob_calls"] += 1
            if s.parent >= 0 and spans[s.parent].name == "oracles.metropolis_sample":
                out["oracles.metropolis_evals"] += 1
    out["autodiff.rerecord_steps"] = out["inference.steps"] - forwards
    if forward_nodes:
        out["autodiff.forward_ns_per_node"] = out["autodiff.forward_s"] * 1e9 / forward_nodes
    if backward_nodes:
        out["autodiff.backward_ns_per_node"] = out["autodiff.backward_s"] * 1e9 / backward_nodes
    if rates:
        out["oracles.metropolis_accept_rate"] = sum(rates) / len(rates)
        out["oracles.max_rhat"] = max(rhats)
    return out
