"""Paired benchmark runs of two checkouts of this repository, written to
one JSON file.

    python3 scripts/bench_pairs.py PARENT CHANGE --out BENCH.json \\
        --workload br-sweep --seed 1 --pairs 10
    python3 scripts/bench_pairs.py PARENT CHANGE --out BENCH.json --workload lz-fit --trace --pairs 5
    python3 scripts/bench_pairs.py PARENT CHANGE --out BENCH.json --tapes
    python3 scripts/bench_pairs.py ALONE CHANGE --out BENCH.json \\
        --section ablation --workload br-sweep --seed 1 --pairs 10

PARENT and CHANGE are checkout directories.  Each call adds one section
to the file at --out (made if missing) and keeps the others, so the
phases of a comparison can run one at a time.  perfbench sets the run
length.  With `--section NAME` the sections go under the key NAME
instead, for an ablation: two variants of the change (ALONE lacks one
part of it), compared as the parent and the change are.  Each call
records under `checkouts` what each side holds: the sha256 of its `src/`
and, for a git work tree of its own, its commit and whether `src/`
differs from it (a `git archive` copy has no commit).

- pairs: `python3 perfbench/run.py --workload <w> --seed <s>` in each
  checkout, `--pairs` times per workload; pair p runs the parent first
  when p is even, the change first when it is odd.  Per end-to-end
  metric it records each run's value, each side's median and quartiles
  (`statistics.quantiles(n=4, method="inclusive")`) and the pairs the
  change won, and per run whether perfbench found every row correct and
  how many cells failed.
- trace (`--trace`): the same pairs of runs with `--trace 1`, which
  adds the per-layer metrics, recorded as the pairs are.
- tapes (`--tapes`): the generated sweeps of the ELBO tape of a fit's
  first step, for each task x surrogate kind at one sample and for es at
  8 samples, counted in each checkout.  Of the reverse sweep: its lines
  and characters, the nodes it sweeps, the terms it adds into noise
  inputs, the nodes it gives code that depend on no parameter
  (inactive), and its copy lines (`gX = gY`).  Of the forward sweep
  (`forward_*`): its lines and characters, its stores into `v`, its copy
  lines (`v[i] = xK` or `v[i] = v[j]`) and its slots.  Three sha256
  digests, each with whether the two checkouts' match (`match`): of the
  recorded tape (`tape_sha256`: its ops, parents, partials, constants
  and values, taken before any replay), and of the generated forward and
  reverse sweeps (`forward_source_sha256`, `reverse_source_sha256`: each
  function's arguments, lines and slots), so that a change can show its
  replay to be byte-identical.  Then, in one
  process, both checkouts on copies of the change's tape, checked to
  give the same objective and parameter adjoints in bits: `Tape.forward`
  and `Tape.backward` (after one replayed forward sweep), timed in
  ROUNDS alternating rounds of CALLS calls, and code generation (the
  first `forward` and `backward` of a new copy, with the shape cache
  emptied first) in GEN_ROUNDS alternating rounds: each side's median
  and the median ratio.  Then (`sweep_order`), per perfbench workload,
  the first-step tapes of its cells in the order a sweep fits them,
  generated by each side after one emptying of its shape cache, as a
  sweep does: the chunks, shapes compiled, sources rendered and
  characters compiled, and the time of code generation in SWEEP_ROUNDS
  alternating rounds, split into describing and rendering source,
  compile(), binding, and the analyses (the rest).  Then
  (`init_params_sha256`), per task x surrogate kind x seed 1-5, a sha256
  digest of the initial parameters of the surrogate a sweep's cell builds
  at that seed, from each checkout, with `match`.  Last (`build_ms`), per
  task x surrogate kind, `build_surrogate` at seed 1, timed in one process
  that loads both checkouts' packages, in BUILD_ROUNDS alternating
  rounds, after a check that both sides give the same initial parameters
  in bits: each side's median and the median ratio.

Only the standard library is used here; each checkout runs its own code.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
ROUNDS, CALLS = 30, 20  # the in-process sweep timing of --tapes
GEN_ROUNDS = 10  # the in-process code generation timing of --tapes
SWEEP_ROUNDS = 20  # the sweep-order code generation timing of --tapes
BUILD_ROUNDS = 20  # the in-process `build_surrogate` timing of --tapes


def git(directory, *args):
    """`git` in `directory`, kept from looking above it (as perfbench's
    `_git` is), so that a copy inside another work tree does not report
    that tree's HEAD: its output, or None where it fails."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(directory))
    cmd = ["git", "-C", directory, "--no-optional-locks", *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else None


def checkout(directory):
    """What a checkout holds: the sha256 of its `src/` (perfbench's
    `source_digest` rule: each file's path relative to `src/`, then its
    bytes, in sorted walk order, `__pycache__` skipped), and where it is
    a git work tree of its own, its commit and whether its `src/`
    differs from that commit."""
    root = os.path.abspath(directory)
    src = os.path.join(root, "src")
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    out = {"src_sha256": digest.hexdigest()}
    commit = git(root, "rev-parse", "--short", "HEAD")
    if commit:
        out.update(commit=commit, src_changed=bool(git(root, "status", "--porcelain", "--", "src")))
    return out


def perfbench(directory, workload, seed, trace):
    """The last line of one perfbench run in `directory`, as JSON."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=directory, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {directory} failed:\n{proc.stderr}")
    last = json.loads(proc.stdout.splitlines()[-1])
    return {
        "correct": last["correct"],
        "attempted": last["attempted"],
        "failed": last["failed"],
        "metrics": {name: m["value"] for name, m in last["metrics"].items()},
    }


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def metric_table(parent_dir):
    """name -> the entry (unit, better, bound) of each metric BENCHMARK.json declares."""
    with open(os.path.join(parent_dir, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m for m in bench["end_to_end"] + bench.get("per_layer", [])}


def run_pairs(dirs, workload, seed, pairs, table, trace):
    runs = {side: [] for side in SIDES}
    for p in range(pairs):
        order = SIDES if p % 2 == 0 else SIDES[::-1]
        for side in order:
            runs[side].append(perfbench(dirs[side], workload, seed, trace))
            print(f"{workload} seed {seed} pair {p} {side}: {runs[side][-1]['metrics']}", file=sys.stderr)
    metrics = {}
    for name in runs["parent"][0]["metrics"]:
        values = {side: [r["metrics"][name] for r in runs[side]] for side in SIDES}
        entry = table.get(name, {})
        better = entry.get("better", "lower")
        pairs_of = zip(values["parent"], values["change"])
        won = sum((c < p) if better == "lower" else (c > p) for p, c in pairs_of)
        metrics[name] = {
            "unit": entry.get("unit"),
            "better": better,
            "bound": entry.get("bound"),
            **{side: summary(values[side]) for side in SIDES},
            "pairs_won": won,
        }
    return {
        "workload": workload,
        "seed": seed,
        "pairs": pairs,
        "first_in_pair": ["parent" if p % 2 == 0 else "change" for p in range(pairs)],
        "correct": {side: [r["correct"] for r in runs[side]] for side in SIDES},
        "failed": {side: [r["failed"] for r in runs[side]] for side in SIDES},
        "attempted": {side: [r["attempted"] for r in runs[side]] for side in SIDES},
        "metrics": metrics,
    }


# The first-step ELBO tapes, one per task x surrogate kind at one sample
# and per kind for es at 8 samples, as `tapes()` yields them by name.
TAPE_SET = r"""
import numpy as np
from convexvi.distributions import draw_noise
from convexvi.inference import CompiledElbo
from convexvi.model import condition
from convexvi.surrogates import SURROGATES, build_surrogate
from convexvi.tasks import TASK_IDS, generate_data, get_task

def tapes():
    for task_id in TASK_IDS:
        for kind in SURROGATES:
            for n in (1, 8) if task_id == "es" else (1,):
                task = get_task(task_id)
                model = task.model
                if not task.is_pre_conditioned:
                    model = condition(model, generate_data(task, seed=1)[0])
                surrogate = build_surrogate(kind, model, init_seed=1)
                draws = draw_noise(surrogate.noise_spec, n, np.random.default_rng(1))
                graph = CompiledElbo(model, surrogate, surrogate.init_params, draws)
                yield f"{task_id} x {kind}, {n} sample{'s' if n > 1 else ''}", graph
"""

# Run in each checkout with its own `src` first on the path: per tape,
# the counts of the forward sweep that `Tape.forward` generates and of
# the reverse sweep that `CompiledElbo.gradient` generates.
COUNTS = TAPE_SET + r"""
import hashlib, json, re
from convexvi import autodiff

def sha256(items):
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode() + b"\n")
    return h.hexdigest()

bodies, forward_bodies, swept = [], [], []
generate, describe_backward = autodiff._generate, autodiff._describe_backward

def keep_bodies(sources, render, args):
    sources = list(sources)
    kept = [(render(key), list(slots), args) for key, slots in sources]
    (bodies if args.startswith("g,") else forward_bodies).extend(kept)
    return generate(sources, render, args)

def keep_nodes(tape, nodes, *rest):
    swept.extend(nodes)
    return describe_backward(tape, nodes, *rest)

autodiff._generate = keep_bodies
autodiff._describe_backward = keep_nodes
out = {}
for name, graph in tapes():
    tape, P = graph.tape, graph.n_params
    tape_sha256 = sha256(getattr(tape, name) for name in ("ops", "p1", "p2", "d1", "d2", "aux", "vals"))
    forward_bodies.clear()
    tape.forward()
    bodies.clear()
    swept.clear()
    graph.gradient()
    active, live = [False] * len(tape), [False] * len(tape)
    for i in range(len(tape)):
        j, k = tape.p1[i], tape.p2[i]
        active[i] = i < P if j < 0 else active[j] or (k >= 0 and active[k])
    live[graph.objective.i] = True
    for i in reversed(range(len(tape))):
        if live[i]:
            for p in (tape.p1[i], tape.p2[i]):
                if p >= 0:
                    live[p] = True
    noise_terms = 0
    for lines, slots, _ in bodies:
        for line in lines:
            for m in re.finditer(r"\bg\[(\d+)\] [+-]= ", line):
                node = slots[int(m.group(1)) - autodiff._INDEX_SLOT]
                noise_terms += tape.ops[node] == autodiff.INPUT and node >= P
    lines = [line for body, _, _ in bodies for line in body]
    forward_lines = [line for body, _, _ in forward_bodies for line in body]
    out[name] = {
        "tape_nodes": len(tape),
        "params": P,
        "noise_inputs": graph.n_inputs - P,
        "swept_nodes": len(swept),
        "lines": len(lines),
        "chars": sum(map(len, lines)),
        "noise_terms": noise_terms,
        "inactive_nodes_with_code": sum(live[i] and not active[i] for i in swept),
        "copy_lines": sum(bool(re.fullmatch(r"\w+ = \w+", line)) for line in lines),
        "forward_lines": len(forward_lines),
        "forward_chars": sum(map(len, forward_lines)),
        "forward_stores": sum(bool(re.match(r"v\[\d+\] = ", line)) for line in forward_lines),
        "forward_copy_lines": sum(
            bool(re.fullmatch(r"v\[\d+\] = (x\d+|v\[\d+\])", line)) for line in forward_lines
        ),
        "forward_slots": sum(len(slots) for _, slots, _ in forward_bodies),
        "tape_sha256": tape_sha256,
        "forward_source_sha256": sha256(forward_bodies),
        "reverse_source_sha256": sha256(bodies),
    }
print(json.dumps(out))
"""

# Run with the change's `src` first on the path, and the parent's
# autodiff.py, ROUNDS, CALLS and GEN_ROUNDS as arguments: per tape, each
# side on copies of the change's recorded tape, timed in alternating
# rounds in this one process.  `Tape.forward` and `Tape.backward` run on
# a copy replayed once; code generation is the first `forward` and
# `backward` of a new copy with the side's shape cache empty.  Each side
# is asked for the parameters' adjoints alone (`Tape.backward`'s `wrt`).
SWEEPS = TAPE_SET + r"""
import importlib.util, json, statistics, sys, time
from convexvi import autodiff

spec = importlib.util.spec_from_file_location("parent_autodiff", sys.argv[1])
parent = importlib.util.module_from_spec(spec)
spec.loader.exec_module(parent)
ROUNDS, CALLS, GEN_ROUNDS = map(int, sys.argv[2:5])

def copy_of(module, graph):
    tape = module.Tape()
    for name in ("ops", "p1", "p2", "d1", "d2", "aux", "vals"):
        setattr(tape, name, list(getattr(graph.tape, name)))
    return tape, (module.Node(tape, graph.objective.i), graph.n_params)

def per_call(run):
    def measure():
        start = time.perf_counter()
        for _ in range(CALLS):
            run()
        return (time.perf_counter() - start) / CALLS * 1e6
    return measure

def generation(module, graph):
    def measure():
        tape, args = copy_of(module, graph)
        module.clear_code_cache()
        start = time.perf_counter()
        tape.forward()
        tape.backward(*args)
        return (time.perf_counter() - start) * 1e3
    return measure

def compare(measure, rounds, unit):
    times = {side: [] for side in measure}
    for r in range(rounds):
        for side in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
            times[side].append(measure[side]())
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    return {
        f"parent_{unit}": statistics.median(times["parent"]),
        f"change_{unit}": statistics.median(times["change"]),
        "median_ratio": statistics.median(ratios),
        "rounds_change_faster": sum(r < 1.0 for r in ratios),
        "rounds": rounds,
    }

result = {}
for name, graph in tapes():
    sides = {"parent": copy_of(parent, graph), "change": copy_of(autodiff, graph)}
    for tape, _ in sides.values():
        tape.forward()
    objective = {side: repr(tape.vals[graph.objective.i]) for side, (tape, _) in sides.items()}
    grads = {side: tape.backward(*args)[: graph.n_params] for side, (tape, args) in sides.items()}
    assert objective["parent"] == objective["change"], name
    assert list(map(repr, grads["parent"])) == list(map(repr, grads["change"])), name
    result[name] = {
        "forward_us": compare({side: per_call(tape.forward) for side, (tape, _) in sides.items()}, ROUNDS, "us"),
        "backward_us": compare(
            {side: per_call(lambda tape=tape, args=args: tape.backward(*args)) for side, (tape, args) in sides.items()},
            ROUNDS,
            "us",
        ),
        "codegen_ms": compare(
            {side: generation(module, graph) for side, module in (("parent", parent), ("change", autodiff))},
            GEN_ROUNDS,
            "ms",
        ),
    }
print(json.dumps(result))
"""


# Run with the change's `src` and checkout first on the path, and the
# parent's autodiff.py and SWEEP_ROUNDS as arguments: per perfbench
# workload, the first-step ELBO tapes of its cells in the order a sweep
# fits them (`cli.run_benchmark`: cells sorted by surrogate, then seed),
# recorded as `fit` records them, then each side's code generation over
# them all, the side's shape cache emptied once first, as a sweep empties
# it.  Counts: chunks, shapes compiled, sources rendered and characters
# compiled.  Time, in alternating rounds: the whole, and its split into
# writing source (describing and rendering), compile() and binding; the
# rest (`analyses`) is value numbering, cutting, liveness and activity.
SWEEP_ORDER = r"""
import importlib.util, json, statistics, sys, time
import numpy as np
from convexvi import autodiff
from convexvi.distributions import draw_noise
from convexvi.inference import NOISE_BLOCK, CompiledElbo
from convexvi.model import condition
from convexvi.surrogates import build_surrogate
from convexvi.tasks import generate_data, get_task
from perfbench.workloads import WORKLOADS

spec = importlib.util.spec_from_file_location("parent_autodiff", sys.argv[1])
parent = importlib.util.module_from_spec(spec)
spec.loader.exec_module(parent)
ROUNDS = int(sys.argv[2])
DESCRIBERS = ("_describe_forward", "_describe_backward")
RENDERS = ("_render_forward", "_render_backward")

def first_step_graphs(workload, seed=1):
    for task_id, kinds in workload.sweeps:
        task = get_task(task_id)
        for kind, s in sorted((kind, s) for kind in kinds for s in workload.program_seeds(seed)):
            model = task.model if task.is_pre_conditioned else condition(task.model, generate_data(task, seed=s)[0])
            surrogate = build_surrogate(kind, model, init_seed=s)
            count, n = min(NOISE_BLOCK, workload.steps), workload.n_samples
            block = draw_noise(surrogate.noise_spec, count * n, np.random.default_rng(s))
            yield CompiledElbo(model, surrogate, surrogate.init_params, block.reshape(count, n, -1)[0])

class Probe:
    # times and counts one side's code generation through its module's names
    def __init__(self, module):
        self.module, self.clock = module, {}
        self.count = dict.fromkeys(("sources_rendered", "shapes_compiled", "compiled_chars"), 0)
        for name in DESCRIBERS + RENDERS:
            setattr(module, name, self.timed(getattr(module, name), "describe_render", name))
        module.compile = self.timed(compile, "compile", "compile")
        module._Shape.bind = self.timed(module._Shape.bind, "bind", None)

    def timed(self, fn, part, name):
        def run(*args):
            start = time.perf_counter()
            out = fn(*args)
            self.clock[part] = self.clock.get(part, 0.0) + time.perf_counter() - start
            if name in RENDERS:
                self.count["sources_rendered"] += 1
            elif name == "compile":
                self.count["shapes_compiled"] += 1
                self.count["compiled_chars"] += len(args[0])
            return out
        return run

    def generate(self, graphs):
        module = self.module
        tapes = []
        for graph in graphs:
            tape = module.Tape()
            for name in ("ops", "p1", "p2", "d1", "d2", "aux", "vals"):
                setattr(tape, name, list(getattr(graph.tape, name)))
            tapes.append((tape, module.Node(tape, graph.objective.i), graph.n_params))
        self.clock = dict.fromkeys(("describe_render", "compile", "bind"), 0.0)
        for key in self.count:
            self.count[key] = 0
        module.clear_code_cache()
        start = time.perf_counter()
        for tape, out, wrt in tapes:  # a fit's first `forward` and `backward`, without running them
            tape._replay = module._Replay(tape)
            tape._replay.backward(tape, out.i, wrt)
        total = time.perf_counter() - start
        chunks = sum(len(t._replay.forward) + sum(map(len, t._replay._backward.values())) for t, _, _ in tapes)
        ms = {part: seconds * 1e3 for part, seconds in self.clock.items()}
        return dict(self.count, chunks=chunks), dict(ms, total=total * 1e3, analyses=(total - sum(self.clock.values())) * 1e3)

result = {}
probes = {"parent": Probe(parent), "change": Probe(autodiff)}
for name, workload in WORKLOADS.items():
    graphs = list(first_step_graphs(workload))
    times = {side: [] for side in probes}
    for r in range(ROUNDS):
        for side in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
            counts, ms = probes[side].generate(graphs)
            times[side].append(ms)
            result.setdefault(name, {"tapes": len(graphs)}).setdefault(side, counts)
            assert result[name][side] == counts, (name, side)
    ratios = [c["total"] / p["total"] for p, c in zip(times["parent"], times["change"])]
    result[name]["codegen_ms"] = {
        side: {part: statistics.median(t[part] for t in times[side]) for part in times[side][0]} for side in times
    }
    result[name]["codegen_ms"].update(
        median_ratio=statistics.median(ratios), rounds_change_faster=sum(r < 1.0 for r in ratios), rounds=ROUNDS
    )
print(json.dumps(result))
"""

# Run in each checkout with its own `src` first on the path: per task x
# surrogate kind x seed 1-5, the sha256 of the initial parameters of the
# surrogate a sweep's cell builds (the task's data at that seed, then
# `build_surrogate` at that seed), with the parameter names.
INITS = r"""
import hashlib, json
from convexvi.model import condition
from convexvi.surrogates import SURROGATES, build_surrogate
from convexvi.tasks import TASK_IDS, generate_data, get_task

out = {}
for task_id in TASK_IDS:
    task = get_task(task_id)
    for seed in range(1, 6):
        model = task.model if task.is_pre_conditioned else condition(task.model, generate_data(task, seed=seed)[0])
        for kind in SURROGATES:
            surrogate = build_surrogate(kind, model, init_seed=seed)
            text = repr((surrogate.param_names, surrogate.init_params.tolist()))
            out[f"{task_id} x {kind}, seed {seed}"] = hashlib.sha256(text.encode()).hexdigest()
print(json.dumps(out))
"""

# Run with the change's `src` first on the path, and the parent's `src`
# and BUILD_ROUNDS as arguments: the parent's package is loaded beside
# the change's as `parent_convexvi`, and per task x surrogate kind each
# side builds the surrogate of seed 1 on its own model of the task's
# seed-1 data, in BUILD_ROUNDS alternating rounds, after one untimed
# build that is checked to give the same initial parameters in bits.
BUILDS = r"""
import importlib, importlib.util, json, os, statistics, sys, time
from convexvi import model as _model, surrogates as _surrogates, tasks as _tasks

init = os.path.join(sys.argv[1], "convexvi", "__init__.py")
spec = importlib.util.spec_from_file_location("parent_convexvi", init, submodule_search_locations=[os.path.dirname(init)])
parent = importlib.util.module_from_spec(spec)
sys.modules["parent_convexvi"] = parent
spec.loader.exec_module(parent)
ROUNDS = int(sys.argv[2])
modules = {
    "parent": tuple(importlib.import_module(f"parent_convexvi.{m}") for m in ("model", "surrogates", "tasks")),
    "change": (_model, _surrogates, _tasks),
}

def side_models(task_id):
    out = {}
    for side, (model, _, tasks) in modules.items():
        task = tasks.get_task(task_id)
        out[side] = task.model if task.is_pre_conditioned else model.condition(task.model, tasks.generate_data(task, seed=1)[0])
    return out

result = {}
for task_id in _tasks.TASK_IDS:
    models = side_models(task_id)
    for kind in _surrogates.SURROGATES:
        def build(side):
            start = time.perf_counter()
            surrogate = modules[side][1].build_surrogate(kind, models[side], init_seed=1)
            return (time.perf_counter() - start) * 1e3, surrogate.init_params
        inits = {side: build(side)[1] for side in modules}
        assert inits["parent"].tobytes() == inits["change"].tobytes(), (task_id, kind)
        times = {side: [] for side in modules}
        for r in range(ROUNDS):
            for side in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
                times[side].append(build(side)[0])
        ratios = [c / p for p, c in zip(times["parent"], times["change"])]
        result[f"{task_id} x {kind}"] = {
            "parent_ms": statistics.median(times["parent"]),
            "change_ms": statistics.median(times["change"]),
            "median_ratio": statistics.median(ratios),
            "rounds_change_faster": sum(r < 1.0 for r in ratios),
            "rounds": ROUNDS,
        }
print(json.dumps(result))
"""


def python_in(directory, code, *args):
    """The JSON that `code` prints, run with `directory`'s `src`, then
    the checkout itself, first on the path."""
    root = os.path.abspath(directory)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((os.path.join(root, "src"), root)))
    cmd = [sys.executable, "-c", code, *args]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"tape script in {directory} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def run_tapes(dirs):
    counts = {side: python_in(dirs[side], COUNTS) for side in SIDES}
    parent_autodiff = os.path.join(os.path.abspath(dirs["parent"]), "src", "convexvi", "autodiff.py")
    sweeps = python_in(dirs["change"], SWEEPS, parent_autodiff, str(ROUNDS), str(CALLS), str(GEN_ROUNDS))
    sweep_order = python_in(dirs["change"], SWEEP_ORDER, parent_autodiff, str(SWEEP_ROUNDS))
    inits = {side: python_in(dirs[side], INITS) for side in SIDES}
    parent_src = os.path.join(os.path.abspath(dirs["parent"]), "src")
    builds = python_in(dirs["change"], BUILDS, parent_src, str(BUILD_ROUNDS))
    tapes = {}
    for name, row in counts["parent"].items():
        tapes[name] = {key: {side: counts[side][name][key] for side in SIDES} for key in row}
        for key in row:
            if key.endswith("_sha256"):
                tapes[name][key]["match"] = tapes[name][key]["parent"] == tapes[name][key]["change"]
        tapes[name].update(sweeps[name])
    init_params = {
        name: {**{side: inits[side][name] for side in SIDES}, "match": inits["parent"][name] == inits["change"][name]}
        for name in inits["parent"]
    }
    return {
        "sweep_rounds": ROUNDS,
        "codegen_rounds": GEN_ROUNDS,
        "tapes": tapes,
        "sweep_order": sweep_order,
        "init_params_sha256": init_params,
        "build_ms": builds,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--out", required=True)
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tapes", action="store_true")
    parser.add_argument("--section")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")
    dirs = {"parent": args.parent, "change": args.change}
    record = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            record = json.load(fh)
    record.update(command="python3 perfbench/run.py --workload <w> --seed <s>", host=f"{os.cpu_count()} CPUs")
    table = metric_table(args.parent)
    target = record if args.section is None else record.setdefault(args.section, {})
    target["checkouts"] = {side: checkout(dirs[side]) for side in SIDES}
    for workload in args.workload:
        result = run_pairs(dirs, workload, args.seed, args.pairs, table, args.trace)
        target.setdefault("traced" if args.trace else "pairs", {})[f"{workload} seed {args.seed}"] = result
    if args.tapes:
        target["tapes"] = run_tapes(dirs)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
