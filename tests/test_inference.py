import dis
import gc
import json
import math
import os
import re
import subprocess
import sys
import types
import weakref

import numpy as np
import pytest

from convexvi import autodiff, inference
from convexvi.autodiff import ADD, INPUT, NEG, SUB, DomainError, value_of
from convexvi.distributions import (
    HALF_NORMAL,
    LOG_NORMAL,
    NORMAL,
    ParameterError,
    draw_noise,
    unconstrain_param,
)
from convexvi.inference import (
    _DIVERGENCE,
    AdamState,
    CompiledElbo,
    NonFiniteError,
    TrainConfig,
    adam_step,
    elbo_estimate,
    elbo_gradient,
    fit,
    save_trajectory,
    surrogate_moments,
)
from convexvi.model import ModelError, build_joint, condition, rv
from convexvi.oracles import (
    ChainConfig,
    LinearGaussianChainSpec,
    enumerate_discrete_posterior,
    exact_discrete_elbo_gradient,
    kalman_filter_smoother,
)
from convexvi.distributions import BERNOULLI
from convexvi.surrogates import SURROGATES, ConvexUpdateProgram, build_surrogate
from convexvi.tasks import TASK_IDS, generate_data, get_task
from test_distributions import scalar_draws


def conjugate_pair(y=2.0):
    m = build_joint(
        [
            rv("x", NORMAL, params=(0.0, 1.0)),
            rv("y", NORMAL, parents=("x",), link=lambda x: (x, 1.0)),
        ]
    )
    return condition(m, {"y": y})


def brownian(T=8, q=0.01, r=0.04, seed=0):
    sq, sr = math.sqrt(q), math.sqrt(r)
    mask = [t < T // 2 for t in range(T)]
    nodes = [rv("x_0", NORMAL, params=(0.0, sq))]
    for t in range(1, T):
        nodes.append(rv(f"x_{t}", NORMAL, parents=(f"x_{t-1}",), link=lambda p: (p, sq)))
    for t in range(T):
        if mask[t]:
            nodes.append(rv(f"y_{t}", NORMAL, parents=(f"x_{t}",), link=lambda p: (p, sr)))
    rng = np.random.default_rng(seed)
    obs = {f"y_{t}": float(rng.normal(0, 0.2)) for t in range(T) if mask[t]}
    model = condition(build_joint(nodes), obs)
    spec = LinearGaussianChainSpec(
        init_mean=0.0,
        init_var=q,
        transition=[1.0] * (T - 1),
        innovation_var=[q] * (T - 1),
        obs_var=[r] * T,
        mask=mask,
    )
    kalman = kalman_filter_smoother(spec, {t: obs[f"y_{t}"] for t in range(T) if mask[t]})
    return model, kalman


def test_elbo_zero_when_q_is_prior():
    m = build_joint(
        [
            rv("a", NORMAL, params=(0.3, 1.2)),
            rv("b", LOG_NORMAL, parents=("a",), link=lambda a: (a, 0.7)),
        ]
    )
    m = condition(m, {})
    asvi = build_surrogate("asvi", m)
    params = asvi.init_params.copy()
    for name, idx in asvi.param_index.items():
        if name.endswith(".lam_logit"):
            params[idx] = 40.0
    est = elbo_estimate(m, asvi, params, n_samples=50, seed=0)
    assert est.per_sample_terms == (0.0,) * 50


def test_elbo_at_exact_posterior_equals_log_evidence():
    m = conjugate_pair(y=2.0)
    mf = build_surrogate("mean-field", m)
    params = mf.init_params.copy()
    params[mf.param_index["x.loc.alpha"]] = 1.0
    params[mf.param_index["x.scale.alpha"]] = unconstrain_param("positive", math.sqrt(0.5))
    log_evidence = -0.5 * math.log(4 * math.pi) - 1.0
    est = elbo_estimate(m, mf, params, n_samples=100, seed=3)
    # log p - log q is constant (= log Z) when q is the exact posterior
    assert est.value == pytest.approx(log_evidence, abs=1e-9)
    assert np.std(est.per_sample_terms) < 1e-9


def test_elbo_bounded_by_kalman_evidence():
    model, kalman = brownian(seed=2)
    asvi = build_surrogate("asvi", model, init_seed=1)
    est = elbo_estimate(model, asvi, asvi.init_params, n_samples=2000, seed=5)
    se = np.std(est.per_sample_terms) / math.sqrt(est.n_samples)
    assert est.value <= kalman.log_evidence + 3 * se


def test_elbo_estimate_rejects_bad_sample_count():
    m = conjugate_pair()
    mf = build_surrogate("mean-field", m)
    with pytest.raises(ValueError):
        elbo_estimate(m, mf, mf.init_params, n_samples=0)


def test_surrogate_moments_rejects_bad_sample_count():
    # an SD (ddof 1) of one sample is undefined: one sample gave NaN SDs
    # and a numpy warning
    mf = build_surrogate("mean-field", conjugate_pair())
    for n in (0, 1):
        with pytest.raises(ValueError, match=f"n_samples must be >= 2, got {n}$"):
            surrogate_moments(mf, mf.init_params, n_samples=n)
    means, sds = surrogate_moments(mf, mf.init_params, n_samples=2)
    assert all(map(math.isfinite, list(means.values()) + list(sds.values())))


@pytest.mark.parametrize("n_samples", [True, 2.0, np.float64(3.0), "4", None])
def test_sample_counts_must_be_integers(n_samples):
    # a bool or a float count failed deep in numpy with a TypeError, or
    # ran (True as one sample)
    m = conjugate_pair()
    mf = build_surrogate("mean-field", m)
    for call in (
        lambda: elbo_estimate(m, mf, mf.init_params, n_samples=n_samples),
        lambda: elbo_gradient(m, mf, mf.init_params, n_samples=n_samples),
        lambda: surrogate_moments(mf, mf.init_params, n_samples=n_samples),
    ):
        with pytest.raises(ValueError, match="n_samples must be an integer"):
            call()
    # numpy integers are counts
    assert elbo_estimate(m, mf, mf.init_params, n_samples=np.int64(2)).n_samples == 2


def test_elbo_nonfinite_raises_diagnostic():
    m = build_joint(
        [
            rv("s", LOG_NORMAL, params=(0.0, 1.0)),
            rv("x", NORMAL, parents=("s",), link=lambda s: (0.0, s)),
        ]
    )
    m = condition(m, {"x": 0.5})
    asvi = build_surrogate("asvi", m)
    params = asvi.init_params.copy()
    params[asvi.param_index["s.loc.alpha"]] = 1000.0  # exp overflow -> inf sample
    params[asvi.param_index["s.loc.lam_logit"]] = -40.0
    with pytest.raises(NonFiniteError):
        elbo_estimate(m, asvi, params, n_samples=4, seed=0)


def central_diff_gradient(model, surrogate, params, n_samples, seed, h=1e-5):
    grad = np.zeros(len(params))
    for i in range(len(params)):
        hi = np.array(params, dtype=float)
        lo = hi.copy()
        hi[i] += h
        lo[i] -= h
        f_hi = elbo_estimate(model, surrogate, hi, n_samples, seed).value
        f_lo = elbo_estimate(model, surrogate, lo, n_samples, seed).value
        grad[i] = (f_hi - f_lo) / (2 * h)
    return grad


def test_gradient_matches_common_random_number_differences():
    model, _ = brownian(T=5, seed=3)
    asvi = build_surrogate("asvi", model, init_seed=2)
    rng = np.random.default_rng(0)
    for trial in range(3):
        params = asvi.init_params + 0.1 * rng.standard_normal(asvi.num_params)
        g = elbo_gradient(model, asvi, params, n_samples=2, seed=17 + trial)
        fd = central_diff_gradient(model, asvi, params, n_samples=2, seed=17 + trial)
        rel = np.abs(g - fd) / np.maximum(1.0, np.abs(g))
        assert rel.max() < 1e-4


def test_gradient_zero_for_unused_direction():
    # mean-field alpha of an unobserved, childless node enters log p and
    # log q with exactly cancelling pathwise terms at lam=0 ... but a
    # *separate* frozen surrogate parameter must have exactly zero grad.
    model = conjugate_pair()
    asvi = build_surrogate("asvi", model)
    g = elbo_gradient(model, asvi, asvi.init_params, n_samples=1, seed=0)
    assert g.shape == (asvi.num_params,)


def draw(surrogate, n_samples, rng):
    return draw_noise(surrogate.noise_spec, n_samples, rng)


@pytest.mark.parametrize("kind", ["asvi", "mean-field", "ar1", "mvn"])
@pytest.mark.parametrize("task_id", TASK_IDS)
def test_replay_is_bit_identical_to_recording(task_id, kind):
    task = get_task(task_id)
    model = task.model
    if not task.is_pre_conditioned:
        model = condition(model, generate_data(task, seed=1)[0])
    surrogate = build_surrogate(kind, model, init_seed=1)
    for n_samples in (1, 2):
        params = surrogate.init_params.copy()
        recorded_at = draw(surrogate, n_samples, np.random.default_rng(99))
        graph = CompiledElbo(model, surrogate, params, recorded_at)
        assert graph.replayable
        tape = graph.tape
        for seed in range(3):
            draws = draw(surrogate, n_samples, np.random.default_rng(seed))
            value, grad = graph.replay(params, draws)
            fresh = CompiledElbo(model, surrogate, params, draws)
            assert fresh.replayable
            ft = fresh.tape
            assert (ft.ops, ft.p1, ft.p2, ft.aux) == (tape.ops, tape.p1, tape.p2, tape.aux)
            assert value == fresh.value
            assert grad.tobytes() == fresh.gradient().tobytes()
            g = elbo_gradient(model, surrogate, params, n_samples, seed=seed)
            assert grad.tobytes() == g.tobytes()
            # a node divided by b is a * (1 / b) on the tape, a / b on floats
            est = elbo_estimate(model, surrogate, params, n_samples, seed=seed)
            assert value == pytest.approx(est.value)
            params = params + 0.01 * np.tanh(grad)


def test_replay_rejects_inputs_of_another_length():
    task = get_task("br")
    model = condition(task.model, generate_data(task, seed=1)[0])
    surrogate = build_surrogate("asvi", model, init_seed=1)
    params = surrogate.init_params
    graph = CompiledElbo(model, surrogate, params, draw(surrogate, 2, np.random.default_rng(1)))
    size = len(graph.tape.vals)
    # unchecked, one sample's draws shrank the tape and replay raised IndexError
    with pytest.raises(ValueError, match="noise entries"):
        graph.replay(params, draw(surrogate, 1, np.random.default_rng(2)))
    with pytest.raises(ValueError, match="params"):
        graph.replay(params[:-1], draw(surrogate, 2, np.random.default_rng(2)))
    assert len(graph.tape.vals) == size
    draws = draw(surrogate, 2, np.random.default_rng(3))
    value, grad = graph.replay(params, draws)
    fresh = CompiledElbo(model, surrogate, params, draws)
    assert value == fresh.value
    assert grad.tobytes() == fresh.gradient().tobytes()


def first_step_model(task_id, kind):
    """The model and surrogate of a fit at seed 1."""
    task = get_task(task_id)
    model = task.model
    if not task.is_pre_conditioned:
        model = condition(model, generate_data(task, seed=1)[0])
    return model, build_surrogate(kind, model, init_seed=1)


def first_step_graph(task_id, kind, n_samples=1):
    """The ELBO graph of a fit's first step, at one sample by default."""
    model, surrogate = first_step_model(task_id, kind)
    draws = draw(surrogate, n_samples, np.random.default_rng(1))
    return CompiledElbo(model, surrogate, surrogate.init_params, draws)


def literal_code(lines, slots, args):
    """The code object a compile() of a chunk gives with each slot's
    value written in its place as a literal (its repr)."""

    def value(match):
        text = match.group(0)
        k = int(text[:-4]) - 1 if text.endswith("e300") else int(text) - autodiff._INDEX_SLOT
        return repr(slots[k])

    body = [re.sub(r"\b\d+e300\b|\b9000000\d{6}\b", value, line) for line in lines] or ["pass"]
    namespace = {}
    exec(compile(f"def chunk({args}):\n    " + "\n    ".join(body) + "\n", "<literal>", "exec"), namespace)
    return namespace["chunk"].__code__


def instructions(code):
    return [(i.opname, repr(i.argval)) for i in dis.get_instructions(code)]


@pytest.mark.parametrize("kind", ["asvi", "mean-field", "ar1", "mvn"])
@pytest.mark.parametrize("task_id", TASK_IDS)
def test_every_chunk_runs_the_bytecode_of_its_literal_source(task_id, kind, monkeypatch):
    # a chunk's function is its shape's code with the chunk's values bound
    # in as constants; it runs what compiling the values in would give
    generate, made = autodiff._generate, []

    def keep(described, render, args):
        described = list(described)
        chunks = generate(described, render, args)
        bodies = [(render(key), slots) for key, slots in described]
        made.extend(zip(bodies, [args] * len(bodies), chunks))
        return chunks

    monkeypatch.setattr(autodiff, "_generate", keep)
    autodiff.clear_code_cache()
    graph = first_step_graph(task_id, kind)
    graph.tape.forward()
    graph.gradient()
    assert {args for _, args, _ in made} == {"v, d1, d2", "g, v, d1, d2"}
    # every function binds values, more than one for every two nodes
    assert min(len(slots) for (_, slots), _, _ in made) > 0
    assert sum(len(slots) for (_, slots), _, _ in made) > len(graph.tape) // 2
    for (lines, slots), args, chunk in made:
        assert instructions(chunk.__code__) == instructions(literal_code(lines, slots, args))


STORE = re.compile(r"v\[(\d+)\] = ")
READ = re.compile(r"\bv\[(\d+)\]")


@pytest.mark.parametrize(
    "task_id, kind, n_samples",
    [(task_id, kind, 1) for task_id in TASK_IDS for kind in SURROGATES] + [("es", kind, 8) for kind in SURROGATES],
)
def test_the_forward_sweep_stores_only_values_read_again(task_id, kind, n_samples, monkeypatch):
    # a value goes into `vals` only if a later forward function, the
    # reverse sweep (for the parameters or for every input) or a caller (a
    # sink, such as the objective) reads it there: lz x asvi wrote 3562
    # values and read 973 of them again.  Every line reads an input or a
    # stored value, the other entries are NaN after `forward`, and the
    # objective and gradient are a fresh recording's, in bits.
    generated = []
    generate = autodiff._generate

    def keep(described, render, args):
        described = list(described)
        generated.extend((args, render(key), slots) for key, slots in described)
        return generate(described, render, args)

    monkeypatch.setattr(autodiff, "_generate", keep)
    model, surrogate = first_step_model(task_id, kind)
    params = surrogate.init_params
    graph = CompiledElbo(model, surrogate, params, draw(surrogate, n_samples, np.random.default_rng(1)))
    draws = draw(surrogate, n_samples, np.random.default_rng(2))
    value, grad = graph.replay(params, draws)
    tape = graph.tape
    tape.backward(graph.objective)
    fresh = CompiledElbo(model, surrogate, params, draws)
    assert repr(value) == repr(fresh.tape.vals[fresh.objective.i])
    assert grad.tobytes() == fresh.gradient().tobytes()  # a fresh tape sweeps with the loop

    def named(lines, slots):
        """The nodes whose `v` entries the lines store, and those they read."""
        stores, reads = set(), set()
        for line in lines:
            m = STORE.match(line)
            if m:
                stores.add(slots[int(m[1]) - autodiff._INDEX_SLOT])
            reads.update(slots[int(r[1]) - autodiff._INDEX_SLOT] for r in READ.finditer(line, m.end() if m else 0))
        return stores, reads

    forward = [named(lines, slots) for args, lines, slots in generated if args == "v, d1, d2"]
    stores, reads = [s for s, _ in forward], [r for _, r in forward]
    reverse = set().union(*(named(lines, slots)[1] for args, lines, slots in generated if args != "v, d1, d2"))
    read_by_nodes = {p for p in tape.p1 + tape.p2 if p >= 0}
    for f, stored in enumerate(stores):
        read_again = set().union(reverse, *reads[f + 1 :])
        assert all(i in read_again or i not in read_by_nodes for i in stored)
    inputs, stored = set(range(graph.n_inputs)), set().union(*stores)
    assert set().union(reverse, *reads) <= inputs | stored
    assert all(math.isnan(tape.vals[i]) for i in range(len(tape)) if i not in inputs | stored)
    assert len(stored) < len(tape) - graph.n_inputs


PURE_OPS = (autodiff.ADD, autodiff.SUB, autodiff.RSUB, autodiff.MUL, autodiff.NEG)


@pytest.mark.parametrize("task_id, kind", [(task_id, kind) for task_id in TASK_IDS for kind in SURROGATES])
def test_the_forward_sweep_names_a_sum_or_product_only_where_it_is_kept(task_id, kind, monkeypatch):
    # a sum, difference, negation or product that is not stored and that
    # its function reads once is written into its reader; a local that
    # such an op assigns is stored or read twice or more.  No line copies
    # a local into the operand `a`.
    functions = []
    describe = autodiff._describe_forward

    def keep(tape, nodes, first, stored):
        key, slots = describe(tape, nodes, first, stored)
        functions.append((tape, nodes, first, stored, autodiff._render_forward(key)))
        return key, slots

    monkeypatch.setattr(autodiff, "_describe_forward", keep)
    first_step_graph(task_id, kind).tape.forward()
    assert functions
    inlined = 0
    for tape, nodes, first, stored, lines in functions:
        text = "\n".join(lines)
        locals_ = set()
        for line in lines:
            assert not re.fullmatch(r"a = x\d+", line), line
            *targets, _ = line.split(" = ")
            for target in targets:
                if re.fullmatch(r"x\d+", target):
                    locals_.add(nodes[0] + int(target[1:]))
                    if tape.ops[nodes[0] + int(target[1:])] in PURE_OPS:
                        reads = len(re.findall(rf"\b{target}\b", text)) - 1
                        assert targets[0].startswith("v[") or reads >= 2, line
        pure = [i for i in nodes if tape.ops[i] in PURE_OPS and first[i] == i]
        inlined += sum(not stored[i] and i not in locals_ for i in pure)
    assert inlined > 0


CUTS = """
import json
import numpy as np
from convexvi import autodiff
from convexvi.distributions import draw_noise
from convexvi.inference import CompiledElbo
from convexvi.surrogates import build_surrogate
from convexvi.tasks import get_task
model = get_task("es").model
surrogate = build_surrogate("asvi", model, init_seed=1)
draws = draw_noise(surrogate.noise_spec, 8, np.random.default_rng(1))
tape = CompiledElbo(model, surrogate, surrogate.init_params, draws).tape
nodes = [i for i in range(len(tape)) if tape.p1[i] >= 0]
print(json.dumps([list(map(len, autodiff._chunks(tape, order))) for order in (nodes, nodes[::-1])]))
"""


def test_cuts_do_not_depend_on_the_hash_seed():
    # a cut hashes int tuples only, whose hashes no PYTHONHASHSEED changes
    src = os.path.dirname(os.path.dirname(autodiff.__file__))
    cuts = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", CUTS], env=env, capture_output=True, text=True, check=True)
        cuts.append(json.loads(out.stdout))
    assert cuts[0] == cuts[1]
    for sizes in cuts[0]:
        assert max(sizes) <= autodiff.REPLAY_CHUNK and min(sizes[:-1]) >= autodiff.CUT_MIN
        assert any(size < autodiff.REPLAY_CHUNK for size in sizes[:-1])  # anchors cut


def test_cuts_follow_the_graph_not_its_constants():
    # br x asvi records the same graph at another data seed, with other
    # constants; its chunks start at the same nodes
    tapes = []
    for seed in (1, 2):
        task = get_task("br")
        model = condition(task.model, generate_data(task, seed=seed)[0])
        surrogate = build_surrogate("asvi", model, init_seed=seed)
        draws = draw(surrogate, 1, np.random.default_rng(seed))
        tapes.append(CompiledElbo(model, surrogate, surrogate.init_params, draws).tape)
    a, b = tapes
    assert (a.ops, a.p1, a.p2) == (b.ops, b.p1, b.p2) and a.aux != b.aux
    nodes = [i for i in range(len(a)) if a.p1[i] >= 0]
    for order in (nodes, nodes[::-1]):
        assert list(autodiff._chunks(a, order)) == list(autodiff._chunks(b, order))


def test_the_samples_of_a_wide_tape_share_their_shapes():
    # es x asvi at 8 samples repeats one pattern per sample: cut where the
    # pattern repeats, its 83 chunks compile 25 shapes (83 at fixed cuts of
    # 64 nodes).  A cut that loses the pattern's alignment shows here.
    autodiff.clear_code_cache()
    model = get_task("es").model
    surrogate = build_surrogate("asvi", model, init_seed=1)
    graph = CompiledElbo(model, surrogate, surrogate.init_params, draw(surrogate, 8, np.random.default_rng(1)))
    graph.tape.forward()
    graph.gradient()
    replay = graph.tape._replay
    functions = len(replay.forward) + sum(map(len, replay._backward.values()))
    assert functions > 80 and len(autodiff._CODE) <= 30, (functions, len(autodiff._CODE))


def test_a_chunk_function_does_not_outlive_its_tape():
    # the cache keeps shapes only; a tape's functions are held by its
    # replay and freed with it
    autodiff.clear_code_cache()
    graph = first_step_graph("br", "asvi")
    graph.tape.forward()
    graph.gradient()
    chunk = weakref.ref(graph.tape._replay.forward[0])
    frontier, reached = list(autodiff._CODE.values()), []
    for _ in range(3):  # the shapes' fields, and what those hold
        frontier = [r for r in gc.get_referents(*frontier) if not isinstance(r, type)]
        reached += frontier
    assert chunk() is not None and reached
    assert not [r for r in reached if isinstance(r, types.FunctionType)]
    del graph
    gc.collect()
    assert chunk() is None


@pytest.mark.parametrize("kind", ["asvi", "mean-field", "ar1", "mvn"])
@pytest.mark.parametrize("task_id", TASK_IDS)
def test_every_recorded_node_reaches_the_objective(task_id, kind):
    # a dead node costs every replayed forward and backward sweep, and
    # replay keeps it, since dropping it would drop its domain checks
    graph = first_step_graph(task_id, kind)
    tape = graph.tape
    live = [False] * len(tape)
    live[graph.objective.i] = True
    for i in reversed(range(len(tape))):
        if live[i]:
            for p in (tape.p1[i], tape.p2[i]):
                if p >= 0:
                    live[p] = True
    dead = [i for i, op in enumerate(tape.ops) if op != INPUT and not live[i]]
    assert dead == []


@pytest.mark.parametrize("kind", list(SURROGATES))
@pytest.mark.parametrize("task_id", TASK_IDS)
def test_the_reverse_sweep_computes_the_parameter_adjoints_alone(task_id, kind, monkeypatch):
    # the gradient reads the first P adjoints, so the sweep adds no term
    # into a noise input and gives no line to a node that no parameter
    # reaches (a log N(eps) term): br x mvn added 525 terms into its 30
    # noise inputs and swept 90 such nodes.  Asked for every input, the
    # sweep still gives each one's adjoint, as the loop over a fresh
    # recording does.
    swept, bodies = [], []
    generate, describe = autodiff._generate, autodiff._describe_backward

    def keep_bodies(described, render, args):
        described = list(described)
        bodies.extend((render(key), slots) for key, slots in described)
        return generate(described, render, args)

    def keep_nodes(tape, nodes, *rest):
        swept.extend(nodes)
        return describe(tape, nodes, *rest)

    monkeypatch.setattr(autodiff, "_generate", keep_bodies)
    monkeypatch.setattr(autodiff, "_describe_backward", keep_nodes)
    for n_samples in (1, 8) if task_id == "es" else (1,):
        graph = first_step_graph(task_id, kind, n_samples)
        tape, P = graph.tape, graph.n_params
        everything = tape.backward(graph.objective)  # a fresh tape: the loop
        tape.forward()
        swept.clear()
        bodies.clear()
        grad = graph.gradient()
        reached = [False] * len(tape)
        for i in range(len(tape)):
            j, k = tape.p1[i], tape.p2[i]
            reached[i] = i < P if j < 0 else reached[j] or (k >= 0 and reached[k])
        named = {
            slots[int(m[1]) - autodiff._INDEX_SLOT]
            for lines, slots in bodies
            for line in lines
            for m in re.finditer(r"\bg\[(\d+)\]", line)
        }
        assert swept and all(reached[i] for i in swept)
        assert {i for i in named if tape.ops[i] == INPUT} <= set(range(P))
        assert graph.n_inputs > P and list(map(repr, grad.tolist())) == list(map(repr, everything[:P]))
        full = tape.backward(graph.objective)
        inputs = range(graph.n_inputs)
        assert [repr(full[i]) for i in inputs] == [repr(everything[i]) for i in inputs]
        assert any(full[i] != 0.0 for i in range(P, graph.n_inputs))


@pytest.mark.parametrize("kind", ["asvi", "mean-field", "ar1", "mvn"])
@pytest.mark.parametrize("task_id", TASK_IDS)
def test_replay_calls_no_python_helper(task_id, kind):
    # every op of a replayed step is bytecode or a C function: with the
    # sigmoid and softplus helpers inline, lz x asvi's forward sweep took
    # 0.88 of the time.  `_exp` turns an overflow into inf, which needs a
    # statement
    tape = first_step_graph(task_id, kind).tape
    tape.forward()
    loaded = {
        ins.argval
        for chunk in tape._replay.forward
        for ins in dis.get_instructions(chunk)
        if ins.opname == "LOAD_GLOBAL"
    }
    allowed = {"_domain_error", "_exp", "inf", "nan"}
    helpers = {
        name
        for name in loaded - allowed
        if not isinstance(autodiff._REPLAY_GLOBALS[name], types.BuiltinFunctionType)
    }
    assert helpers == set()


@pytest.mark.parametrize("kind", ["asvi", "mean-field", "ar1", "mvn"])
@pytest.mark.parametrize("task_id", TASK_IDS)
def test_every_subtraction_is_one_node(task_id, kind):
    # `a - b` once recorded a NEG node whose only child was the next ADD:
    # 700 of lz x asvi's 4262 op nodes, each replayed at every step
    tape = first_step_graph(task_id, kind).tape
    children = [[] for _ in tape.ops]
    for i in range(len(tape)):
        for p in {tape.p1[i], tape.p2[i]} - {-1}:
            children[p].append(i)
    negate_then_add = [
        i for i, op in enumerate(tape.ops) if op == NEG and children[i] == [i + 1] and tape.ops[i + 1] == ADD
    ]
    assert negate_then_add == []
    assert SUB in tape.ops


# numpy's warning for the SD of samples holding inf
SD_WARNINGS = pytest.mark.filterwarnings("ignore:invalid value encountered")


def reference_samples(model, surrogate, params, n_samples, seed):
    """The per-sample loop: scalar noise draws (`scalar_draws`),
    `sample_and_log_prob` and, with a model, `joint_log_prob` on floats,
    one sample at a time.  Returns (values, terms), one float array per
    latent and the ELBO terms."""
    noise = scalar_draws(surrogate.noise_spec, n_samples, np.random.default_rng(seed)).tolist()
    params = [float(p) for p in params]
    values = {name: np.empty(n_samples) for name in surrogate.latent_names}
    terms = np.empty(n_samples)
    for s in range(n_samples):
        sample, log_q, _ = surrogate.sample_and_log_prob(params, noise[s])
        for name in values:
            values[name][s] = value_of(sample[name])
        if model is not None:
            terms[s] = inference.joint_log_prob(model, sample) - log_q
    return values, terms


def assert_batch_is_the_loop(model, surrogate, params, n_samples, seed):
    """`elbo_estimate` and `surrogate_moments` equal the per-sample loop
    in bytes; a non-finite term raises `NonFiniteError` naming the first
    such sample."""
    values, terms = reference_samples(model, surrogate, params, n_samples, seed)
    bad = np.flatnonzero(~np.isfinite(terms))
    if len(bad):
        with pytest.raises(NonFiniteError, match=f"at sample {bad[0]}$"):
            elbo_estimate(model, surrogate, params, n_samples, seed=seed)
    else:
        est = elbo_estimate(model, surrogate, params, n_samples, seed=seed)
        assert np.array(est.per_sample_terms).tobytes() == terms.tobytes()
        assert all(type(t) is float for t in est.per_sample_terms)
        assert est.value == float(np.mean(terms.tolist()))
    if n_samples < 2:  # no SD of one sample
        with pytest.raises(ValueError, match="n_samples must be >= 2"):
            surrogate_moments(surrogate, params, n_samples, seed=seed)
        return
    means, sds = surrogate_moments(surrogate, params, n_samples, seed=seed)
    assert list(means) == list(sds) == list(surrogate.latent_names)
    for name, v in values.items():
        assert np.float64(means[name]).tobytes() == v.mean().tobytes(), name
        assert np.float64(sds[name]).tobytes() == v.std(ddof=1).tobytes(), name


def count_loops(monkeypatch):
    """A list that gets one entry per batch evaluated one sample at a
    time: per `over_rows` call that gives its `run` a row of floats."""
    calls = []
    over_rows = inference.over_rows

    def counted(kinds, noise, run, keys):
        on_floats = []

        def watched(eps):
            on_floats.append(not any(isinstance(e, np.ndarray) for e in eps))
            return run(eps)

        try:
            return over_rows(kinds, noise, watched, keys)
        finally:
            if any(on_floats):
                calls.append(1)

    monkeypatch.setattr(inference, "over_rows", counted)
    return calls


@pytest.mark.parametrize("kind", ["asvi", "mean-field", "ar1", "mvn"])
@pytest.mark.parametrize("task_id", TASK_IDS)
@SD_WARNINGS
def test_batch_is_bit_identical_to_the_per_sample_loop(task_id, kind, monkeypatch):
    task = get_task(task_id)
    model = task.model
    if not task.is_pre_conditioned:
        model = condition(model, generate_data(task, seed=1)[0])
    result = fit(model, kind, TrainConfig(steps=50, seed=1, window=0))
    assert not result.diverged
    loops = count_loops(monkeypatch)
    for n_samples, seed in ((1, 3), (2, 4), (257, 5)):
        assert_batch_is_the_loop(model, result.surrogate, result.params, n_samples, seed)
    assert not loops  # every pass ran on arrays


@pytest.mark.parametrize("edge, seed", [("underflow", 104), ("overflow", 119)])
@SD_WARNINGS
def test_one_lognormal_sample_off_the_float_range(edge, seed, monkeypatch):
    # the model of `test_elbo_nonfinite_raises_diagnostic`; at these seeds
    # three draws hold one far below (104) or above (119) the other two,
    # so s = exp(loc + scale * eps) can put that sample alone out of the
    # float range, 0 (outside the support, and a zero scale for x) or
    # inf, with the other two near 1
    m = build_joint(
        [
            rv("s", LOG_NORMAL, params=(0.0, 1.0)),
            rv("x", NORMAL, parents=("s",), link=lambda s: (0.0, s)),
        ]
    )
    m = condition(m, {"x": 0.5})
    mf = build_surrogate("mean-field", m)
    eps = scalar_draws(mf.noise_spec, 3, np.random.default_rng(seed))[:, 0]
    k = int(np.argmin(eps) if edge == "underflow" else np.argmax(eps))
    others = np.delete(eps, k)
    assert k > 0 and np.ptp(others) < 0.005 * np.min(np.abs(others - eps[k]))
    scale = 800.0 / np.min(np.abs(others - eps[k]))
    params = mf.init_params.copy()
    params[mf.param_index["s.scale.alpha"]] = unconstrain_param("positive", scale)
    params[mf.param_index["s.loc.alpha"]] = -scale * others.mean()
    loops = count_loops(monkeypatch)
    values, terms = reference_samples(m, mf, params, 3, seed)
    assert values["s"][k] == (0.0 if edge == "underflow" else math.inf)
    assert np.flatnonzero(~np.isfinite(terms)).tolist() == [k]
    # the model's density of that sample is 0, so the batch runs the loop
    with pytest.raises(NonFiniteError, match=f"non-finite ELBO term nan at sample {k}$"):
        elbo_estimate(m, mf, params, 3, seed=seed)
    assert len(loops) == 1
    # the moment pass checks no density of the model: it keeps the sample
    # as drawn; q's own density of s = 0 is 0 (the loop again), of s = inf
    # it is -inf (the arrays)
    means, _ = surrogate_moments(mf, params, 3, seed=seed)
    assert means["s"] == values["s"].mean()
    moment_loops = 1 if edge == "underflow" else 0
    assert len(loops) == 1 + moment_loops
    assert_batch_is_the_loop(m, mf, params, 3, seed)
    assert len(loops) == 2 * (1 + moment_loops)


def test_one_non_positive_link_scale_goes_to_the_per_sample_loop(monkeypatch):
    m = build_joint(
        [
            rv("s", NORMAL, params=(0.3, 0.3)),
            rv("y", NORMAL, parents=("s",), link=lambda s: (0.0, s)),
        ]
    )
    m = condition(m, {"y": 0.1})
    mf = build_surrogate("mean-field", m)
    n, seed = 16, 0
    eps = scalar_draws(mf.noise_spec, n, np.random.default_rng(seed))[:, 0]
    k = int(np.argmin(eps))
    assert k > 0
    params = mf.init_params.copy()
    params[mf.param_index["s.scale.alpha"]] = unconstrain_param("positive", 1.0)
    # s = loc + eps: only the smallest draw gives a negative scale for y
    params[mf.param_index["s.loc.alpha"]] = -(eps[k] + np.sort(eps)[1]) / 2
    with pytest.raises(ParameterError) as loop_error:
        reference_samples(m, mf, params, n, seed)
    loops = count_loops(monkeypatch)
    with pytest.raises(ParameterError) as batch_error:
        elbo_estimate(m, mf, params, n, seed=seed)
    assert str(batch_error.value) == str(loop_error.value)
    assert "Normal requires scale > 0, got -" in str(loop_error.value)
    assert len(loops) == 1  # the array pass raised, and the loop raised again
    # q alone never reads y's scale
    means, _ = surrogate_moments(mf, params, n, seed=seed)
    assert means["s"] == reference_samples(None, mf, params, n, seed)[0]["s"].mean()
    assert len(loops) == 1


def reciprocal_link_model(c):
    """x's loc is 1 / (s - c): a zero division where a sample of s is c."""
    m = build_joint(
        [
            rv("s", NORMAL, params=(0.0, 1.0)),
            rv("x", NORMAL, parents=("s",), link=lambda s: (1.0 / (s - c), 1.0)),
            rv("y", NORMAL, parents=("x",), link=lambda x: (x, 1.0)),
        ]
    )
    return condition(m, {"y": 0.3})


def test_a_link_dividing_by_zero_at_one_sample_raises_as_the_loop_does():
    # c is sample 2 of s, which asvi draws from s's prior whatever c is
    probe = build_surrogate("asvi", reciprocal_link_model(0.5))
    values, _ = inference.sample_batch(probe, probe.init_params, 5, np.random.default_rng(0))
    model = reciprocal_link_model(float(values["s"][2]))
    asvi = build_surrogate("asvi", model)
    with pytest.raises(ZeroDivisionError) as loop_error:
        reference_samples(model, asvi, asvi.init_params, 5, 0)
    # q alone runs x's link too, so the moments meet the division
    with pytest.raises(ZeroDivisionError) as moments_error:
        surrogate_moments(asvi, asvi.init_params, 5, seed=0)
    with pytest.raises(ZeroDivisionError) as elbo_error:
        elbo_estimate(model, asvi, asvi.init_params, 5, seed=0)
    assert str(moments_error.value) == str(elbo_error.value) == str(loop_error.value)


def test_the_first_bad_link_scale_in_sample_order_is_reported():
    # the arrays meet node b's bad scale (sample 2) before node c's, the
    # loop meets sample 0's bad scale at c first
    m = build_joint(
        [
            rv("s", NORMAL, params=(0.0, 1.0)),
            rv("b", NORMAL, parents=("s",), link=lambda s: (0.0, 1.0 - s)),
            rv("c", NORMAL, parents=("s",), link=lambda s: (0.0, s + 1.5)),
        ]
    )
    m = condition(m, {"b": 0.1, "c": 0.1})
    mf = build_surrogate("mean-field", m)
    params = mf.init_params.copy()
    params[mf.param_index["s.loc.alpha"]] = 0.0
    params[mf.param_index["s.scale.alpha"]] = unconstrain_param("positive", 3.0)
    with pytest.raises(ParameterError) as loop_error:
        reference_samples(m, mf, params, 4, 4)
    with pytest.raises(ParameterError) as batch_error:
        elbo_estimate(m, mf, params, 4, seed=4)
    assert str(batch_error.value) == str(loop_error.value)
    assert str(loop_error.value) == "Normal requires scale > 0, got -0.4553734578350688"


@SD_WARNINGS
@pytest.mark.parametrize(
    "make_model, loops_expected",
    # uniform noise: every pass (no moments of one sample); y's link
    # reads x: the ELBOs only, as q never calls it
    [("two_bernoulli_model", 5), ("branching_link_model", 3)],
)
def test_programs_that_cannot_run_on_arrays_go_one_sample_at_a_time(
    make_model, loops_expected, monkeypatch
):
    model = globals()[make_model]()
    surrogate = build_surrogate("asvi", model)
    loops = count_loops(monkeypatch)
    for n_samples in (1, 2, 257):
        assert_batch_is_the_loop(model, surrogate, surrogate.init_params, n_samples, seed=n_samples)
    assert len(loops) == loops_expected


def mean_field_with_the_prior_link(model):
    """Mean-field as it was built before it skipped the prior link: the
    link runs for every latent and its output is dropped."""

    class CallsPriorLink(ConvexUpdateProgram):
        kind = "mean-field"

        def _node_params(self, node, entries, params, parent_values):
            node.params(parent_values)
            return super()._node_params(node, entries, params, parent_values)

    return CallsPriorLink(model, with_lam=False, init_seed=1)


def test_mean_field_records_no_prior_link():
    task = get_task("lz")
    model = condition(task.model, generate_data(task, seed=1)[0])
    mf = build_surrogate("mean-field", model, init_seed=1)
    old = mean_field_with_the_prior_link(model)
    assert mf.init_params.tobytes() == old.init_params.tobytes()
    draws = draw(mf, 1, np.random.default_rng(1))
    graph, old_graph = (CompiledElbo(model, q, mf.init_params, draws) for q in (mf, old))
    assert (len(graph.tape), len(old_graph.tape)) == (2526, 2932)
    assert graph.value == old_graph.value
    assert graph.gradient().tobytes() == old_graph.gradient().tobytes()
    cfg = TrainConfig(steps=120, seed=1, window=0, record_every=1)
    new_fit, old_fit = fit(model, mf, cfg), fit(model, old, cfg)
    assert new_fit.params.tobytes() == old_fit.params.tobytes()
    assert [l for _, l, _ in new_fit.trajectory] == [l for _, l, _ in old_fit.trajectory]


def branching_link_model():
    m = build_joint(
        [
            rv("x", NORMAL, params=(0.0, 1.0)),
            rv(
                "y",
                NORMAL,
                parents=("x",),
                link=lambda x: (x, 1.0) if value_of(x) > 0 else (-x, 3.0),
            ),
        ]
    )
    return condition(m, {"y": 0.5})


def recorded_fit(model, config, kind="asvi", init_params=None):
    """What `fit` does at the kind's default learning rate, recording the
    graph at every step and never stopping early: (params, losses,
    diverged)."""
    surrogate = build_surrogate(kind, model, init_seed=config.seed)
    rng = np.random.default_rng(config.seed)
    params = surrogate.init_params.copy() if init_params is None else np.array(init_params)
    state = AdamState.fresh(len(params), lr=SURROGATES[kind].lr)
    losses = []
    for _ in range(config.steps):
        try:
            graph = CompiledElbo(model, surrogate, params, draw(surrogate, config.n_samples, rng))
            value, grad = graph.value, graph.gradient()
        except _DIVERGENCE:
            return params, losses, True
        if not math.isfinite(value) or not np.all(np.isfinite(grad)):
            return params, losses, True
        losses.append(-value)
        state, params = adam_step(state, grad, params)
    return params, losses, False


def assert_fit_is_recorded(model, config, kind="asvi", init_params=None):
    """`fit` equals `recorded_fit` in bytes (`config.record_every` is 1);
    returns the fit."""
    result = fit(model, kind, config, init_params=init_params)
    params, losses, diverged = recorded_fit(model, config, kind, init_params)
    assert (result.diverged, result.steps_run) == (diverged, len(losses))
    assert result.params.tobytes() == params.tobytes()
    assert [loss for _, loss, _ in result.trajectory] == losses
    return result


def test_fit_stops_replaying_a_graph_that_changed():
    model = branching_link_model()
    surrogate = build_surrogate("asvi", model)
    graph = CompiledElbo(model, surrogate, surrogate.init_params, [[0.0, 0.0]])
    assert not graph.replayable  # the link reads x's value
    for seed in range(8):
        cfg = TrainConfig(steps=60, seed=seed, window=20, patience=100, record_every=1)
        assert_fit_is_recorded(model, cfg)


def count_recordings(monkeypatch):
    """A list that gets one entry per `CompiledElbo` that `fit` builds."""
    built = []

    class Counted(CompiledElbo):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(inference, "CompiledElbo", Counted)
    return built


def test_fit_keeps_replaying_a_fixed_graph(monkeypatch):
    model, _ = brownian(T=6, seed=5)
    built = count_recordings(monkeypatch)
    result = fit(model, "asvi", TrainConfig(steps=50, seed=1, window=10))
    assert result.steps_run == 50 and len(built) == 1


def test_discrete_graph_is_recorded_every_step(monkeypatch):
    model = two_bernoulli_model()
    surrogate = build_surrogate("asvi", model)
    rng = np.random.default_rng(0)
    assert not CompiledElbo(model, surrogate, surrogate.init_params, draw(surrogate, 1, rng)).replayable
    built = count_recordings(monkeypatch)
    fit(model, surrogate, TrainConfig(steps=20, seed=0, window=0))
    assert len(built) == 20


@pytest.mark.parametrize("n_samples", [1, 3])
def test_noise_drawn_in_blocks_is_the_noise_of_each_step(n_samples):
    # `fit` draws NOISE_BLOCK steps of noise at a time, uniform included;
    # the reference draws each step's noise on its own
    assert inference.NOISE_BLOCK < 150
    cfg = TrainConfig(steps=150, seed=3, n_samples=n_samples, window=0, record_every=1)
    assert_fit_is_recorded(two_bernoulli_model(), cfg)


def stopped_in_replay(model, config, kind, init_params=None):
    """A fit that equals `recorded_fit` and diverged after some replayed
    steps: (fit, its step-0 graph, the draws of the step that diverged)."""
    result = assert_fit_is_recorded(model, config, kind, init_params)
    assert result.diverged and result.steps_run > 1
    surrogate = result.surrogate
    rng = np.random.default_rng(config.seed)
    draws = [draw(surrogate, config.n_samples, rng) for _ in range(result.steps_run + 1)]
    start = surrogate.init_params if init_params is None else init_params
    return result, CompiledElbo(model, surrogate, start, draws[0]), draws[-1]


def test_scale_turning_non_positive_in_replay_stops_fit_as_recording():
    m = build_joint(
        [
            rv("s", NORMAL, params=(0.3, 0.3)),
            rv("y", NORMAL, parents=("s",), link=lambda s: (0.0, s)),
        ]
    )
    m = condition(m, {"y": 0.1})
    cfg = TrainConfig(steps=100, seed=0, window=0, record_every=1)
    result, graph, draws = stopped_in_replay(m, cfg, "mean-field")
    assert result.steps_run == 9
    with pytest.raises(ParameterError, match="scale > 0"):
        CompiledElbo(m, result.surrogate, result.params, draws)
    with pytest.raises(DomainError, match="log of non-positive"):
        graph.replay(result.params, draws)


def test_lognormal_underflow_in_replay_stops_fit_as_recording():
    m = build_joint(
        [
            rv("s", LOG_NORMAL, params=(0.0, 1.0)),
            rv("x", NORMAL, params=(0.0, 1.0)),
            rv("y", NORMAL, parents=("x",), link=lambda x: (x, 1.0)),
        ]
    )
    m = condition(m, {"y": 0.5})
    mf = build_surrogate("mean-field", m)
    start = mf.init_params.copy()
    start[mf.param_index["s.loc.alpha"]] = -650.0
    start[mf.param_index["s.scale.alpha"]] = unconstrain_param("positive", 60.0)
    cfg = TrainConfig(steps=100, seed=0, window=0, record_every=1)
    result, graph, draws = stopped_in_replay(m, cfg, "mean-field", start)
    values, _, _ = mf.sample_and_log_prob(list(result.params), draws[0])
    assert values["s"] == 0.0
    # recording takes log q and log p of s as -inf: the term is NaN
    assert math.isnan(CompiledElbo(m, result.surrogate, result.params, draws).value)
    with pytest.raises(DomainError, match="log of non-positive"):
        graph.replay(result.params, draws)


@pytest.mark.filterwarnings("ignore:overflow encountered")  # Adam squares gradients near 1e308
def test_log_density_overflow_in_replay_stops_fit_as_recording():
    m = build_joint(
        [
            rv("s", NORMAL, params=(0.0, 1.0)),
            rv("y", NORMAL, parents=("s",), link=lambda s: (s * 1e154, 1.0)),
        ]
    )
    m = condition(m, {"y": 0.0})
    for kind in ("asvi", "mean-field"):
        cfg = TrainConfig(steps=100, seed=0, window=0, record_every=1)
        result, graph, draws = stopped_in_replay(m, cfg, kind)
        recorded = CompiledElbo(m, result.surrogate, result.params, draws)
        assert recorded.value == -math.inf  # `_accumulate` stopped at y's -inf
        value, _ = graph.replay(result.params, draws)
        assert not math.isfinite(value)


def test_halfnormal_support_check_cannot_fail_in_replay():
    m = build_joint(
        [
            rv("t", HALF_NORMAL, params=(1.0,)),
            rv("s", HALF_NORMAL, parents=("t",), link=lambda t: (t,)),
            rv("y", NORMAL, parents=("s",), link=lambda s: (0.0, s)),
        ]
    )
    m = condition(m, {"y": 0.3})
    for kind in SURROGATES:
        cfg = TrainConfig(steps=150, seed=1, window=0, record_every=1)
        assert not assert_fit_is_recorded(m, cfg, kind).diverged, kind


def test_elbo_off_the_tape_is_divergence():
    # the lone latent's sample underflows to 0, so log q and log p are
    # both the float -inf and the objective is a float NaN
    m = build_joint(
        [
            rv("s", LOG_NORMAL, params=(0.0, 1.0)),
            rv("x", NORMAL, parents=("s",), link=lambda s: (0.0, s)),
        ]
    )
    m = condition(m, {"x": 0.5})
    asvi = build_surrogate("asvi", m)
    bad = asvi.init_params.copy()
    bad[asvi.param_index["s.loc.alpha"]] = -800.0
    bad[asvi.param_index["s.loc.lam_logit"]] = -40.0
    with pytest.raises(NonFiniteError, match="depends on no parameter"):
        elbo_gradient(m, asvi, bad)
    result = fit(m, asvi, TrainConfig(steps=10, seed=0, window=0), init_params=bad)
    assert result.diverged and result.steps_run == 0


def test_zero_division_while_recording_is_divergence():
    m = build_joint(
        [
            rv("x", NORMAL, params=(0.0, 1.0)),
            rv("y", NORMAL, parents=("x",), link=lambda x: (x, 1.0 + 0.0 / (x - x))),
        ]
    )
    m = condition(m, {"y": 0.5})
    result = fit(m, "asvi", TrainConfig(steps=10, seed=0, window=0))
    assert result.diverged
    assert result.steps_run == 0


def test_model_error_is_raised_not_divergence():
    def link(x):
        raise ModelError("link bug")

    m = build_joint(
        [rv("x", NORMAL, params=(0.0, 1.0)), rv("y", NORMAL, parents=("x",), link=link)]
    )
    m = condition(m, {"y": 0.5})
    with pytest.raises(ModelError, match="link bug"):
        fit(m, "asvi", TrainConfig(steps=10, seed=0, window=0))


def two_bernoulli_model():
    m = build_joint(
        [
            rv("b1", BERNOULLI, params=(0.4,)),
            rv("b2", BERNOULLI, parents=("b1",), link=lambda b: (0.7,) if b == 1.0 else (0.2,)),
            rv("y", BERNOULLI, parents=("b2",), link=lambda b: (0.9,) if b == 1.0 else (0.3,)),
        ]
    )
    return condition(m, {"y": 1.0})


def test_score_function_gradient_unbiased():
    model = two_bernoulli_model()
    asvi = build_surrogate("asvi", model, init_seed=0)
    params = asvi.init_params.copy()
    posterior = enumerate_discrete_posterior(model)
    exact = np.array(exact_discrete_elbo_gradient(posterior, model, asvi, list(params)))
    n = 20000
    grads = np.empty((n, asvi.num_params))
    rng = np.random.default_rng(123)
    for i in range(n):
        g = elbo_gradient(model, asvi, params, n_samples=1, seed=int(rng.integers(2**31)))
        grads[i] = g
    mean = grads.mean(axis=0)
    se = grads.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(mean - exact) < 5 * se + 1e-12)


def test_adam_zero_gradient_no_move():
    state = AdamState.fresh(3, lr=0.05)
    params = np.array([1.0, -2.0, 0.5])
    state, new = adam_step(state, np.zeros(3), params)
    assert np.array_equal(new, params)


def test_adam_first_step_magnitude():
    state = AdamState.fresh(2, lr=0.05)
    state, new = adam_step(state, np.array([3.0, -0.2]), np.zeros(2))
    assert new == pytest.approx([0.05, -0.05], rel=1e-6)


def test_adam_monotone_under_fixed_gradient():
    state = AdamState.fresh(1, lr=0.01)
    params = np.zeros(1)
    prev = 0.0
    for _ in range(5):
        state, params = adam_step(state, np.array([2.5]), params)
        assert params[0] > prev
        prev = params[0]


def test_adam_dimension_mismatch():
    state = AdamState.fresh(2, lr=0.01)
    with pytest.raises(ValueError):
        adam_step(state, np.zeros(3), np.zeros(3))


def test_adam_step_matches_a_per_element_reference_in_bytes():
    # Adam on Python floats, one entry at a time, in adam_step's expression
    # order; 5e-324 * 5e-324 underflows to 0.0 and 1e200 * 1e200 overflows
    # to inf, which freezes that entry for good
    rng = np.random.default_rng(4)
    state = AdamState.fresh(6, lr=0.05)
    params = rng.normal(size=6)
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.05
    m, v, p = [0.0] * 6, [0.0] * 6, params.tolist()
    specials = [0.0, -0.0, 5e-324, 1e200, -5e-324]
    for t in range(1, 51):
        g = rng.normal(size=6) * 10.0 ** rng.integers(-3, 4, size=6)
        g[t % 5] = specials[t % 5]
        g[5] = 1e200 if t == 40 else g[5]
        with np.errstate(over="ignore"):
            state, params = adam_step(state, g, params)
        assert state.step == t
        for k, gk in enumerate(g.tolist()):
            m[k] = b1 * m[k] + (1.0 - b1) * gk
            v[k] = b2 * v[k] + (1.0 - b2) * gk * gk
            m_hat = m[k] / (1.0 - b1**t)
            v_hat = v[k] / (1.0 - b2**t)
            p[k] = p[k] + lr * m_hat / (math.sqrt(v_hat) + eps)
        for got, want in ((state.m, m), (state.v, v), (params, p)):
            assert got.tobytes() == np.array(want).tobytes(), t
    assert math.isinf(v[5]) and math.isinf(v[3])


def test_fit_conjugate_reaches_evidence():
    model = conjugate_pair(y=2.0)
    coarse = fit(model, "asvi", TrainConfig(steps=4000, seed=0, window=500, patience=4))
    assert not coarse.diverged
    # refinement pass: smaller steps and averaged gradients kill the
    # stationary jitter of the single-sample phase
    polish = fit(
        model,
        coarse.surrogate,
        TrainConfig(steps=800, lr=1e-3, n_samples=10, seed=1, window=0),
        init_params=coarse.params,
    )
    log_evidence = -0.5 * math.log(4 * math.pi) - 1.0
    est = elbo_estimate(model, polish.surrogate, polish.params, n_samples=2000, seed=99)
    assert est.value == pytest.approx(log_evidence, abs=0.01)


def test_fit_zero_steps_returns_initial():
    model = conjugate_pair()
    asvi = build_surrogate("asvi", model, init_seed=0)
    result = fit(model, "asvi", TrainConfig(steps=0, seed=0))
    assert np.array_equal(result.params, asvi.init_params)
    assert len(result.trajectory) == 1


def test_a_zero_step_fit_reports_an_elbo_that_diverges():
    # es x mvn at seed 3 draws a -inf ELBO term at once: a fit of one
    # step reports divergence, and so must the zero-step fit's estimate
    model = get_task("es").model
    for steps in (0, 1):
        result = fit(model, "mvn", TrainConfig(steps=steps, seed=3))
        assert (result.diverged, result.trajectory, result.steps_run) == (True, [], 0), steps


@pytest.mark.parametrize(
    "field, value",
    [("steps", -3), ("n_samples", 0), ("seed", -1), ("record_every", 0), ("window", -3), ("patience", 0)],
)
def test_train_config_rejects_values_that_break_fit(field, value):
    # unchecked, `fit` gave an empty trajectory (steps < 0), a "divergence"
    # after 0 steps (n_samples 0), a ValueError from the generator (seed < 0),
    # a ZeroDivisionError (record_every 0),
    # no early stopping (window < 0) and a stop with converged=True at the
    # second window, whatever the loss did (patience 0)
    with pytest.raises(ValueError, match=f"TrainConfig.{field} must be >= "):
        TrainConfig(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [("steps", 2.5), ("steps", True), ("n_samples", 1.5), ("seed", 1.0), ("record_every", 2.0),
     ("window", 2.5), ("patience", False)],
)
def test_train_config_rejects_a_count_that_is_not_an_integer(field, value):
    # unchecked, `fit` failed later with "'float' object cannot be
    # interpreted as an integer", and True ran as a one-step fit
    with pytest.raises(ValueError, match=f"TrainConfig.{field} must be an integer"):
        TrainConfig(**{field: value})


def test_train_config_takes_numpy_integers():
    cfg = TrainConfig(steps=np.int64(3), n_samples=np.int32(1), seed=np.uint8(2), window=np.int64(0))
    assert fit(conjugate_pair(), "asvi", cfg).steps_run == 3


@pytest.mark.parametrize("tol", [-1e-4, math.inf, math.nan])
def test_train_config_rejects_a_tolerance_that_is_negative_or_not_finite(tol):
    # a NaN tolerance never counts a window as stale, so early stopping
    # was off without saying so
    with pytest.raises(ValueError, match="TrainConfig.tol must be non-negative and finite"):
        TrainConfig(tol=tol)


@pytest.mark.parametrize("lr", [0.0, -0.05, math.inf, math.nan])
def test_train_config_rejects_a_learning_rate_that_is_not_positive(lr):
    # a negative rate ran to the end and descended the ELBO instead
    with pytest.raises(ValueError, match="TrainConfig.lr must be positive and finite"):
        TrainConfig(lr=lr)


@pytest.mark.parametrize("field, value", [("lr", True), ("lr", np.True_), ("tol", False), ("tol", True)])
def test_train_config_rejects_a_bool_rate_or_tolerance(field, value):
    # unchecked, lr=True ran as a learning rate of 1.0, and tol=False as 0
    with pytest.raises(ValueError, match=f"TrainConfig.{field} must be a number, got {value!r}"):
        TrainConfig(**{field: value})


def test_train_config_takes_numpy_floats():
    cfg = TrainConfig(lr=np.float64(0.05), tol=np.float32(1e-4))
    assert (cfg.lr, cfg.tol) == (np.float64(0.05), np.float32(1e-4))


def test_fit_reproducible():
    model = conjugate_pair(y=1.0)
    cfg = TrainConfig(steps=300, seed=7, record_every=50, window=0)
    r1 = fit(model, "asvi", cfg)
    r2 = fit(model, "asvi", cfg)
    assert np.array_equal(r1.params, r2.params)
    assert [(s, l) for s, l, _ in r1.trajectory] == [(s, l) for s, l, _ in r2.trajectory]


def test_code_cache_shares_chunks_and_keeps_the_bits(monkeypatch):
    # es has fixed data, so a fit at another seed records the same graph
    # and binds its chunks into the shapes compiled by the fit before it
    model = get_task("es").model
    generate, made, compiled = autodiff._generate, [], []

    def keep_chunks(*described_render_args):
        made.append(generate(*described_render_args))
        return made[-1]

    monkeypatch.setattr(autodiff, "_generate", keep_chunks)
    monkeypatch.setattr(autodiff, "compile", lambda *a: compiled.append(a) or compile(*a), raising=False)

    def run(seed):
        result = fit(model, "asvi", TrainConfig(steps=30, seed=seed, record_every=1))
        return result.params.tobytes(), np.array([loss for _, loss, _ in result.trajectory]).tobytes()

    autodiff.clear_code_cache()
    run(1)
    first, cold_compiles = made[:], len(compiled)
    made.clear()
    warm = run(2)
    assert cold_compiles > 0 and len(compiled) == cold_compiles
    assert [len(chunks) for chunks in made] == [len(chunks) for chunks in first]
    pairs = [(new, old) for now, then in zip(made, first) for new, old in zip(now, then)]
    assert all(new is not old and new.__code__.co_code == old.__code__.co_code for new, old in pairs)
    autodiff.clear_code_cache()
    assert run(2) == warm
    assert len(compiled) == 2 * cold_compiles


def test_code_cache_stays_under_its_cap_and_keeps_the_bits(monkeypatch):
    # a caller that fits one simulated dataset after another keeps at
    # most CODE_CACHE_CAP shapes, and an emptied cache changes no bits
    monkeypatch.setattr(autodiff, "CODE_CACHE_CAP", 16)
    task = get_task("br")

    def run(seed):
        model = condition(task.model, generate_data(task, seed=seed)[0])
        result = fit(model, "asvi", TrainConfig(steps=3, seed=seed, record_every=1))
        return result.params.tobytes(), np.array([loss for _, loss, _ in result.trajectory]).tobytes()

    autodiff.clear_code_cache()
    capped = []
    for seed in (1, 2, 3, 4):
        capped.append(run(seed))
        assert 0 < len(autodiff._CODE) <= 16
    for seed, bits in zip((1, 2, 3, 4), capped):
        autodiff.clear_code_cache()
        assert run(seed) == bits


def test_fit_reports_divergence():
    m = build_joint(
        [
            rv("s", LOG_NORMAL, params=(0.0, 1.0)),
            rv("x", NORMAL, parents=("s",), link=lambda s: (0.0, s)),
        ]
    )
    m = condition(m, {"x": 0.5})
    asvi = build_surrogate("asvi", m)
    bad = asvi.init_params.copy()
    bad[asvi.param_index["s.loc.alpha"]] = 800.0  # exp overflow -> inf sample
    bad[asvi.param_index["s.loc.lam_logit"]] = -40.0
    result = fit(m, asvi, TrainConfig(steps=100, seed=0, window=0), init_params=bad)
    assert result.diverged


def test_fit_uncompiled_matches_compiled():
    # replaying the graph gives the bits of recording it at every step
    model = conjugate_pair(y=1.5)
    for kind in SURROGATES:
        cfg = TrainConfig(steps=200, seed=3, window=0, record_every=1)
        assert not assert_fit_is_recorded(model, cfg, kind).diverged


def test_save_trajectory_round_trip(tmp_path):
    model = conjugate_pair()
    result = fit(model, "mean-field", TrainConfig(steps=50, seed=1, record_every=10, window=0))
    path = tmp_path / "traj.csv"
    save_trajectory(result.trajectory, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,negative_elbo,wall_time_s"
    assert len(lines) == len(result.trajectory) + 1
    first = lines[1].split(",")
    assert int(first[0]) == result.trajectory[0][0]
    assert float(first[1]) == result.trajectory[0][1]


def test_surrogate_moments_match_known_gaussian():
    model = conjugate_pair(y=2.0)
    mf = build_surrogate("mean-field", model)
    params = mf.init_params.copy()
    params[mf.param_index["x.loc.alpha"]] = 1.0
    params[mf.param_index["x.scale.alpha"]] = unconstrain_param("positive", math.sqrt(0.5))
    means, sds = surrogate_moments(mf, params, n_samples=20000, seed=0)
    assert means["x"] == pytest.approx(1.0, abs=0.02)
    assert sds["x"] == pytest.approx(math.sqrt(0.5), rel=0.03)


def test_fit_ar1_and_mvn_improve_elbo():
    from convexvi.surrogates import build_surrogate

    model, _ = brownian(T=6, seed=8)
    for kind in ("ar1", "mvn"):
        surrogate = build_surrogate(kind, model)
        before = elbo_estimate(model, surrogate, surrogate.init_params, n_samples=500, seed=1).value
        r = fit(model, surrogate, TrainConfig(steps=1500, seed=0, window=0))
        assert not r.diverged, kind
        after = elbo_estimate(model, r.surrogate, r.params, n_samples=500, seed=1).value
        assert after > before + 1.0, (kind, before, after)
