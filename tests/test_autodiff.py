import itertools
import math
import re

import numpy as np
import pytest

from convexvi import autodiff as ad


def test_record_square():
    tape = ad.Tape()
    x = tape.input(3.0)
    y = x * x
    assert y.value == 9.0


def test_record_sigmoid_at_zero():
    tape = ad.Tape()
    x = tape.input(0.0)
    assert ad.sigmoid(x).value == 0.5


def test_record_softplus_at_zero():
    tape = ad.Tape()
    x = tape.input(0.0)
    assert ad.softplus(x).value == pytest.approx(math.log(2.0), abs=1e-12)


def test_backward_square():
    tape = ad.Tape()
    x = tape.input(3.0)
    y = x * x
    g = tape.backward(y)
    assert g[x.i] == pytest.approx(6.0)


def test_backward_sigmoid_at_zero():
    tape = ad.Tape()
    x = tape.input(0.0)
    g = tape.backward(ad.sigmoid(x))
    assert g[x.i] == pytest.approx(0.25)


def test_backward_softplus_at_zero():
    tape = ad.Tape()
    x = tape.input(0.0)
    g = tape.backward(ad.softplus(x))
    assert g[x.i] == pytest.approx(0.5)


def test_fd_check_exp():
    err = ad.finite_difference_check(lambda xs: ad.exp(xs[0]), [1.0], step=1e-5)
    assert err < 1e-6


def test_fd_check_linear_is_exact():
    err = ad.finite_difference_check(lambda xs: xs[0], [0.37], step=1e-5)
    assert err < 1e-11


def test_product_gradient():
    g = ad.gradient(lambda xs: xs[0] * xs[1], [2.0, 3.0])
    assert g == pytest.approx([3.0, 2.0], abs=1e-12)


def test_gradient_of_constant_expression_is_zero():
    tape = ad.Tape()
    x = tape.input(1.0)
    out = x * 0.0 + 4.0 * 2.5 + -1.0
    g = tape.backward(out)
    assert out.value == 9.0
    assert g[x.i] == 0.0


def test_unused_input_gets_zero_entry():
    tape = ad.Tape()
    x = tape.input(1.0)
    y = tape.input(2.0)
    g = tape.backward(x * 2.0)
    assert g[y.i] == 0.0
    # one entry per tape node, indexed by node id
    assert len(g) == len(tape) and g[x.i] == 2.0


def test_log_of_negative_rejected():
    tape = ad.Tape()
    x = tape.input(-1.0)
    with pytest.raises(ad.DomainError):
        ad.log(x)
    with pytest.raises(ad.DomainError):
        ad.sqrt(x)


def test_all_ops_match_finite_differences():
    # every supported op at 100 N(0,1) points, away from domain boundaries
    rng = np.random.default_rng(7)
    cases = [
        ("add", lambda xs: xs[0] + xs[1], 2, None, 1e-5),
        ("add_const", lambda xs: xs[0] + 1.7, 1, None, 1e-5),
        ("mul", lambda xs: xs[0] * xs[1], 2, None, 1e-5),
        ("mul_const", lambda xs: xs[0] * -2.3, 1, None, 1e-5),
        ("neg", lambda xs: -xs[0], 1, None, 1e-5),
        ("exp", lambda xs: ad.exp(xs[0]), 1, None, 1e-5),
        ("log", lambda xs: ad.log(xs[0]), 1, "positive", 1e-6),
        ("tanh", lambda xs: ad.tanh(xs[0]), 1, None, 1e-5),
        ("sigmoid", lambda xs: ad.sigmoid(xs[0]), 1, None, 1e-5),
        ("softplus", lambda xs: ad.softplus(xs[0]), 1, None, 1e-5),
        ("sqrt", lambda xs: ad.sqrt(xs[0]), 1, "positive", 1e-6),
        ("pow", lambda xs: xs[0] ** 3.0, 1, None, 1e-5),
        # near-zero denominators make the central difference itself
        # inaccurate at step 1e-5, so use a tighter step there
        ("div", lambda xs: xs[0] / xs[1], 2, "nonzero-denom", 1e-7),
        ("rdiv", lambda xs: 2.0 / xs[0], 1, "nonzero-denom", 1e-7),
    ]
    for name, fn, arity, domain, step in cases:
        for _ in range(100):
            point = rng.standard_normal(arity)
            if domain == "positive":
                point = np.abs(point) + 1e-3
            elif domain == "nonzero-denom":
                point = np.sign(point) * (np.abs(point) + 1e-3)
                point[point == 0.0] = 1.0
            err = ad.finite_difference_check(fn, list(point), step=step)
            assert err < 1e-5, f"{name} at {point}: err={err}"


def test_backward_touches_each_node_once():
    # counting adjoint updates: each node contributes to its parents once
    tape = ad.Tape()
    x = tape.input(0.3)
    y = tape.input(-0.2)
    out = ad.exp(x * y) + ad.tanh(x) * ad.sigmoid(y)
    n = len(tape)
    g1 = tape.backward(out)
    # re-running gives identical results (no hidden state mutation)
    g2 = tape.backward(out)
    assert g1 == g2
    assert len(tape) == n


LIVE_VALUES = ad._live_values


def replays_storing(monkeypatch, every):
    """Make each new replay store every node's value (`every`), or the
    values that `_live_values` keeps; returns the dict that gathers each
    replayed tape's `stored` flags."""
    seen = {}

    def spy(tape, chunks, first):
        seen[tape] = bytearray(b"\1" * len(tape)) if every else LIVE_VALUES(tape, chunks, first)
        return seen[tape]

    monkeypatch.setattr(ad, "_live_values", spy)
    return seen


def assert_stored_values_match(tape, fresh, stored):
    """Each stored entry of the replayed `tape` has the bits of `fresh`'s
    entry (repr tells -0.0 from 0.0), and every other entry is NaN."""
    for i, keep in enumerate(stored):
        if keep:
            assert repr(tape.vals[i]) == repr(fresh.vals[i]), i
        else:
            assert math.isnan(tape.vals[i]), i


def test_forward_replay_matches_fresh_record(monkeypatch):
    # with every value stored, replay gives every entry of a fresh
    # recording; as generated, the entries it keeps, and NaN elsewhere
    def build(tape, xs):
        s = ad.softplus(xs[0]) + 1e-6
        z = (xs[1] - xs[2] * 0.5) / s
        return -0.5 * (z * z) - ad.log(s) + ad.exp(xs[2] * 0.1) + xs[1] ** 2.0

    for every in (True, False):
        stored = replays_storing(monkeypatch, every)
        rng = np.random.default_rng(3)
        tape = ad.Tape()
        xs = [tape.input(v) for v in rng.standard_normal(3)]
        out = build(tape, xs)
        for _ in range(20):
            vals = rng.standard_normal(3)
            for x, v in zip(xs, vals):
                tape.set_input(x, v)
            tape.forward()
            g = tape.backward(out)

            fresh = ad.Tape()
            fxs = [fresh.input(v) for v in vals]
            fout = build(fresh, fxs)
            fg = fresh.backward(fout)
            assert (fresh.ops, fresh.p1, fresh.p2, fresh.aux) == (tape.ops, tape.p1, tape.p2, tape.aux)
            assert_stored_values_match(tape, fresh, stored[tape])
            assert [g[x.i] for x in xs] == [fg[fx.i] for fx in fxs]
        assert all(stored[tape]) == every


def test_a_replayed_tape_is_fixed():
    # recording onto a tape after `forward` made `backward` raise
    # IndexError: the replay was generated for the shorter tape
    tape = ad.Tape()
    x = tape.input(2.0)
    y = x * x
    tape.forward()
    with pytest.raises(ValueError, match="replayed tape is fixed"):
        ad.log(y) + x
    with pytest.raises(ValueError, match="replayed tape is fixed"):
        tape.input(1.0)
    assert len(tape) == 2 and tape.backward(y)[x.i] == 4.0


def test_replay_stores_only_the_values_read_again():
    # `y` is read by `z` alone, in the same function: it stays a local,
    # and its entry reads NaN, so a stray read does not pass for a value
    tape = ad.Tape()
    x = tape.input(1.0)
    y = x + 1.0
    z = y * 3.0
    tape.set_input(x, 2.0)
    tape.forward()
    assert math.isnan(y.value) and z.value == 9.0 and tape.vals[x.i] == 2.0
    assert tape.backward(z)[x.i] == 3.0


@pytest.mark.parametrize(
    "op, message",
    [
        (ad.log, "log of non-positive value"),
        (ad.sqrt, "sqrt of negative value"),
        (lambda x: x**0.5, "fractional power of negative value"),
    ],
)
def test_replay_keeps_domain_checks(op, message):
    tape = ad.Tape()
    x = tape.input(1.0)
    op(x)
    tape.forward()  # generates the replay code
    tape.set_input(x, -1.0)
    with pytest.raises(ad.DomainError, match=message):
        tape.forward()


def test_replay_raises_zero_division():
    tape = ad.Tape()
    x = tape.input(1.0)
    y = tape.input(1.0)
    x / y
    tape.set_input(y, 0.0)
    with pytest.raises(ZeroDivisionError):
        tape.forward()


def test_replay_follows_recorded_edge_cases():
    # exp overflow becomes inf, sqrt(0) has an infinite partial, and a
    # zero adjoint is not propagated (0 * inf would give NaN)
    def build(xs):
        return ad.exp(xs[0]) + ad.sqrt(xs[1]) * 0.0 + xs[1] * xs[0]

    point = [800.0, 0.0]
    tape = ad.Tape()
    xs = [tape.input(1.0), tape.input(4.0)]
    out = build(xs)
    for x, v in zip(xs, point):
        tape.set_input(x, v)
    tape.forward()
    g = tape.backward(out)
    assert out.value == math.inf
    assert [g[x.i] for x in xs] == ad.gradient(build, point) == [math.inf, 800.0]


def code_bits(code):
    """What a chunk function runs: its bytecode, names and constants
    (repr tells -0.0 from 0.0 and 1.5 from 1.25)."""
    return code.co_code, code.co_names, code.co_varnames, [repr(c) for c in code.co_consts]


def test_replay_matches_fresh_record_on_random_graphs(monkeypatch):
    # every op, repeated operands (x + x among them), repeated expressions,
    # folded and infinite constants, and inputs at 0, -0, huge, infinite
    # and NaN values; repr() tells -0.0 from 0.0 and treats every NaN
    # alike.  Graphs of 40 and 120 ops, cut into functions at the default
    # size and at 5 nodes, hand adjoint locals down ADD and SUB chains and
    # across function boundaries.  One more input is declared among the
    # ops, and `lone` depends on it alone.  A sweep asked for the inputs
    # below `wrt` gives their entries of the full sweep, and a sweep from
    # `lone` at `wrt` = that input's id has no code and gives zeros.
    #
    # Each graph is recorded twice, into one warm shape cache: variant 1
    # has variant 0's structure with constants of another class where it
    # changes the source: -0.0 for 0.0, two distinct constants for two
    # equal ones, NaN for a finite constant, a fractional POW exponent for
    # a whole one, and an infinite factor of a MUL for a finite one (and
    # back).  Every chunk function is the one an empty cache gives it.  Of
    # the pairs recorded with one structure, variant 1 shares shapes that
    # variant 0 compiled, and compiles shapes of its own where a constant
    # of another class changes the source.
    binary = [lambda a, b: a + b, lambda a, b: a * b, lambda a, b: a / b, lambda a, b: a - b]
    special = [0.0, -0.0, 1e-300, 800.0, -800.0, math.inf, -math.inf, math.nan]

    def unary(variant):
        zero, one, other, scale, big, shift, power = (
            (0.0, 1.5, 1.5, -2.5, math.inf, -0.75, 2.0),
            (-0.0, 1.5, 1.25, -math.inf, 3.0, math.nan, 1.5),
        )[variant]
        return [
            lambda a: a + one, lambda a: a * scale, lambda a: a * big, lambda a: -a,
            lambda a: a * a, ad.exp, ad.log, ad.tanh, ad.sigmoid, ad.softplus, ad.sqrt,
            lambda a: a**2.0, lambda a: a**0.5, lambda a: 2.0 / a, lambda a: 0.0 / a,
            lambda a: a + shift, lambda a: a + a, lambda a: other - a, lambda a: zero - a,
            lambda a: a - a, lambda a: a + zero, lambda a: (a * a) ** power,
        ]

    def build(seed, xs, variant=0):
        rng = np.random.default_rng(seed)
        ops = unary(variant)
        nodes = list(xs)
        n_ops = 120 if seed % 2 else 40
        mid_at = int(rng.integers(n_ops))
        for step in range(n_ops):
            if step == mid_at:
                mid = xs[0].tape.input(rng.normal())
                nodes.append(mid)
            a = nodes[-1 - int(rng.integers(min(len(nodes), 6)))]
            b = nodes[int(rng.integers(len(nodes)))]
            try:
                if rng.random() < 0.3:
                    nodes.append(binary[int(rng.integers(len(binary)))](a, b))
                else:
                    nodes.append(ops[int(rng.integers(len(ops)))](a))
            except (ValueError, ZeroDivisionError, OverflowError):
                pass  # recording rejected the op here; the graph skips it
        return sum(nodes[-3:], nodes[0]), ad.tanh(mid) * 3.0 + mid

    generate, made = ad._generate, {}  # shape key -> the (seed, variant) that compiled it

    def one_at_a_time(described, render, args):
        nonlocal shared, split
        chunks = []
        for key, slots in described:
            hit = (args, key) in ad._CODE
            if not hit:
                made[args, key] = (seed, variant)
            chunks += generate([(key, slots)], render, args)
            with monkeypatch.context() as empty:
                empty.setattr(ad, "_CODE", {})
                (cold,) = generate([(key, slots)], render, args)
            assert code_bits(chunks[-1].__code__) == code_bits(cold.__code__), (seed, variant)
            if variant and structures[0] == structures[1]:
                shared += hit and made[args, key] == (seed, 0)
                split += not hit
        return chunks

    ad.clear_code_cache()
    monkeypatch.setattr(ad, "_generate", one_at_a_time)
    for every, chunk in itertools.product((True, False), (ad.REPLAY_CHUNK, 5)):
        monkeypatch.setattr(ad, "REPLAY_CHUNK", chunk)
        stored = replays_storing(monkeypatch, every)
        rng = np.random.default_rng(5)
        compared = longer = repeats = pairs = shared = split = 0
        for seed in range(150):
            start = rng.uniform(0.5, 2.0, 3)
            structures = []
            for variant in (0, 1):
                tape = ad.Tape()
                xs = [tape.input(v) for v in start]
                out, lone = build(seed, xs, variant)
                structures.append((tape.ops, tape.p1, tape.p2))
                inputs = [i for i, op in enumerate(tape.ops) if op == ad.INPUT]
                mid = inputs[-1]
                for _ in range(4):
                    point = [float(rng.choice(special)) if rng.random() < 0.3 else rng.normal() for _ in xs]
                    for x, v in zip(xs, point):
                        tape.set_input(x, v)
                    fresh = ad.Tape()
                    fxs = [fresh.input(v) for v in point]
                    fout, _ = build(seed, fxs, variant)
                    if (fresh.ops, fresh.p1, fresh.p2, fresh.aux) != (tape.ops, tape.p1, tape.p2, tape.aux):
                        continue  # recording took another path at this point
                    tape.forward()
                    g, fg = tape.backward(out), fresh.backward(fout)
                    assert_stored_values_match(tape, fresh, stored[tape])
                    assert [repr(g[i]) for i in inputs] == [repr(fg[i]) for i in inputs]
                    for wrt in (0, 1, len(xs), mid, mid + 1):
                        gw = tape.backward(out, wrt)
                        assert [repr(gw[i]) for i in inputs if i < wrt] == [repr(g[i]) for i in inputs if i < wrt]
                    gl = tape.backward(lone, mid)
                    assert [gl[i] for i in inputs if i < mid] == [0.0] * len(xs)
                    assert tape._replay._backward[lone.i, mid] == []
                    compared += 1
                    longer += len(tape) - len(xs) > 64
                    repeats += sum(f != i for i, f in enumerate(tape._replay.first))
            pairs += structures[0] == structures[1]
        counts = compared, longer, repeats, pairs, shared, split
        assert compared > 300 and longer > 80 and repeats > 200 and pairs > 30, counts
        assert shared > 40 and split > 50, counts


def test_sums_read_their_adjoint_locals_on_random_chains(monkeypatch):
    # graphs of sums and differences that mostly read the node just
    # below, as a Cholesky row or a log-density sum does: an ADD's second
    # `+` parent reads the ADD's local, and so on down, with no copy.  A
    # write to a local that two nodes read would change a gradient here
    # (x + x below a node that reads another's local did).
    ops = [
        lambda a, b: a + b, lambda a, b: a - b, lambda a, b: b + a, lambda a, b: a + a,
        lambda a, b: a - a, lambda a, b: a * b, lambda a, b: a + 1.5, lambda a, b: -a,
        lambda a, b: ad.tanh(a), lambda a, b: a * 0.5,
    ]

    def build(seed, xs):
        rng = np.random.default_rng(seed)
        nodes = list(xs)
        for _ in range(int(rng.integers(5, 80))):
            a = nodes[-1 - int(rng.integers(min(len(nodes), 3)))]
            b = nodes[-1 - int(rng.integers(min(len(nodes), 8)))]
            nodes.append(ops[int(rng.integers(len(ops)))](a, b))
        return nodes[-1]

    for chunk in (3, 5, ad.REPLAY_CHUNK):
        monkeypatch.setattr(ad, "REPLAY_CHUNK", chunk)
        rng = np.random.default_rng(1)
        for seed in range(400):
            point = rng.normal(size=int(rng.integers(1, 5))).tolist()
            tape, xs, out = ad.record(lambda xs: build(seed, xs), point)
            if out.i < len(xs):
                continue
            want = ad.gradient(lambda xs: build(seed, xs), point)
            tape.forward()
            for wrt in (None, 1, len(xs)):
                g = tape.backward(out, wrt)
                n = len(xs) if wrt is None else wrt
                assert list(map(repr, g[:n])) == list(map(repr, want[:n])), (chunk, seed, wrt)


def test_backward_source_copies_no_adjoint(monkeypatch):
    # a sum emits no `gX = gY` line: an ADD hands its adjoint local to the
    # first parent that would start as a copy of it, and its other parent,
    # where that is the node just below (swept next), reads the same
    # local.  Squares summed apart from their sum (at most 64 nodes a
    # function, four functions: each square is in another function than
    # its sum), and a Cholesky row, `u = u + L_j * eps_j`, in one
    # function, so every ADD has both parents first seen in its function
    # (each copied its adjoint for the second before).  The row's sweep
    # asks for the parameters alone, so it adds no term into a noise
    # input.
    monkeypatch.setattr(ad, "REPLAY_CHUNK", 64)
    generate, bodies = ad._generate, []

    def keep_source(described, render, args):
        described = list(described)
        bodies.extend((render(key), slots) for key, slots in described)
        return generate(described, render, args)

    def squares(xs):
        return sum([x * x for x in xs])

    def cholesky_row(xs):
        u = xs[0]  # the mean, then the row's entries, then the noise
        for entry, eps in zip(xs[1:31], xs[31:]):
            u = u + entry * eps
        return u * u

    monkeypatch.setattr(ad, "_generate", keep_source)
    for fn, n_inputs, wrt, n_lines, n_bodies in ((squares, 100, None, 200, 4), (cholesky_row, 61, 31, 30, 1)):
        tape, xs, out = ad.record(fn, np.linspace(-1.0, 1.0, n_inputs))
        tape.forward()
        bodies.clear()  # the forward sweep's
        g = tape.backward(out, wrt)
        lines = [line for body, _ in bodies for line in body]
        assert len(bodies) == n_bodies and len(lines) > n_lines
        assert not [line for line in lines if re.fullmatch(r"\w+ = \w+", line)]
        written = {
            slots[int(m[1]) - ad._INDEX_SLOT]
            for body, slots in bodies
            for line in body
            for m in re.finditer(r"\bg\[(\d+)\] [+-]= ", line)
        }
        assert sorted(i for i in written if tape.ops[i] == ad.INPUT) == list(range(wrt or n_inputs))
        assert g[: wrt or n_inputs] == ad.gradient(fn, tape.vals[:n_inputs])[: wrt or n_inputs]


def forward_sources(monkeypatch):
    """Make each new replay keep its forward functions' `(lines, slots)`
    in the list returned."""
    generate, bodies = ad._generate, []

    def keep_source(described, render, args):
        described = list(described)
        if args == "v, d1, d2":
            bodies.extend((render(key), slots) for key, slots in described)
        return generate(described, render, args)

    monkeypatch.setattr(ad, "_generate", keep_source)
    return bodies


def test_a_chain_of_values_read_once_is_one_expression(monkeypatch):
    # REPLAY_CHUNK sums, differences, negations and products by a
    # constant (a node x node product stores its operands for the reverse
    # sweep), each read once by the next, in one function: the deepest
    # nesting a function can get.  The function is one line, which the
    # tokenizer takes, and its replay has the bits of a fresh recording.
    monkeypatch.setattr(ad, "CUT_MIN", ad.REPLAY_CHUNK)  # no cut at an anchor
    bodies = forward_sources(monkeypatch)
    steps = [
        lambda y, x: y + x, lambda y, x: y * 1.25, lambda y, x: -y, lambda y, x: y - x,
        lambda y, x: 0.5 - y, lambda y, x: y * -3.0, lambda y, x: y + -0.75,
    ]

    def chain(xs):
        y = xs[0]
        for n in range(ad.REPLAY_CHUNK):
            y = steps[n % len(steps)](y, xs[1])
        return y

    tape, xs, out = ad.record(chain, [0.3, -1.1])
    tape.forward()
    ((lines, _),) = bodies
    assert len(lines) == 1
    depth = deepest = 0
    for ch in lines[0]:
        depth += (ch == "(") - (ch == ")")
        deepest = max(deepest, depth)
    assert deepest == ad.REPLAY_CHUNK - 1
    for point in ([0.7, 2.0], [-0.0, 0.0], [math.inf, 1.0], [1e300, 1e10], [math.nan, 1.0], [4.0, -math.inf]):
        for x, v in zip(xs, point):
            tape.set_input(x, v)
        tape.forward()
        fresh, _, fout = ad.record(chain, point)
        assert repr(tape.vals[out.i]) == repr(fresh.vals[fout.i]), point
        assert list(map(repr, tape.backward(out)[:2])) == list(map(repr, fresh.backward(fout)[:2])), point


def test_softplus_replays_one_exp_for_its_value_and_partial(monkeypatch):
    # one line of the node calls `exp`, once per replay, for both the
    # value and the partial, which have the float path's bits at the edges;
    # recording the node calls it once too
    bodies = forward_sources(monkeypatch)
    tape = ad.Tape()
    x = tape.input(0.5)
    out = ad.softplus(x)
    tape.forward()
    ((lines, _),) = bodies
    assert sum(line.count("exp(") for line in lines) == 2  # `exp(-a) if a > 0.0 else exp(a)`
    assert [line for line in lines if "exp(" in line] == ["e = exp(-a) if a > 0.0 else exp(a)"]
    calls = []

    def counted(a):
        calls.append(a)
        return math.exp(a)

    monkeypatch.setitem(ad._REPLAY_GLOBALS, "exp", counted)
    for a in (0.0, -0.0, math.inf, -math.inf, math.nan, 800.0, -800.0, 3.5, -3.5):
        calls.clear()
        tape.set_input(x, a)
        tape.forward()
        assert len(calls) == 1, a
        fresh = ad.Tape()
        y = ad.softplus(fresh.input(a))
        assert len(calls) == 2, a
        assert repr(tape.vals[out.i]) == repr(fresh.vals[y.i]) == repr(ad.softplus(a)) == repr(_softplus_reference(a))
        assert repr(tape.d1[out.i]) == repr(fresh.d1[y.i]) == repr(_sigmoid_reference(a)), a


def test_a_slot_the_compiler_folds_away_raises():
    # slot 1's literal under a unary minus compiles to the constant
    # -2e300, so the value has no constant to take; slot 2 is not in the
    # text at all.  Neither is bound, and nothing is cached.
    ad.clear_code_cache()
    with pytest.raises(ValueError, match="slot 1 "):
        ad._generate([(("v[9000000000000] = -2e300",), [5, 2.5])], list, "v, d1, d2")
    with pytest.raises(ValueError, match="slot 2 "):
        ad._generate([(("v[9000000000000] = 2e300",), [5, 2.5, 7])], list, "v, d1, d2")
    assert ad._CODE == {}
    (chunk,) = ad._generate([(("v[9000000000000] = 2e300",), [1, -0.0])], list, "v, d1, d2")
    v = [0.0, 0.0]
    chunk(v, None, None)
    assert repr(v) == "[0.0, -0.0]"


def test_a_shape_binds_each_chunk_with_the_bits_of_its_values():
    # 0.0 == -0.0, but a chunk writing -0.0 is not the chunk writing 0.0:
    # the two share one shape, and each function writes its own zero
    ad.clear_code_cache()
    lines = ("v[9000000000000] = v[9000000000001] + 3e300",)
    plus, minus = ad._generate([(lines, [2, 0, 0.0]), (lines, [2, 0, -0.0])], list, "v")
    assert len(ad._CODE) == 1 and plus is not minus
    sums = []
    for chunk in (plus, minus):
        v = [-0.0, 5.0, 5.0]
        chunk(v)
        sums.append(repr(v[2]))
    assert sums == ["0.0", "-0.0"]


def test_sub_and_rsub_match_the_negate_then_add_encoding(monkeypatch):
    # `a - b` is one SUB node and `c - a` one RSUB node, where each was a
    # NEG node and an ADD.  IEEE defines x - y as x + (-y), so the values,
    # the loop's adjoints and the generated adjoints are the old ones, in
    # repr: bit for bit, except that a NaN's sign bit may differ (x - nan
    # keeps it, x + -nan flips it).  The subtrahends include inputs, x - x,
    # and inner nodes first reached at their SUB node, reached before it in
    # its chunk, or reached from a later chunk.
    def build(sub, rsub):
        def f(xs):
            x, y, z = xs
            w = x * z
            s = y * y
            u = sub(x, y) * rsub(2.5, z) + sub(s, w)
            v = sub(sub(w, s), rsub(-0.0, w)) * sub(u, sub(x, x))
            return sub(v, s * u) + sub(u, w)

        return f

    new = build(lambda a, b: a - b, lambda c, a: c - a)
    old = build(lambda a, b: a + (-b), lambda c, a: (-a) + c)
    points = [0.0, -0.0, 1.5, -2.25, math.inf, -math.inf, math.nan]
    for chunk in (ad.REPLAY_CHUNK, 2, 3):
        monkeypatch.setattr(ad, "REPLAY_CHUNK", chunk)
        replayed = []
        for f in (new, old):
            tape = ad.Tape()
            xs = [tape.input(v) for v in (0.5, 1.5, -1.0)]
            out = f(xs)
            tape.forward()  # generates the replay code
            replayed.append((tape, xs, out))
        assert ad.NEG not in replayed[0][0].ops and len(replayed[1][0]) - len(replayed[0][0]) == 10
        for point in itertools.product(points, repeat=3):
            sweeps = []
            for tape, xs, out in replayed:
                for x, v in zip(xs, point):
                    tape.set_input(x, v)
                tape.forward()
                g = tape.backward(out)
                sweeps.append([tape.vals[out.i]] + [g[x.i] for x in xs])
            for f in (new, old):
                tape = ad.Tape()
                xs = [tape.input(v) for v in point]
                out = f(xs)
                g = tape.backward(out)
                sweeps.append([tape.vals[out.i]] + [g[x.i] for x in xs])
            assert len({repr(sweep) for sweep in sweeps}) == 1, (point, sweeps)


def test_replay_computes_a_repeated_expression_once(monkeypatch):
    # a constant is keyed by its bits, not by ==: at x = -0.0, x + 0.0 is
    # 0.0 and x + -0.0 is -0.0.  Stored as generated, `again` and `twice`
    # write no copy of their first node's value: nothing reads them
    def build(x):
        plus, minus, again = x + 0.0, x + -0.0, x + 0.0
        once, twice = ad.sigmoid(again), ad.sigmoid(plus)  # equal up to a repeat
        return plus * minus + once - twice, [plus, minus, again, once, twice]

    for every in (True, False):
        stored = replays_storing(monkeypatch, every)
        tape = ad.Tape()
        x = tape.input(1.0)
        out, (plus, minus, again, once, twice) = build(x)
        tape.forward()
        first = tape._replay.first
        assert (first[plus.i], first[minus.i], first[again.i], first[twice.i]) == (plus.i, minus.i, plus.i, once.i)
        assert stored[tape][again.i] == stored[tape][twice.i] == every
        for v in (-0.0, 0.7, math.inf):
            tape.set_input(x, v)
            tape.forward()
            fresh = ad.Tape()
            fout, _ = build(fresh.input(v))
            assert_stored_values_match(tape, fresh, stored[tape])
            assert repr(tape.backward(out)[x.i]) == repr(fresh.backward(fout)[0])


def test_a_repeated_log_raises_on_replay_as_on_recording():
    # the repeat is not checked again: its first node's check raises first
    tape = ad.Tape()
    x = tape.input(1.0)
    once, twice = ad.log(x), ad.log(x)
    tape.forward()
    assert tape._replay.first[twice.i] == once.i
    for v in (0.0, -2.0):
        tape.set_input(x, v)
        with pytest.raises(ad.DomainError) as replayed:
            tape.forward()
        with pytest.raises(ad.DomainError) as recorded:
            ad.log(ad.Tape().input(v))
        assert str(replayed.value) == str(recorded.value)


def test_value_read_notes_reads_of_node_values_only():
    tape = ad.Tape()
    x = tape.input(0.5)
    y = ad.log(ad.sqrt(ad.exp(ad.tanh(ad.sigmoid(ad.softplus(x))))) / x + x * x - x ** 2.0)
    1.0 / y
    ad.value_for_check(y)
    repr(y)
    assert not tape.value_read
    assert ad.value_of(y) == tape.vals[y.i]
    assert tape.value_read
    other = ad.Tape()
    other.input(1.0).value
    assert other.value_read


def test_pow_fractional_of_negative_rejected():
    tape = ad.Tape()
    x = tape.input(-2.0)
    with pytest.raises(ad.DomainError):
        x ** 0.5


def test_cross_tape_mixing_rejected():
    a = ad.Tape().input(1.0)
    b = ad.Tape().input(2.0)
    with pytest.raises(ValueError, match="different tapes"):
        a + b
    with pytest.raises(ValueError, match="different tapes"):
        a * b


def test_float_and_node_paths_agree():
    rng = np.random.default_rng(11)
    for _ in range(50):
        v = rng.standard_normal()
        tape = ad.Tape()
        x = tape.input(v)
        assert ad.softplus(x).value == ad.softplus(v)
        assert ad.sigmoid(x).value == ad.sigmoid(v)
        assert ad.tanh(x).value == ad.tanh(v)
        assert ad.exp(x).value == ad.exp(v)


def test_array_and_float_paths_agree_in_bytes():
    # numpy's own exp, log and tanh differ from libm in the last bit on a
    # share of these points; the helpers map the float functions instead
    rng = np.random.default_rng(5)
    edges = [0.0, -0.0, 1e-310, -1e-310, 800.0, -800.0, math.inf, -math.inf, math.nan]
    wide = np.concatenate([rng.standard_normal(20000) * 30, edges])
    positive = np.concatenate([rng.lognormal(0.0, 3.0, 20000), [1e-310, 1e300, math.inf]])
    cases = [
        (ad.exp, wide), (ad.tanh, wide), (ad.sigmoid, wide), (ad.softplus, wide),
        (ad.log, positive), (ad.sqrt, positive), (ad.sqrt, np.abs(wide)),
    ]
    for helper, a in cases:
        out = helper(a)
        expected = np.array([helper(float(v)) for v in a])
        assert out.dtype == np.float64 and out.tobytes() == expected.tobytes(), helper.__name__


def test_array_domain_errors_name_the_first_bad_entry():
    with pytest.raises(ad.DomainError, match=r"log of non-positive value 0\.0$"):
        ad.log(np.array([1.0, 0.0, -2.0]))
    with pytest.raises(ad.DomainError, match=r"sqrt of negative value -2\.0$"):
        ad.sqrt(np.array([1.0, -2.0, -3.0]))
    assert math.isnan(ad.log(np.array([math.nan]))[0])  # NaN passes, as on floats


def _exp_reference(a):
    try:
        return math.exp(a)
    except OverflowError:
        return math.inf


def _sigmoid_reference(a):
    if a >= 0.0:
        return 1.0 / (1.0 + math.exp(-a))
    return math.exp(a) / (1.0 + math.exp(a))


def _softplus_reference(a):
    return a + math.log1p(math.exp(-a)) if a > 0.0 else math.log1p(math.exp(a))


# Each unary op's value, its partial in the argument a and value y, and
# its domain test with the message, written here with `math` rather than
# read from the table that recording and replay share.
UNARY_REFERENCE = {
    "exp": (_exp_reference, lambda a, y: y, None),
    "log": (math.log, lambda a, y: 1.0 / a, (lambda a: a <= 0.0, "log of non-positive value")),
    "tanh": (math.tanh, lambda a, y: 1.0 - y * y, None),
    "sigmoid": (_sigmoid_reference, lambda a, y: y * (1.0 - y), None),
    "softplus": (_softplus_reference, lambda a, y: _sigmoid_reference(a), None),
    "sqrt": (
        math.sqrt,
        lambda a, y: 0.5 / y if y > 0.0 else math.inf,
        (lambda a: a < 0.0, "sqrt of negative value"),
    ),
}
EDGE_POINTS = [0.0, -0.0, 5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan]


def _bits(*values):
    return np.array(values, dtype=float).tobytes()


@pytest.mark.parametrize("name", list(UNARY_REFERENCE))
def test_unary_ops_match_an_independent_reference_in_bytes(name):
    # recorded and replayed value, partial and gradient, the float result
    # and the array result, at each edge point; outside the domain, the
    # same DomainError message from a Node, a float, an array and replay
    op = getattr(ad, name)
    value, partial, domain = UNARY_REFERENCE[name]
    replayed = ad.Tape()
    rx = replayed.input(0.5)
    rout = op(rx)
    replayed.forward()  # generates the replay code
    inside = []
    for a in EDGE_POINTS:
        replayed.set_input(rx, a)
        if domain and domain[0](a):
            node, array = lambda: op(ad.Tape().input(a)), lambda: op(np.array([1.0, a]))
            for call in (node, lambda: op(a), array, replayed.forward):
                with pytest.raises(ad.DomainError) as err:
                    call()
                assert str(err.value) == f"{domain[1]} {a!r}"
            continue
        inside.append(a)
        y = value(a)
        d = partial(a, y)
        want = _bits(y, d, 0.0 + 1.0 * d)  # a reverse sweep adds the partial to +0.0
        tape = ad.Tape()
        x = tape.input(a)
        out = op(x)
        assert _bits(tape.vals[out.i], tape.d1[out.i], tape.backward(out)[x.i]) == want, a
        replayed.forward()
        # replayed EXP stores no partial: its reverse sweep reads the value
        d1 = replayed.vals[rout.i] if name == "exp" else replayed.d1[rout.i]
        assert _bits(replayed.vals[rout.i], d1, replayed.backward(rout)[rx.i]) == want, a
        assert _bits(op(a)) == _bits(y), a
    assert op(np.array(inside)).tobytes() == _bits(*map(value, inside))


def test_value_of_an_array_needs_one_sample():
    with pytest.raises(ad.PerSampleOnly):
        ad.value_of(np.array([1.0, 2.0]))
    a = np.array([1.0, 2.0])
    assert ad.value_for_check(a) is a
