"""Scalar reverse-mode automatic differentiation.

A ``Tape`` records a computation over scalar nodes in topological
(creation) order; ``backward`` runs one reverse sweep and returns the
gradient with respect to every input, by node id, or with respect to
the inputs below the id ``wrt`` alone, the other entries being scratch.
``forward`` re-evaluates a recorded tape at new input values.  Its first
call turns the tape into straight-line Python, compiled in small
functions; that code then runs every later ``forward`` and ``backward``
(reverse mode by source transformation).
The generated reverse sweep computes only the active adjoints (activity
analysis): it sweeps the nodes that depend on a wanted input and that
the output depends on, and adds no term into any other node; a sum
hands its adjoint on to its parents without copying it.  The generated
forward sweep computes each repeated expression once: its partials and
value are read at the earliest node with its op, operands and constant.
It stores a value into ``vals`` only where something reads it there
(liveness): a later function, a reverse sweep, or a caller, who may read
the inputs and the sinks (nodes no node reads, such as the objective).
After ``forward`` every other entry of ``vals`` is NaN, so a stray read
shows.  A function names a value only where it is stored or read more
than once: a sum, difference, negation or product read once is written
into its reader as an expression.  These ops never raise on floats, so
every node is still computed and every error fires where recording
raised it.  Once replayed, a tape is fixed: recording onto it raises
``ValueError``.  The tape is cut into functions where its structure
repeats, and each function's source names its list indices and float
constants by slot, so a pattern the tape repeats (the steps of a chain,
the samples of a wide ELBO) is compiled once as a shape, and each chunk
binds its own values into that shape's bytecode.  Shapes are cached by
structure, a key taken in a walk over a chunk's nodes before any text,
so source is written and compiled only for a new shape
(``clear_code_cache`` empties the cache when each CLI sweep starts); a
chunk's bound function is kept by its tape alone.  A tape swept only
once, just after recording, is swept by a loop over the nodes instead.
A replay equals a fresh recording only if recording decided nothing on
a node's value: reads through ``Node.value`` or ``value_of`` set
``Tape.value_read``, while the ops, and checks that a replay repeats by
itself (``value_for_check``), read values without setting it.

Everything is double precision.  The unary ops (``exp``, ``log``,
``tanh``, ``sigmoid``, ``softplus``, ``sqrt``) are declared once, in the
table ``_UNARY`` as source text: the value as an expression, inlined
into replay (so replay calls no Python function but ``_exp``, whose
overflow rule needs a statement), the partial and the domain check, and
an expression that value and partial share (softplus's ``exp``), which
replay computes once.
Each accepts a ``Node``, a float, or a float array: the tape, one
sample, or a batch (one array entry per sample).
On an array an op maps its float function over the entries (numpy's own
``exp``/``log`` differ from libm in the last bit on some inputs), so
each entry has the float path's bits; ``+ - * /`` and ``abs`` are exact
either way.  A batch cannot branch on a value: ``value_of`` of an array
raises ``PerSampleOnly``, and ``model.over_rows`` (the batch policy)
runs the batch one sample at a time, as it does any failing batch.
"""

from __future__ import annotations

import marshal
import math
import re
from array import array
from collections import Counter
from types import CodeType, FunctionType

import numpy as np

# Op kinds.  Binary ops with a folded float operand keep their kind and
# store the constant in `aux` with parent2 = -1.
INPUT = 1
ADD = 2
MUL = 3
NEG = 4
EXP = 5
LOG = 6
TANH = 7
SIGMOID = 8
SOFTPLUS = 9
SQRT = 10
POW = 11
DIV = 12
RDIV = 13  # aux / node; still a div op, operand order flipped
SUB = 14
RSUB = 15  # aux - node


class Node:
    """Handle to one tape entry.  Supports arithmetic overloads."""

    __slots__ = ("tape", "i")

    def __init__(self, tape, i):
        self.tape = tape
        self.i = i

    @property
    def value(self):
        t = self.tape
        t.value_read = True
        return t.vals[self.i]

    def __add__(self, other):
        t = self.tape
        if isinstance(other, Node):
            if other.tape is not t:
                raise ValueError("cannot combine nodes from different tapes")
            return t._binary(ADD, self.i, other.i, t.vals[self.i] + t.vals[other.i], 1.0, 1.0)
        return t._unary(ADD, self.i, t.vals[self.i] + other, 1.0, other)

    __radd__ = __add__

    def __sub__(self, other):
        t = self.tape
        if isinstance(other, Node):
            if other.tape is not t:
                raise ValueError("cannot combine nodes from different tapes")
            return t._binary(SUB, self.i, other.i, t.vals[self.i] - t.vals[other.i], 1.0, -1.0)
        return self + (-other)

    def __rsub__(self, other):
        # other - self
        t = self.tape
        return t._unary(RSUB, self.i, other - t.vals[self.i], -1.0, other)

    def __neg__(self):
        t = self.tape
        return t._unary(NEG, self.i, -t.vals[self.i], -1.0)

    def __mul__(self, other):
        t = self.tape
        if isinstance(other, Node):
            if other.tape is not t:
                raise ValueError("cannot combine nodes from different tapes")
            a, b = t.vals[self.i], t.vals[other.i]
            return t._binary(MUL, self.i, other.i, a * b, b, a)
        return t._unary(MUL, self.i, t.vals[self.i] * other, other, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        t = self.tape
        if isinstance(other, Node):
            if other.tape is not t:
                raise ValueError("cannot combine nodes from different tapes")
            a, b = t.vals[self.i], t.vals[other.i]
            inv = 1.0 / b
            return t._binary(DIV, self.i, other.i, a * inv, inv, -a * inv * inv)
        inv = 1.0 / other
        return t._unary(MUL, self.i, t.vals[self.i] * inv, inv, inv)

    def __rtruediv__(self, other):
        # other / self
        t = self.tape
        a = t.vals[self.i]
        return t._unary(RDIV, self.i, other / a, -other / (a * a), other)

    def __pow__(self, p):
        if isinstance(p, Node):
            raise TypeError("exponent must be a plain number")
        t = self.tape
        a = t.vals[self.i]
        if a < 0.0 and p != round(p):
            raise DomainError(f"fractional power of negative value {a!r}")
        return t._unary(POW, self.i, a ** p, p * a ** (p - 1.0), p)

    def __repr__(self):
        return f"Node({self.tape.vals[self.i]!r})"


class Tape:
    """Append-only record of a scalar computation graph.

    Parents of any node precede it, so the storage order is a
    topological order and one reverse sweep suffices for backward.
    """

    __slots__ = ("ops", "p1", "p2", "d1", "d2", "aux", "vals", "value_read", "_replay")

    def __init__(self):
        self.ops = []
        self.p1 = []
        self.p2 = []
        self.d1 = []
        self.d2 = []
        self.aux = []
        self.vals = []
        self.value_read = False  # set by `Node.value` and `value_of`
        self._replay = None  # generated code, once `forward` has run

    def __len__(self):
        return len(self.ops)

    def _append(self, op, p1, p2, d1, d2, aux, val):
        if self._replay is not None:
            raise ValueError("a replayed tape is fixed: record onto a new tape")
        i = len(self.ops)
        self.ops.append(op)
        self.p1.append(p1)
        self.p2.append(p2)
        self.d1.append(d1)
        self.d2.append(d2)
        self.aux.append(aux)
        self.vals.append(val)
        return Node(self, i)

    def _binary(self, op, i, j, val, d1, d2):
        return self._append(op, i, j, d1, d2, 0.0, val)

    def _unary(self, op, i, val, d1, aux=0.0):
        return self._append(op, i, -1, d1, 0.0, aux, val)

    def input(self, value):
        """Declare a differentiable input holding `value`."""
        return self._append(INPUT, -1, -1, 0.0, 0.0, 0.0, float(value))

    def set_input(self, node, value):
        if self.ops[node.i] != INPUT:
            raise ValueError("set_input on a non-input node")
        self.vals[node.i] = float(value)

    def forward(self):
        """Recompute all values and local partials from the input
        entries of `vals`, which the caller may have changed since
        recording.  The first call turns the tape into generated Python
        (`_Replay`); from then on both `forward` and `backward` run that
        code, and the graph is fixed: recording another node raises
        `ValueError`.  Every node is computed, with its domain checks,
        but `vals` then holds the inputs, the sinks (nodes no node
        reads, such as the objective) and the values the generated code
        reads again; its other entries are NaN, set once, when the code
        is generated.  A node that repeats an earlier node's op on the
        same operands and constant keeps the `d1` and `d2` entries of
        recording: its partials are read at that first node.
        """
        if self._replay is None:
            self._replay = _Replay(self)
        vals, d1, d2 = self.vals, self.d1, self.d2
        for chunk in self._replay.forward:
            chunk(vals, d1, d2)

    def backward(self, output, wrt=None):
        """Reverse accumulation from `output`.

        Returns the adjoints as a list indexed by node id: the entry of
        an input below node id `wrt` (of every input, if `wrt` is None)
        is d(output)/d(input); every other entry is scratch.  A tape
        that has been replayed with `forward` sweeps with generated code,
        which computes only what those entries need (`_Replay.backward`);
        a freshly recorded tape, usually swept once, runs the loop below
        instead of paying for code generation.
        """
        vals, d1, d2 = self.vals, self.d1, self.d2
        adj = [0.0] * len(vals)
        adj[output.i] = 1.0
        if self._replay is not None:
            for chunk in self._replay.backward(self, output.i, wrt):
                chunk(adj, vals, d1, d2)
            return adj
        p1, p2 = self.p1, self.p2
        for i in range(output.i, -1, -1):
            a = adj[i]
            if a == 0.0:
                continue
            j = p1[i]
            if j >= 0:
                adj[j] += a * d1[i]
                k = p2[i]
                if k >= 0:
                    adj[k] += a * d2[i]
        return adj


class DomainError(ValueError):
    """Raised when an op is recorded outside its domain (log/sqrt of a
    negative argument); arguments are rejected rather than clamped."""


class PerSampleOnly(Exception):
    """`value_of` was given an array of samples: the caller decides on a
    single sample's value, so the batch has to be evaluated one sample
    at a time."""


def _exp_float(x):
    # overflow becomes inf so divergence shows up as a non-finite value
    # in the diagnostics instead of an OverflowError mid-graph
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


# Nodes per generated function, at most.  compile() needs memory in
# proportion to the function it compiles: generating the forward and
# reverse code of the lz x asvi ELBO tape (4012 nodes) raised peak RSS by
# 20 MB as one function each, 7 MB in functions of 1024 nodes and 2 MB in
# functions of 64 or 128.  So the code is cut into small functions that
# index the tape's lists.  A function of CUT_MIN nodes or more ends early
# at an anchor (`_chunks`), so that a pattern the tape repeats is cut alike
# each time and compiled once.  Against fixed functions of 64 nodes, these
# sizes compiled 60-70% fewer lines for lz and es and replayed a few
# percent faster; anchors from 32 nodes on (every 8) shared a little more
# code but replayed 2-6% slower.  A chain of values read once is
# written as one expression that nests a parenthesis per node
# (`_render_forward`), and Python's tokenizer rejects more than 200
# nested parentheses, so REPLAY_CHUNK has to stay well below 200.
REPLAY_CHUNK = 128
CUT_MIN = 64  # nodes before a function may end at an anchor
CUT_EVERY = 16  # an anchor's window hashes to 0 modulo this


def _domain_error(what, a):
    raise DomainError(f"{what} {a!r}")


_REPLAY_GLOBALS = {
    "exp": math.exp,
    "log": math.log,
    "log1p": math.log1p,
    "tanh": math.tanh,
    "sqrt": math.sqrt,
    "inf": math.inf,  # repr() of a non-finite constant names one of these
    "nan": math.nan,
    "_domain_error": _domain_error,
    "_exp": _exp_float,
}


class _Unary:
    """One unary op as source text, read by recording, the float and
    array paths and replay alike: its `value` as an expression in the
    argument `a`, inlined into replay; its `partial` in `a` and the value
    `y`; a domain `check` on `a` that raises `DomainError(message)`; and
    `e`, an expression in `a` that `value` and `partial` both read as
    `e`, so that replay computes it once for the two.  The float
    functions `f` and `fd` (the value and the partial, `e` computed once)
    are built from the same text; a value that is one call of a global
    on `a` is that global itself."""

    def __init__(self, value, partial, check=None, message=None, e=None):
        self.value, self.partial, self.check, self.message, self.e = value, partial, check, message, e
        call = re.fullmatch(r"(\w+)\(a\)", value)
        let = f"e = {e}\n    " if e else ""
        ns = {}
        exec(f"def f(a):\n    {let}return {value}\ndef fd(a):\n    {let}y = {value}\n    return y, {partial}", _REPLAY_GLOBALS, ns)
        self.f = _REPLAY_GLOBALS[call[1]] if call else ns["f"]
        self.fd = ns["fd"]
        self.bad = check and eval(f"lambda a: {check}")
        reads = compile(partial, "<partial>", "eval").co_names
        self.binds_a, self.binds_y = bool(check) or "a" in reads or not call, "y" in reads
        # each text with `{a}` in place of the argument, for `of`
        self._template = {t: re.sub(r"\ba\b", "{a}", t) for t in (value, partial, check, e) if t}

    def of(self, text, a):
        """This op's `text` with the argument's text `a` in place of `a`."""
        return self._template[text].format(a=a)


# exp(-a) and exp(a) are taken only where they cannot overflow
_SIGMOID = "1.0 / (1.0 + exp(-a)) if a >= 0.0 else (e := exp(a)) / (1.0 + e)"

_UNARY = {
    EXP: _Unary("_exp(a)", "y"),
    LOG: _Unary("log(a)", "1.0 / a", "a <= 0.0", "log of non-positive value"),
    TANH: _Unary("tanh(a)", "1.0 - y * y"),
    SIGMOID: _Unary(_SIGMOID, "y * (1.0 - y)"),
    # the sigmoid's two branches as its partial, with e = exp(-|a|): at
    # a = 0.0 or -0.0 both give 0.5
    SOFTPLUS: _Unary(
        "a + log1p(e) if a > 0.0 else log1p(e)",
        "1.0 / (1.0 + e) if a > 0.0 else e / (1.0 + e)",
        e="exp(-a) if a > 0.0 else exp(a)",
    ),
    SQRT: _Unary("sqrt(a)", "0.5 / y if y > 0.0 else inf", "a < 0.0", "sqrt of negative value"),
}


class _Replay:
    """A recorded tape as straight-line Python, generated once.

    `forward` holds one function per chunk of nodes (`_chunks`); each
    node becomes the code that recording ran for it (in its reader's line,
    where `_render_forward` writes it there), with the same
    floating-point expressions, domain checks and overflow rule, so a
    replay gives the bits a fresh recording would.  A node that repeats
    its `first` node is not computed again; the first node's domain
    check runs before it, as in recording.  A value goes into the tape's
    `vals` only if something reads it there (`_live_values`); the other
    entries are set to NaN here, once.  The reverse sweep is
    generated per output node and `wrt` on first use (`backward`,
    `_describe_backward`).  Each chunk's source names its list indices and
    float constants by slot, so chunks of one shape (a step of a chain,
    one sample of several) share one compiled template, and each chunk's
    function is that code with the chunk's own values bound in
    (`_generate`), held here alone.
    """

    __slots__ = ("first", "forward", "_backward")

    def __init__(self, tape):
        self.first = first = _value_numbers(tape)
        chunks = list(_chunks(tape, [i for i, op in enumerate(tape.ops) if op > INPUT]))
        stored = _live_values(tape, chunks, first)
        vals = tape.vals
        for i, keep in enumerate(stored):
            if not keep:
                vals[i] = math.nan
        described = (_describe_forward(tape, chunk, first, stored) for chunk in chunks)
        self.forward = _generate(described, _render_forward, "v, d1, d2")
        self._backward = {}

    def backward(self, tape, output, wrt):
        """The functions of the reverse sweep from node `output` that
        give the adjoints of the inputs below `wrt` (of every input, if
        `wrt` is None).  Only the active nodes are swept (activity
        analysis): those that depend on such an input and that `output`
        depends on.  No other node adds to an active node's adjoint, so
        the other nodes' adjoints, and the other inputs', are not
        computed."""
        chunks = self._backward.get((output, wrt))
        if chunks is None:
            p1, p2 = tape.p1, tape.p2
            varied = bytearray(output + 1)  # depends on an input below `wrt`
            for i in range(output + 1):
                j, k = p1[i], p2[i]
                varied[i] = (wrt is None or i < wrt) if j < 0 else varied[j] or (k >= 0 and varied[k])
            useful = bytearray(output + 1)  # `output` depends on it
            useful[output] = 1
            nodes, last_child = [], [-1] * (output + 1)
            for i in range(output, -1, -1):
                if p1[i] >= 0 and useful[i] and varied[i]:
                    nodes.append(i)
                    for parent in (p1[i], p2[i]):
                        if parent >= 0:
                            useful[parent] = 1
                            if last_child[parent] < 0:
                                last_child[parent] = i
            described = (_describe_backward(tape, chunk, last_child, self.first, varied) for chunk in _chunks(tape, nodes))
            chunks = _generate(described, _render_backward, "g, v, d1, d2")
            self._backward[output, wrt] = chunks
        return chunks


def _value_numbers(tape):
    """`first[i]`: the earliest node with node i's op, operands (up to
    repeats) and constant, so it holds the same bits.  A constant is keyed
    by its value, but a zero (-0.0 is not 0.0) and NaN (which equals no
    float) by their reprs.  The replay keeps the numbers, so they are
    stored as machine integers, not int objects."""
    ops, p1, p2, aux = tape.ops, tape.p1, tape.p2, tape.aux
    first = array("q", range(len(ops)))
    seen = {}
    for i, op in enumerate(ops):
        if op > INPUT:
            j, k, c = p1[i], p2[i], float(aux[i])
            key = (op, first[j] if j >= 0 else j, first[k] if k >= 0 else k, c if c == c and c else repr(c))
            first[i] = seen.setdefault(key, i)
    return first


def _live_values(tape, chunks, first):
    """`stored[i]`: whether the forward sweep, cut into `chunks`, writes
    node i's value into `vals[i]`, or (an input) finds it there.  A value
    is stored only if something reads it there (liveness): a later
    function of the forward sweep, which reads an operand at its `first`;
    a reverse sweep, for any output and `wrt`, which reads both operands
    of a node x node MUL and an EXP's own value, at their `first`; or a
    caller, who reads a sink (a node no node reads, such as the
    objective).  A repeated sink copies its first node's value.  Any
    other value lives in a local of its function alone."""
    ops, p1, p2 = tape.ops, tape.p1, tape.p2
    stored, read = bytearray(len(ops)), bytearray(len(ops))
    for i, op in enumerate(ops):
        j, k = p1[i], p2[i]
        if j < 0:
            stored[i] = 1
            continue
        read[j] = 1
        if k >= 0:
            read[k] = 1
            if op == MUL:
                stored[first[j]] = stored[first[k]] = 1
        elif op == EXP:
            stored[first[i]] = 1
    for chunk in chunks:
        lo = chunk[0]  # a value below the function's first node is read from `vals`
        for i in chunk:
            sink = not read[i]
            if sink:
                stored[i] = 1
            # what node i's lines read: its operands, or the value it copies
            for p in (p1[i], p2[i]) if first[i] == i else (i,) if sink else ():
                if p >= 0 and first[p] < lo:
                    stored[first[p]] = 1
    return stored


def _chunks(tape, nodes):
    """`nodes`, in their order, cut into runs of at most REPLAY_CHUNK.
    A run of CUT_MIN nodes or more also ends at an anchor: a node where
    the last four nodes' `(op, parent offset, parent offset)` tuples hash
    to 0 modulo CUT_EVERY.  An offset is `i - p`, -2 for an input parent
    and -1 for none, so the cuts depend on the graph's structure alone
    (an int tuple's hash does not depend on PYTHONHASHSEED), and a
    pattern repeated along the tape is cut alike each time it recurs
    (content-defined chunking, as in LBFS)."""
    ops, p1, p2 = tape.ops, tape.p1, tape.p2
    kinds = [
        (ops[i], -2 if ops[j] == INPUT else i - j, k if k < 0 else -2 if ops[k] == INPUT else i - k)
        for i in nodes
        for j, k in ((p1[i], p2[i]),)
    ]
    start = 0
    for end in range(1, len(nodes) + 1):
        size = end - start
        if size >= REPLAY_CHUNK or (size >= CUT_MIN and hash(tuple(kinds[end - 4 : end])) % CUT_EVERY == 0):
            yield nodes[start:end]
            start = end
    if start < len(nodes):
        yield nodes[start:]


# Compiled shapes by structure: the key that `_describe_forward` or
# `_describe_backward` takes of a chunk, with the function's arguments;
# source is written and compiled only for a key not yet here.  A chunk's
# function takes the tape's lists as arguments and closes over no tape, so
# tapes with the same graph (one task x kind at another seed) share its
# shapes.  The cache keeps shapes only: each chunk gets a new function,
# held by its tape's `_Replay` and freed with the tape.  `cli.run_benchmark`
# empties the cache when a sweep starts (a sweep compiles a hundred-odd
# shapes); for other callers it is emptied before a shape is added to a
# cache holding CODE_CACHE_CAP shapes.
_CODE = {}
CODE_CACHE_CAP = 2048

# A slot is written in a chunk's source as a literal that compiles to one
# entry of the code's constants: index slot k as the int
# _INDEX_SLOT + k, constant slot k as the float (k + 1)e300.  Never with
# a unary minus in front, which the compiler would fold into another
# constant.
_INDEX_SLOT = 9_000_000_000_000

# A key is a chunk's records of fields (ints, bools and None) in one flat
# list, marshalled, so that a cached key takes about the memory of the
# source it stands for.  Marshal version 2 writes no references, so the
# bytes depend on the fields' values and types alone.  A constant field is
# its slot, or ~(the place of its repr in _NONFINITE), which names a global.
_NONFINITE = ("inf", "-inf", "nan")


def clear_code_cache():
    """Drop every compiled shape, so the next replay generates its own."""
    _CODE.clear()


def _const_slot(at, c):
    """The field of float constant `c`.  Its slot in `at`, a chunk's slots
    by key in slot order, is one per distinct value, as compile() keeps
    one constant per distinct value: an index is its own key, a
    constant's `(c,)`, or `(repr(c),)` for a zero, as -0.0 is not 0.0."""
    if not math.isfinite(c):
        return ~_NONFINITE.index(repr(c))
    return at.setdefault((c,) if c else (repr(c),), len(at))


def _slot_values(at):
    """The values the slots of `at` bind, in slot order."""
    return [k if type(k) is int else float(k[0]) for k in at]


def _const(k):
    """The text of constant field `k`: its slot's literal, or its repr."""
    return f"{k + 1}e300" if k >= 0 else _NONFINITE[~k]


class _Shape:
    """One compiled chunk source: its code, and the position of each slot
    in that code's constants."""

    __slots__ = ("code", "at")

    def __init__(self, text, slots):
        module = compile(text, "<tape replay>", "exec")
        self.code = next(c for c in module.co_consts if isinstance(c, CodeType))
        where = {(type(c), c): n for n, c in enumerate(self.code.co_consts) if type(c) in (int, float)}
        self.at = []
        for k, value in enumerate(slots):
            p = _INDEX_SLOT + k if type(value) is int else float(f"{k + 1}e300")
            if (type(p), p) not in where:
                raise ValueError(f"slot {k} ({p!r}) is not a constant of the compiled chunk")
            self.at.append(where[type(p), p])

    def bind(self, slots):
        """A new function running this code on `slots`' values."""
        consts = list(self.code.co_consts)
        for n, value in zip(self.at, slots):
            consts[n] = value
        return FunctionType(self.code.replace(co_consts=tuple(consts)), _REPLAY_GLOBALS)


def _generate(described, render, args):
    """One new function of `args` per `(key, slots)` in `described`.  Only
    a key not in the cache is rendered (`render(key)` gives the lines,
    which name each value by its slot's literal) and compiled: a chunk of
    a cached shape writes no source, and as render reads the key alone,
    equal keys give equal source.  The function runs the shape's bytecode
    with the slots' values as its constants, which is the bytecode a
    compile() of the lines with the values written in gives."""
    chunks = []
    for key, slots in described:
        shape = _CODE.get((args, key))
        if shape is None:
            if len(_CODE) >= CODE_CACHE_CAP:
                _CODE.clear()
            text = f"def chunk({args}):\n    " + "\n    ".join(render(key) or ["pass"]) + "\n"
            shape = _CODE[args, key] = _Shape(text, slots)
        chunks.append(shape.bind(slots))
    return chunks


def _describe_forward(tape, nodes, first, stored):
    """`(key, slots)` of one function of the forward sweep over `nodes`
    (in ascending order), its slots numbered in the order its source
    names them.  The key has a record of nine fields per node with lines,
    in chunk-relative terms: its offset; its op, 0 for a stored repeat of
    its `first` node (a sink, which copies; other repeats have no lines);
    whether it is stored; its own index's slot; where each operand is
    read: a local's offset, or ~slot of a list entry outside the chunk;
    two constants; whether a POW exponent is whole."""
    ops, p1, p2, aux = tape.ops, tape.p1, tape.p2, tape.aux
    lo = nodes[0]
    inside = set(nodes)
    at = {}
    slot = at.setdefault  # slot(index, len(at)): its slot, a new one if new
    key = []
    for i in nodes:
        f = first[i]
        if f != i:
            if stored[i]:
                own = slot(i, len(at))
                a = f - lo if f in inside else ~slot(f, len(at))
                key += (i - lo, 0, 1, own, a, None, None, None, False)
            continue
        op, j, k, s = ops[i], first[p1[i]], p2[i], stored[i]
        a = j - lo if j in inside else ~slot(j, len(at))
        if k >= 0:
            k = first[k]
            b = k - lo if k in inside else ~slot(k, len(at))
            key += (i - lo, op, s, slot(i, len(at)) if s or op == DIV else None, a, b, None, None, False)
        elif op == POW or op == RDIV:
            c = float(aux[i])
            if s:
                slot(i, len(at))  # the store names the index before the constant
            c0, own = _const_slot(at, c), slot(i, len(at))
            c1 = _const_slot(at, c - 1.0) if op == POW else _const_slot(at, -c)
            key += (i - lo, op, s, own, a, None, c0, c1, op == POW and c.is_integer())
        else:
            c0 = _const_slot(at, float(aux[i])) if op == ADD or op == MUL or op == RSUB else None
            key += (i - lo, op, s, slot(i, len(at)) if s or op in _UNARY else None, a, None, c0, None, False)
    return marshal.dumps(key, 2), _slot_values(at)


def _render_forward(key):
    """The lines of a forward function from its key (`_describe_forward`):
    each node's value and partials, computed as recording computed them.
    Every operand is read at its first node.  A value is written into `v`
    if it is stored, and kept in a local, named by its offset, if the
    function reads it more than once.  A value read once and not stored
    is written into its reader, as an expression, if it is a sum,
    difference, negation or product: these never raise on floats, so
    computing them later changes nothing.  Each is fully parenthesized,
    so a chain of them nests one parenthesis per node.  A unary op, POW,
    DIV or RDIV reads an operand held in a local by its name, and binds
    any other operand to `a` where its text reads it more than once."""
    records = list(zip(*[iter(marshal.loads(key))] * 9))
    reads = Counter(r for record in records for r in record[4:6] if r is not None and r >= 0)
    inline = {}  # offset -> the expression its one reader writes in its place
    lines = []

    def read(r):
        return inline.get(r) or (f"x{r}" if r >= 0 else f"v[{_INDEX_SLOT + ~r}]")

    def named(a):
        """A name holding the operand whose text is `a`."""
        if a[0] == "x":  # only a local's text starts with x
            return a
        lines.append(f"a = {a}")
        return "a"

    for n, op, stored, own, a, b, c0, c1, whole in records:
        d = own is not None and _INDEX_SLOT + own  # the node's own index
        if not op:
            lines.append(f"v[{d}] = {read(a)}")
            continue
        a = read(a)
        b = read(b) if b is not None else None
        if op == ADD:
            value = f"{a} + {b or _const(c0)}"
        elif op == SUB:
            value = f"{a} - {b}"
        elif op == RSUB:
            value = f"{_const(c0)} - {a}"
        elif op == MUL:
            value = f"{a} * {b or _const(c0)}"
        elif op == NEG:
            value = f"-{a}"
        else:
            value = None
        if value and not stored and reads[n] == 1:
            inline[n] = f"({value})"
            continue
        # the value is stored, read again in this function, or both
        out = " = ".join(([f"v[{d}]"] if stored else []) + ([f"x{n}"] if reads[n] else []))
        if value:
            lines.append(f"{out} = {value}")
        elif op == EXP:
            lines.append(f"{out} = _exp({a})")  # the reverse sweep reads the value
        elif op in _UNARY:
            u = _UNARY[op]
            if u.binds_a:
                a = named(a)
            if u.check:
                lines.append(f"if {u.of(u.check, a)}: _domain_error({u.message!r}, {a})")
            if u.e:
                lines.append(f"e = {u.of(u.e, a)}")
            lines.append(f"{out}{' = y' if u.binds_y else ''} = {u.of(u.value, a)}")
            lines.append(f"d1[{d}] = {u.of(u.partial, a)}")
        elif op == POW:
            a = named(a)
            if not whole:
                lines.append(f"if {a} < 0.0: _domain_error('fractional power of negative value', {a})")
            lines.append(f"{out} = {a} ** {_const(c0)}")
            lines.append(f"d1[{d}] = {_const(c0)} * {a} ** {_const(c1)}")
        elif op == DIV:
            a = named(a)
            lines += [f"inv = 1.0 / {b}", f"{out} = {a} * inv", f"d1[{d}] = inv", f"d2[{d}] = -{a} * inv * inv"]
        elif op == RDIV:
            a = named(a)
            lines += [f"{out} = {_const(c0)} / {a}", f"d1[{d}] = {_const(c1)} / ({a} * {a})"]
        else:
            raise ValueError(f"unknown op kind {op}")
    return lines


# The kinds of a reverse-sweep record (`_describe_backward`), and of a
# term's factor: none, a constant, or an entry of `v`, `d1` or `d2`
_START, _NEW, _INTO, _IF, _ALSO = range(5)
_CONST_FACTOR, _V, _D1, _D2 = 1, 2, 3, 4


def _describe_backward(tape, nodes, last_child, first, active):
    """`(key, slots)` of one function of the reverse sweep over `nodes`
    (active nodes, in descending order), giving the adjoints of the
    active inputs (`active[i]` true) that `Tape.backward`'s loop gives,
    bit for bit; its slots are numbered in the order its source names
    them.  No term goes into an inactive parent: no wanted adjoint reads
    its adjoint.  The key has a record per line, which `_render_backward`
    writes: `(kind, a, target, minus, factor kind, factor, base)`.  A
    local is named by its node's offset `hi - i`; a target is a local, or
    ~slot of a `g` entry.  _START starts a local from the `g` entry at
    slot `base`, or from zero.  The term is local `a`, negated if
    `minus`, times a constant or a list entry if it has a factor.  _INTO
    adds it into the target; _NEW starts a local from it (plus `base`'s
    entry); _IF adds it where `a` is not zero, each _ALSO one more there.

    Each node's adjoint sums its children's terms in descending child
    order, as the loop does.  A node inside `nodes` keeps its adjoint in
    a local, starting from the list entry `g[i]` only where a child
    outside `nodes` added to it (`last_child[i] > hi`); inputs always sum
    in `g`, which starts at +0.0 and so never holds -0.0.  An ADD or SUB
    node's local is dead once its terms are emitted, so the first of its
    `+` parents whose adjoint would start as a copy of it takes the local
    over instead (a subtrahend starts from the negated adjoint).  The
    ADD's other parent reads the same local, with no copy, where it is
    the node just below, so it is swept next, before anything writes the
    local: it must not add to the local's holder, nor name one parent
    twice, and it passes the local on only by the same rule, to the node
    just below it.  An ADD whose first parent is the node just below
    takes its parents in the other order.  Partials are read at the
    node's `first`, which forward alone computes, and so are the operands
    of a MUL and the value of an EXP, which forward stores into `v` there
    alone; each node keeps its own adjoint, so the sums are those of the
    loop.  The loop skips a node whose adjoint is zero; that matters only
    where a partial can be infinite or NaN (0 * inf is NaN), so only
    those nodes test it.  Elsewhere the term is a signed zero, which
    changes neither a sum that is not -0.0 nor whether an inner node's
    adjoint is zero.
    """
    ops, p1, p2, aux = tape.ops, tape.p1, tape.p2, tape.aux
    hi = nodes[0]
    inside = set(nodes)
    at = {}
    slot = at.setdefault  # slot(index, len(at)): its slot, a new one if new
    local = {}  # node -> the offset naming the local that holds its adjoint
    shares = {}  # node -> the node whose local it reads as well
    key = []

    def term(parent, minus, factor_kind=0, factor=None):
        """The record of a term of local `a` into `parent`'s adjoint."""
        if parent not in inside:
            return _INTO, a, ~slot(parent, len(at)), minus, factor_kind, factor, None
        g = local.get(parent)
        if g is not None:
            return _INTO, a, g, minus, factor_kind, factor, None
        g = local[parent] = hi - parent
        return _NEW, a, g, minus, factor_kind, factor, slot(parent, len(at)) if last_child[parent] > hi else None

    def guarded(terms):
        """The records of one line of `terms`, done where `a` is not zero,
        after those starting its new locals."""
        fields = []
        for kind, _, g, _, _, _, base in terms:
            if kind == _NEW:
                fields += (_START, a, g, False, 0, None, base)
        for n, record in enumerate(terms):
            fields += (_ALSO if n else _IF, *record[1:6], None)
        return fields

    for i in nodes:
        a = local.get(i)
        if a is None:  # the output, or a node whose children are all in earlier functions
            a = hi - i
            key += (_START, a, a, False, 0, None, slot(i, len(at)))
        op, j, k = ops[i], p1[i], p2[i]
        if op == ADD or op == SUB:
            # whether this node's local is no longer free, and which
            # other node holds it
            handed, holder = i in shares, shares.get(i)
            if op == ADD and j == i - 1:
                j, k = k, j  # the node just below may read the local
            for parent, minus in ((j, False), (k, op == SUB)):
                if parent < 0 or not active[parent]:
                    continue  # a folded constant, or an adjoint nothing wanted reads
                if not minus and parent in inside and parent not in local and last_child[parent] <= hi:
                    # `g{parent} = a` would only copy
                    if not handed:
                        local[parent] = a
                        handed, holder = True, parent
                        continue
                    if parent == i - 1 and j != k and holder not in (p1[parent], p2[parent]):
                        local[parent] = a  # swept next: nothing writes `a` before
                        shares[parent] = holder
                        continue
                key += term(parent, minus)
        elif op == NEG or op == RSUB:
            key += term(j, True)
        elif op == MUL and k < 0:
            c = float(aux[i])
            record = term(j, False, _CONST_FACTOR, _const_slot(at, c))
            key += record if math.isfinite(c) else guarded([record])
        else:  # a MUL reads the operands, an EXP its value, another op its partials
            f = first[i]
            (fj, sj), (fk, sk) = ((_V, first[k]), (_V, first[j])) if op == MUL else ((_V if op == EXP else _D1, f), (_D2, f))
            terms = [term(j, False, fj, slot(sj, len(at)))] if active[j] else []
            if k >= 0 and active[k]:
                terms.append(term(k, False, fk, slot(sk, len(at))))
            key += guarded(terms)
    return marshal.dumps(key, 2), _slot_values(at)


def _render_backward(key):
    """The lines of a reverse function from its key (`_describe_backward`)."""
    lines = []
    for kind, a, target, minus, factor_kind, factor, base in zip(*[iter(marshal.loads(key))] * 7):
        g = f"g{target}" if target >= 0 else f"g[{_INDEX_SLOT + ~target}]"
        start = base is not None and f"g[{_INDEX_SLOT + base}]"
        if kind == _START:
            lines.append(f"{g} = {start or '0.0'}")
            continue
        sign, term = "-" if minus else "+", f"g{a}"
        if factor_kind == _CONST_FACTOR:
            term += f" * {_const(factor)}"
        elif factor_kind:
            term += f" * {('v', 'd1', 'd2')[factor_kind - _V]}[{_INDEX_SLOT + factor}]"
        if kind != _NEW:
            text = f"{g} {sign}= {term}"
        elif start:
            text = f"{g} = {start} {sign} {term}"
        else:
            text = f"{g} = {'-' if minus else ''}{term}"
        if kind == _IF:
            lines.append(f"if g{a} != 0.0: {text}")
        elif kind == _ALSO:
            lines[-1] += f"; {text}"
        else:
            lines.append(text)
    return lines


def _unary_helper(name, op):
    """The helper `name` of the table's `op`.  It tests for a float
    first, so the float path that samplers run pays one type test; a
    Node goes on the tape, an array of samples is mapped entry by entry,
    and any other number takes the float path."""
    u = _UNARY[op]
    f, fd, bad, message = u.f, u.fd, u.bad, u.message

    def helper(x):
        if type(x) is not float:
            if isinstance(x, Node):
                a = x.tape.vals[x.i]
                if bad and bad(a):
                    raise DomainError(f"{message} {a!r}")
                y, d = fd(a)
                return x.tape._unary(op, x.i, y, d)
            if isinstance(x, np.ndarray):
                if bad and bad(x).any():
                    raise DomainError(f"{message} {float(x[bad(x)][0])!r}")
                return np.fromiter(map(f, x.tolist()), float, len(x))
        if bad and bad(x):
            raise DomainError(f"{message} {x!r}")
        return f(x)

    helper.__name__ = helper.__qualname__ = name
    return helper


exp = _unary_helper("exp", EXP)
log = _unary_helper("log", LOG)
tanh = _unary_helper("tanh", TANH)
sigmoid = _unary_helper("sigmoid", SIGMOID)
softplus = _unary_helper("softplus", SOFTPLUS)
sqrt = _unary_helper("sqrt", SQRT)


def value_of(x):
    """Float value of a Node or a plain number.  An array of samples
    raises `PerSampleOnly`: a decision on the value needs one sample."""
    if isinstance(x, Node):
        return x.value
    if isinstance(x, np.ndarray):
        raise PerSampleOnly("a value was read from a batch of samples")
    return float(x)


def value_for_check(x):
    """`value_of` without setting `Tape.value_read`, for a check whose
    failure a replay reproduces by itself; each caller says why.  An
    array of samples is returned as is, for a check per sample."""
    if type(x) is float:
        return x
    if isinstance(x, Node):
        return x.tape.vals[x.i]
    return x if isinstance(x, np.ndarray) else float(x)


def record(fn, point):
    """Record `fn` over fresh inputs at `point`.

    `fn` takes a list of Nodes and returns a single Node.  Returns
    (tape, inputs, output).
    """
    tape = Tape()
    inputs = [tape.input(v) for v in point]
    out = fn(inputs)
    if not isinstance(out, Node):
        raise TypeError("recorded function must return a Node")
    return tape, inputs, out


def gradient(fn, point):
    """Gradient of `fn` (list-of-Nodes -> Node) at `point`."""
    tape, _, out = record(fn, point)
    return tape.backward(out)[: len(point)]  # `record` declares the inputs first


def finite_difference_check(fn, point, step=1e-5):
    """Max relative disagreement between AD and central differences.

    Relative error per input is |AD - FD| / max(1, |AD|).
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    grad = gradient(fn, point)

    def feval(vals):
        tape = Tape()
        return fn([tape.input(v) for v in vals]).value

    worst = 0.0
    for k in range(len(point)):
        hi = list(point)
        lo = list(point)
        hi[k] += step
        lo[k] -= step
        fd = (feval(hi) - feval(lo)) / (2.0 * step)
        err = abs(grad[k] - fd) / max(1.0, abs(grad[k]))
        if err > worst:
            worst = err
    return worst
