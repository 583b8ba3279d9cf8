"""Distribution families and parameter-constraining bijectors.

Families carry a parameter schema (name, constraint kind) and provide
log densities plus reparameterized sampling (continuous families) or
inverse-CDF sampling (discrete families).  All density code is written
against the generic helpers in :mod:`convexvi.autodiff`, so the same
formulas evaluate on plain floats, on a tape, or on float arrays that
hold one entry per sample.  On an array a bad scale raises
``ParameterError`` and a sample outside the support ``PerSampleOnly``.

Scale-type parameters materialized from unconstrained storage get a
small additive floor (``SCALE_FLOOR``) after the softplus, since an
optimizer can push the softplus pre-image toward -inf and produce a
degenerate density.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import PerSampleOnly, value_for_check, value_of

HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
SCALE_FLOOR = 1e-6

NEG_INF = float("-inf")


class ParameterError(ValueError):
    """A distribution received parameters violating its schema."""


# ---------------------------------------------------------------------------
# constraint bijectors


class Identity:
    kind = "identity"

    def forward(self, u):
        return u

    def inverse(self, y):
        return y

    def log_det_jacobian(self, u):
        return 0.0


class Softplus:
    """Map the real line to (0, inf)."""

    kind = "softplus"

    def forward(self, u):
        return ad.softplus(u)

    def inverse(self, y):
        y = float(y)
        if not y > 0.0:  # NaN too
            raise ValueError(f"softplus inverse needs y > 0, got {y!r}")
        if y > 20.0:
            return y + math.log1p(-math.exp(-y))
        return math.log(math.expm1(y))

    def log_det_jacobian(self, u):
        # d softplus/du = sigmoid(u)
        return -ad.softplus(-u)


class Sigmoid:
    """Map the real line to the open unit interval."""

    kind = "sigmoid"

    def forward(self, u):
        return ad.sigmoid(u)

    def inverse(self, y):
        y = float(y)
        if not 0.0 < y < 1.0:
            raise ValueError(f"sigmoid inverse needs 0 < y < 1, got {y!r}")
        return math.log(y) - math.log1p(-y)


class SoftmaxCentered:
    """Map R^(k-1) to the interior of the k-simplex.

    The last logit is pinned to zero, so the map is a bijection onto the
    simplex interior.
    """

    kind = "softmax-centered"

    def forward(self, u):
        logits = list(u) + [0.0]
        m = max(value_of(z) for z in logits)
        exps = [ad.exp(z - m) for z in logits]
        total = exps[0]
        for e in exps[1:]:
            total = total + e
        return [e / total for e in exps]

    def inverse(self, probs):
        probs = [float(p) for p in probs]
        if not all(p > 0.0 for p in probs):  # NaN too
            raise ValueError(f"simplex inverse needs strictly positive probabilities, got {probs!r}")
        ref = math.log(probs[-1])
        return [math.log(p) - ref for p in probs[:-1]]


IDENTITY = Identity()
SOFTPLUS = Softplus()
SIGMOID = Sigmoid()
SOFTMAX_CENTERED = SoftmaxCentered()

_BIJECTOR_FOR_KIND = {
    "unconstrained": IDENTITY,
    "positive": SOFTPLUS,
    "unit-interval": SIGMOID,
    "simplex": SOFTMAX_CENTERED,
}


def bijector_for(constraint_kind):
    return _BIJECTOR_FOR_KIND[constraint_kind]


def constrain_param(constraint_kind, u):
    """Unconstrained storage -> usable parameter value.

    Positive parameters get the SCALE_FLOOR shift on top of softplus.
    """
    if constraint_kind == "positive":
        return ad.softplus(u) + SCALE_FLOOR
    return bijector_for(constraint_kind).forward(u)


def unconstrain_param(constraint_kind, y):
    """Inverse of :func:`constrain_param` (float-only)."""
    if constraint_kind == "positive":
        y = float(y)
        if not y > SCALE_FLOOR:  # NaN too
            raise ValueError(f"positive parameter must exceed the {SCALE_FLOOR} floor, got {y!r}")
        return SOFTPLUS.inverse(y - SCALE_FLOOR)
    return bijector_for(constraint_kind).inverse(y)


# ---------------------------------------------------------------------------
# families


def _check_scale(scale, who):
    # unnoted read: a replay divides by the scale and takes its log
    s = value_for_check(scale)
    ok = s > 0.0  # False for NaN; one bool per sample on an array
    if ok is not True and not np.all(ok):
        bad = float(s[~ok][0]) if isinstance(s, np.ndarray) else s
        raise ParameterError(f"{who} requires scale > 0, got {bad!r}")


def zero_density(test):
    """Whether `test`, one bool or one per sample on an array, puts a
    sample's density at 0.  A batch holding such a sample raises
    `PerSampleOnly`: the per-sample loop evaluates it."""
    if test is not True and test is not False and test.any():
        raise PerSampleOnly("a sample of the batch has zero density")
    return test is True


class Normal:
    name = "Normal"
    param_schema = (("loc", "unconstrained"), ("scale", "positive"))
    is_discrete = False
    noise = "normal"
    support = "real"

    def log_prob(self, params, value):
        loc, scale = params
        _check_scale(scale, self.name)
        z = (value - loc) / scale
        return -0.5 * (z * z) - ad.log(scale) - HALF_LOG_2PI

    def sample_reparam(self, params, eps):
        loc, scale = params
        return loc + scale * eps

    def in_support(self, value):
        return math.isfinite(value)

    def mean_proxy(self, params):
        return value_of(params[0])


class HalfNormal:
    """Normal(0, scale) folded onto the nonnegative half line."""

    name = "HalfNormal"
    param_schema = (("scale", "positive"),)
    is_discrete = False
    noise = "abs-normal"
    support = "positive"

    def log_prob(self, params, value):
        (scale,) = params
        _check_scale(scale, self.name)
        # unnoted read: a sample, scale * |eps| or a softplus, is never < 0
        if zero_density(value_for_check(value) < 0.0):
            return NEG_INF
        z = value / scale
        return math.log(2.0) - 0.5 * (z * z) - ad.log(scale) - HALF_LOG_2PI

    def sample_reparam(self, params, eps):
        # eps is |standard normal| already: `draw_noise` folds abs-normal noise
        (scale,) = params
        return scale * eps

    def in_support(self, value):
        return value >= 0.0

    def mean_proxy(self, params):
        return value_of(params[0]) * math.sqrt(2.0 / math.pi)


class LogNormal:
    """exp of a Normal; density by change of variables on the base Normal."""

    name = "LogNormal"
    param_schema = (("loc", "unconstrained"), ("scale", "positive"))
    is_discrete = False
    noise = "normal"
    support = "positive"

    def log_prob(self, params, value):
        loc, scale = params
        _check_scale(scale, self.name)
        # unnoted read: a replay takes the log of the value below
        if zero_density(value_for_check(value) <= 0.0):
            return NEG_INF
        log_value = ad.log(value)
        z = (log_value - loc) / scale
        return -0.5 * (z * z) - ad.log(scale) - HALF_LOG_2PI - log_value

    def sample_reparam(self, params, eps):
        loc, scale = params
        return ad.exp(loc + scale * eps)

    def in_support(self, value):
        return value > 0.0

    def mean_proxy(self, params):
        # median; the mean is too sensitive to heavy tails for init purposes
        return math.exp(value_of(params[0]))


class Bernoulli:
    name = "Bernoulli"
    param_schema = (("prob", "unit-interval"),)
    is_discrete = True
    noise = "uniform"
    support = "binary"

    def log_prob(self, params, value):
        (prob,) = params
        p = value_of(prob)
        if not 0.0 <= p <= 1.0:
            raise ParameterError(f"Bernoulli prob must lie in [0, 1], got {p!r}")
        v = value_of(value)
        if v not in (0.0, 1.0):
            return NEG_INF
        if v == 1.0:
            return ad.log(prob) if p > 0.0 else NEG_INF
        return ad.log(1.0 - prob) if p < 1.0 else NEG_INF

    def sample_score(self, params, u):
        return 1.0 if u < value_of(params[0]) else 0.0

    def in_support(self, value):
        return value in (0.0, 1.0)

    def mean_proxy(self, params):
        return value_of(params[0])


class Categorical:
    """Finite distribution over {0, ..., k-1} parameterized on the simplex."""

    name = "Categorical"
    is_discrete = True
    noise = "uniform"
    support = "index"

    def __init__(self, num_classes):
        if num_classes < 2:
            raise ValueError("Categorical needs at least 2 classes")
        self.num_classes = num_classes
        self.param_schema = (("probs", "simplex"),)

    def _check(self, probs):
        if len(probs) != self.num_classes:
            raise ParameterError(
                f"Categorical expects {self.num_classes} probabilities, got {len(probs)}"
            )
        total = sum(value_of(p) for p in probs)
        if abs(total - 1.0) > 1e-8 or any(value_of(p) < 0.0 for p in probs):
            raise ParameterError(f"Categorical probs must form a simplex, got sum {total!r}")

    def log_prob(self, params, value):
        (probs,) = params
        self._check(probs)
        v = value_of(value)
        idx = int(v)
        if idx != v or not 0 <= idx < self.num_classes:
            return NEG_INF
        p = probs[idx]
        return ad.log(p) if value_of(p) > 0.0 else NEG_INF

    def sample_score(self, params, u):
        (probs,) = params
        self._check(probs)
        cum = 0.0
        for idx, p in enumerate(probs):
            cum += value_of(p)
            if u < cum:
                return float(idx)
        return float(self.num_classes - 1)

    def in_support(self, value):
        return value == int(value) and 0 <= int(value) < self.num_classes

    def mean_proxy(self, params):
        (probs,) = params
        vals = [value_of(p) for p in probs]
        return float(vals.index(max(vals)))


def draw_noise(kinds, n, rng):
    """`n` rows of noise, one column per family `noise` kind in `kinds`:
    an `(n, k)` float array holding `n * k` scalar draws in row-major
    order (one `standard_normal` call when no kind is "uniform"), with
    the "abs-normal" columns folded by `abs`."""
    if "uniform" in kinds:
        draw = [rng.uniform if kind == "uniform" else rng.standard_normal for kind in kinds]
        eps = np.array([[f() for f in draw] for _ in range(n)]).reshape(n, len(kinds))
    else:
        eps = rng.standard_normal((n, len(kinds)))
    np.abs(eps, out=eps, where=np.array([kind == "abs-normal" for kind in kinds], dtype=bool))
    return eps


NORMAL = Normal()
HALF_NORMAL = HalfNormal()
LOG_NORMAL = LogNormal()
BERNOULLI = Bernoulli()


_SUPPORT_BIJECTOR = {"real": IDENTITY, "positive": SOFTPLUS}


def support_bijector(family):
    """Bijector from the real line onto a continuous family's support."""
    if family.is_discrete:
        raise TypeError(f"{family.name} has no continuous support bijector")
    return _SUPPORT_BIJECTOR[family.support]
