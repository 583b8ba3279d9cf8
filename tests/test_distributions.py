import math

import numpy as np
import pytest
from scipy import stats

from convexvi import autodiff as ad
from convexvi import distributions as dist


def test_normal_log_prob_standard_at_zero():
    lp = dist.NORMAL.log_prob((0.0, 1.0), 0.0)
    assert lp == pytest.approx(-0.918939, abs=1e-6)


def test_bernoulli_log_prob_half():
    lp = dist.BERNOULLI.log_prob((0.5,), 1.0)
    assert lp == pytest.approx(math.log(0.5), abs=1e-12)


def test_lognormal_log_prob_at_one():
    # Normal(0,1) log-pdf at ln 1, minus ln 1
    lp = dist.LOG_NORMAL.log_prob((0.0, 1.0), 1.0)
    assert lp == pytest.approx(-0.918939, abs=1e-6)


def test_log_probs_match_scipy():
    rng = np.random.default_rng(0)
    for _ in range(25):
        loc = rng.normal()
        scale = abs(rng.normal()) + 0.1
        x = rng.normal() * 3.0
        assert dist.NORMAL.log_prob((loc, scale), x) == pytest.approx(
            stats.norm.logpdf(x, loc, scale), rel=1e-12
        )
        xp = abs(x) + 0.01
        assert dist.HALF_NORMAL.log_prob((scale,), xp) == pytest.approx(
            stats.halfnorm.logpdf(xp, scale=scale), rel=1e-12
        )
        assert dist.LOG_NORMAL.log_prob((loc, scale), xp) == pytest.approx(
            stats.lognorm.logpdf(xp, s=scale, scale=math.exp(loc)), rel=1e-12
        )


def test_out_of_support_gives_neg_inf_not_exception():
    assert dist.HALF_NORMAL.log_prob((1.0,), -0.5) == float("-inf")
    assert dist.LOG_NORMAL.log_prob((0.0, 1.0), -2.0) == float("-inf")
    assert dist.BERNOULLI.log_prob((0.5,), 0.3) == float("-inf")
    assert dist.Categorical(3).log_prob(([0.2, 0.3, 0.5],), 7.0) == float("-inf")


def test_invalid_params_raise():
    with pytest.raises(dist.ParameterError):
        dist.NORMAL.log_prob((0.0, -1.0), 0.0)
    with pytest.raises(dist.ParameterError):
        dist.BERNOULLI.log_prob((1.5,), 1.0)
    with pytest.raises(dist.ParameterError):
        dist.Categorical(2).log_prob(([0.9, 0.3],), 0.0)


def test_reparam_examples():
    assert dist.NORMAL.sample_reparam((2.0, 3.0), 0.0) == 2.0
    assert dist.NORMAL.sample_reparam((0.0, 1.0), 1.5) == 1.5
    assert dist.LOG_NORMAL.sample_reparam((0.0, 1.0), 0.0) == 1.0
    # HalfNormal noise arrives folded (`draw_noise` takes abs of it)
    assert dist.HALF_NORMAL.sample_reparam((2.0,), 1.0) == 2.0
    assert dist.HALF_NORMAL.sample_reparam((2.0,), 0.25) == 0.5


def scalar_draws(kinds, n, rng):
    """Reference for `draw_noise`: one scalar `rng` call per entry, row
    by row, as `(n, len(kinds))` floats."""
    draw = {
        "normal": rng.standard_normal,
        "abs-normal": lambda: abs(rng.standard_normal()),
        "uniform": rng.uniform,
    }
    return np.array([[draw[kind]() for kind in kinds] for _ in range(n)]).reshape(n, len(kinds))


MIXED_NOISE = ("normal", "uniform", "abs-normal", "abs-normal", "uniform", "normal")


@pytest.mark.parametrize(
    "kinds, n",
    [(MIXED_NOISE, 1), (MIXED_NOISE, 3), (("normal", "abs-normal", "normal", "normal"), 257)],
    ids=["mixed-1", "mixed-3", "normal-257"],
)
def test_draw_noise_equals_scalar_draws_one_at_a_time(kinds, n):
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    eps = dist.draw_noise(kinds, n, rng)
    assert eps.shape == (n, len(kinds)) and eps.dtype == np.float64
    assert eps.tobytes() == scalar_draws(kinds, n, ref_rng).tobytes()
    assert rng.standard_normal() == ref_rng.standard_normal()  # same stream position


def test_score_sampling_edge_probs():
    for u in (0.0, 0.31, 0.99):
        assert dist.BERNOULLI.sample_score((1.0,), u) == 1.0
        assert dist.BERNOULLI.sample_score((0.0,), u) == 0.0
        assert dist.Categorical(3).sample_score(([0.0, 1.0, 0.0],), u) == 1.0


def test_densities_normalize_by_quadrature():
    rng = np.random.default_rng(42)
    for _ in range(5):
        loc = rng.normal()
        scale = abs(rng.normal()) + 0.2

        grid = np.linspace(loc - 12 * scale, loc + 12 * scale, 40001)
        pdf = np.array([math.exp(dist.NORMAL.log_prob((loc, scale), x)) for x in grid])
        assert np.trapezoid(pdf, grid) == pytest.approx(1.0, abs=1e-4)

        grid = np.linspace(1e-9, 12 * scale, 40001)
        pdf = np.array([math.exp(dist.HALF_NORMAL.log_prob((scale,), x)) for x in grid])
        assert np.trapezoid(pdf, grid) == pytest.approx(1.0, abs=1e-4)

        # integrate the LogNormal in log space to tame the tail
        zgrid = np.linspace(loc - 12 * scale, loc + 12 * scale, 40001)
        pdf = np.array(
            [
                math.exp(dist.LOG_NORMAL.log_prob((loc, scale), math.exp(z)) + z)
                for z in zgrid
            ]
        )
        assert np.trapezoid(pdf, zgrid) == pytest.approx(1.0, abs=1e-4)


def test_reparam_normal_sample_mean():
    rng = np.random.default_rng(1)
    loc, scale, n = 0.7, 1.3, 10**5
    draws = [dist.NORMAL.sample_reparam((loc, scale), e) for e in rng.standard_normal(n)]
    se = scale / math.sqrt(n)
    assert abs(np.mean(draws) - loc) < 4 * se


def test_log_prob_finite_in_support():
    rng = np.random.default_rng(9)
    for _ in range(200):
        loc = rng.normal()
        scale = abs(rng.normal()) + 0.05
        assert math.isfinite(dist.NORMAL.log_prob((loc, scale), rng.normal() * 5))
        assert math.isfinite(dist.HALF_NORMAL.log_prob((scale,), abs(rng.normal()) + 1e-12))
        assert math.isfinite(dist.LOG_NORMAL.log_prob((loc, scale), abs(rng.normal()) + 1e-6))
        assert math.isfinite(dist.BERNOULLI.log_prob((0.4,), 1.0))


def test_bijector_round_trips():
    grid = np.linspace(-20.0, 20.0, 4001)
    for bij in (dist.IDENTITY, dist.SOFTPLUS):
        for u in grid:
            assert abs(bij.inverse(bij.forward(u)) - u) < 1e-10, (bij.kind, u)


def test_sigmoid_round_trip():
    # Beyond |u| ~ 13.4 the forward value sits so close to 0/1 that float64
    # cannot encode the logit to 1e-10: the representable grid spacing in
    # logit space is ulp(1)/sigmoid'(u).  Assert 1e-10 where that spacing
    # permits it, and quantization-level accuracy elsewhere.
    for u in np.linspace(-20.0, 20.0, 4001):
        err = abs(dist.SIGMOID.inverse(dist.SIGMOID.forward(u)) - u)
        s = dist.SIGMOID.forward(float(u))
        quantum = np.finfo(float).eps / (s * (1.0 - s))
        assert err < max(1e-10, 4.0 * quantum), u


def test_softmax_centered_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(200):
        u = list(rng.uniform(-20, 20, size=3))
        back = dist.SOFTMAX_CENTERED.inverse(dist.SOFTMAX_CENTERED.forward(u))
        assert np.allclose(back, u, atol=1e-9)


def test_bijector_examples():
    assert dist.SOFTPLUS.forward(0.0) == pytest.approx(0.693147, abs=1e-6)
    assert dist.SIGMOID.forward(0.0) == 0.5
    assert dist.SIGMOID.inverse(0.5) == pytest.approx(0.0, abs=1e-15)


def test_unconstrain_at_boundary_errors():
    with pytest.raises(ValueError):
        dist.SIGMOID.inverse(0.0)
    with pytest.raises(ValueError):
        dist.SIGMOID.inverse(1.0)
    with pytest.raises(ValueError):
        dist.SOFTPLUS.inverse(0.0)
    with pytest.raises(ValueError):
        dist.SOFTMAX_CENTERED.inverse([0.0, 1.0])


def test_inverses_reject_nan():
    # NaN passed the `<= 0` tests of all but the sigmoid, and came back as
    # a NaN parameter where the callers' fallback start was due
    for call in (
        lambda: dist.SOFTPLUS.inverse(math.nan),
        lambda: dist.unconstrain_param("positive", math.nan),
        lambda: dist.SOFTMAX_CENTERED.inverse([0.5, math.nan, 0.5]),
        lambda: dist.SIGMOID.inverse(math.nan),
    ):
        with pytest.raises(ValueError, match="nan"):
            call()


def test_log_det_jacobians_match_finite_differences():
    # the support bijectors, the only ones that take a Jacobian
    for bij in (dist.IDENTITY, dist.SOFTPLUS):
        for u in (-3.0, -0.4, 0.0, 1.2, 6.0):
            h = 1e-4
            fd = (bij.forward(u + h) - bij.forward(u - h)) / (2 * h)
            assert bij.log_det_jacobian(u) == pytest.approx(math.log(fd), abs=1e-6)


def test_constrain_param_floor_applies_to_positive():
    y = dist.constrain_param("positive", -40.0)
    assert y >= dist.SCALE_FLOOR
    u = dist.unconstrain_param("positive", dist.constrain_param("positive", 1.3))
    assert u == pytest.approx(1.3, abs=1e-9)


def test_constrain_param_works_on_tape():
    tape = ad.Tape()
    u = tape.input(0.3)
    y = dist.constrain_param("positive", u)
    g = tape.backward(y)
    assert y.value == pytest.approx(dist.constrain_param("positive", 0.3))
    # derivative of softplus + floor is sigmoid
    assert g[u.i] == pytest.approx(ad.sigmoid(0.3), rel=1e-12)


def test_checks_act_per_sample_on_arrays():
    for bad in (0.0, -1.0, math.nan):
        scales = np.array([1.0, bad, 2.0])
        with pytest.raises(dist.ParameterError, match=f"got {bad!r}$"):
            dist.NORMAL.log_prob((0.0, scales), np.zeros(3))
    # a sample of density 0 leaves the batch to the per-sample loop; on
    # floats it is -inf
    for family, params, inside, outside in (
        (dist.LOG_NORMAL, (0.3, 1.2), [1.5, 2.0, math.inf], [0.0, -1.0]),
        (dist.HALF_NORMAL, (1.2,), [1.5, 0.0, 2.0, math.inf], [-1.0]),
    ):
        out = family.log_prob(params, np.array(inside))
        expected = np.array([family.log_prob(params, v) for v in inside])
        assert out.tobytes() == expected.tobytes(), family.name
        for v in outside:
            assert family.log_prob(params, v) == -math.inf
            with pytest.raises(ad.PerSampleOnly):
                family.log_prob(params, np.array([1.5, v, 2.0]))
