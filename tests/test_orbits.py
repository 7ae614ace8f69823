"""Orbit statistics tests.

Frozen oracles used below, each recomputed independently before freezing:

* full 2-shift primitive necklace counts, brute-forced over rotation sets
  for n <= 12 and continued by Moebius inversion: 2, 1, 2, 3, 6, 9, 18,
  30, 56, 99, 186, 335, 630, 1161, 2182, 4080, 7710, 14532 for n = 1..18.
* doubling fixed points in closed form: the word read as a binary integer
  j gives x* = j / (2^n - 1); so "01" -> 1/3, "001" -> 1/7, "1" -> 1.
* three-symbol family with 0>2 forbidden: transfer-matrix traces 3, 7,
  18, 47, 123, 322, 843, 2207 and necklace counts 3, 2, 5, 10, 24, 50,
  120, 270 for n = 1..8 (independent integer matrix powers).
* tau = 1: pi(4.5) = 2 + 1 + 2 + 3 = 8; li checked against a direct
  quadrature of 1/log u on [2, y], and against mpmath's Ei in 40 digits
  from just above 2 up to e^LOG_FLOAT_MAX.
* entropy roots on a flat roof c: log rho(A) / c, A the transition
  matrix (log 2 for doubling, log 3 for the full three-symbol family),
  from the scalar pressure equations; on doubling with roof c0 + c1 x,
  the root of -s c0 + log(1 + e^(-s c1)) (each period-n orbit's section
  points sum to its count of 1s).
* pressures P(-s tau) from det(1 - zL) over the orbit table, to 1e-14:
  0.19873318128019 and -0.28495205173203 on doubling with roof
  1 + 0.3 sin(2 pi x) (orbits to length 16), 0.60110865364558 and
  0.10855463969090 on the full three-symbol family with roof
  1 + 0.2 sin(2 pi x) (length 12), at s = 0.5 and 1; the grid pressure at
  N = 1024, 4096 and 16384 converges to each as N^-2.
* entropies h with P(-h tau) = 0 from the same determinant, to 1e-14:
  0.35037379885910 on doubling with roof 2 + 0.5 sin(2 pi x) (orbits to
  length 16) and 0.56638334255130 on the full three-symbol family with
  roof 1.8 + 0.1x + 0.3 sin(2 pi x) - 0.2 cos(2 pi x) (length 12); the
  grid entropy at N = 1024 and 4096 converges to each as N^-2.
* sin roof 2 + 0.5 sin(2 pi x) zero-lag covariance of sin(2 pi x): the
  size-biased density (2 + 0.5 sin)/2 gives E[A^2] = 1/2 and
  E[A] = 1/8, so C(0) = 1/2 - 1/64 = 31/64 exactly.
* the flat roof c = 2 on doubling, weight 2^-n_p e^(-s T_p): det(1 - zL)
  = prod_k (1 - z 2^-k e^(-s c)), whose coefficients are Euler's
  (-1)^n 2^(-n(n-1)/2) e^(-s n c) / prod_(j <= n) (1 - 2^-j), to order 12
  within 1e-14 at s = 0 and 0.3; at s = 0 they sum to 0 (the zero at
  z = 1 is the invariant measure).
* spectral radii of L_{0,b} from det(1 - zL_{0,b}) over the orbit table:
  |cos 5| = 0.28366219 on doubling with roof 2 + x at b = 10 (order 14),
  |sum_i e^(40i(1.5 + 0.9 i))| / 3 = 0.24802421 on the full three-symbol
  family with roof 1.5 + 0.6x at b = 40 (order 12), both to 1e-7.
* unit roof, fibre observable A = (1 + 0.5 sin(2 pi x)) cos(2 pi u): the
  fibre mean of cos is 0 and of cos^2 is 1/2, so E[A] = 0 and
  C(0) = E[A^2] = (1 + 1/8) / 2 = 9/16 exactly; the fibre mean of u is
  1/2.
"""

import math
import signal
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from transferlab.markov import ModelError, doubling_model, markov3_model
from transferlab.orbits import (
    ENTROPY_TOL,
    LOG_FLOAT_MAX,
    MC_MAX_CROSSINGS,
    CountingReport,
    correlation_decay,
    covariance_at_zero,
    enumerate_periodic_orbits,
    entropy,
    fixed_word_count,
    flow_average,
    li,
    necklace_counts,
    orbit_fixed_point,
    prime_orbit_report,
    transfer_matrix,
)
from transferlab.thermo import RATIO_TOL, pressure

SINROOF = (2.0, 0.0, 0.5, 0.0)

NECKLACES_2 = (2, 1, 2, 3, 6, 9, 18, 30, 56, 99, 186, 335,
               630, 1161, 2182, 4080, 7710, 14532)
TRACES_M3_FORBID = (3, 7, 18, 47, 123, 322, 843, 2207)
NECKLACES_M3_FORBID = (3, 2, 5, 10, 24, 50, 120, 270)


@pytest.fixture(scope="session")
def plain():
    return doubling_model()


@pytest.fixture(scope="session")
def sin_model():
    return doubling_model(roof=SINROOF)


def sec_sin(x):
    return np.sin(2 * np.pi * np.asarray(x))


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def test_transfer_matrix_doubling(plain):
    assert transfer_matrix(plain) == ((1, 1), (1, 1))
    # exact past the int64 range
    assert [fixed_word_count(plain, n) for n in (*range(1, 8), 64)] == \
        [2 ** n for n in (*range(1, 8), 64)]


def test_necklace_counts_doubling(plain):
    assert necklace_counts(plain, 18) == NECKLACES_2


def test_transfer_matrix_forbidden():
    model = markov3_model(forbidden=("0>2",))
    mat = transfer_matrix(model)
    assert mat == ((1, 1, 0), (1, 1, 1), (1, 1, 1))
    assert all(type(v) is int for row in mat for v in row)
    assert tuple(fixed_word_count(model, n) for n in range(1, 9)) == \
        TRACES_M3_FORBID
    assert necklace_counts(model, 8) == NECKLACES_M3_FORBID


def test_trace_equals_orbit_sum(plain):
    # sum over d | n of d * (#primitive orbits of length d) recovers the
    # cyclic word count, computed by the independent matrix route
    orbs = enumerate_periodic_orbits(plain, 12)
    per_len = {}
    for o in orbs:
        per_len[o.n] = per_len.get(o.n, 0) + 1
    for n in range(1, 13):
        total = sum(d * per_len[d] for d in range(1, n + 1) if n % d == 0)
        assert total == fixed_word_count(plain, n) == 2 ** n


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumerate_generators(plain):
    orbs = enumerate_periodic_orbits(plain, 1)
    assert [(o.word, o.n, o.period) for o in orbs] == \
        [("0", 1, 1.0), ("1", 1, 1.0)]


def test_enumerate_small(plain):
    orbs = enumerate_periodic_orbits(plain, 4)
    words = [o.word for o in orbs]
    assert words == ["0", "1", "01", "001", "011", "0001", "0011", "0111"]
    # every word is its own least rotation and primitive
    for w in words:
        rots = {w[i:] + w[:i] for i in range(len(w))}
        assert len(rots) == len(w)
        assert w == min(rots)


def test_enumeration_matches_necklaces(plain):
    orbs = enumerate_periodic_orbits(plain, 18)
    per_len = [0] * 18
    for o in orbs:
        per_len[o.n - 1] += 1
    assert tuple(per_len) == NECKLACES_2


def test_enumeration_forbidden_matches_necklaces():
    model = markov3_model(forbidden=("0>2",))
    orbs = enumerate_periodic_orbits(model, 8)
    per_len = [0] * 8
    for o in orbs:
        per_len[o.n - 1] += 1
    assert tuple(per_len) == NECKLACES_M3_FORBID
    for o in orbs:
        assert "02" not in o.word * 2    # forbidden transition, cyclically


def test_enumeration_cap():
    model = markov3_model()
    with pytest.raises(ModelError, match="cap"):
        enumerate_periodic_orbits(model, 14)
    with pytest.raises(ModelError, match="cap"):
        enumerate_periodic_orbits(doubling_model(), 22)
    with pytest.raises(ModelError, match=">= 0"):
        enumerate_periodic_orbits(model, -1)
    assert len(enumerate_periodic_orbits(model, 0)) == 0


def test_enumeration_memory_stays_near_the_table():
    # the census keeps one fixed point per orbit and one byte per symbol
    # of each prenecklace, and writes each level into the table, which it
    # holds once
    model = markov3_model()
    enumerate_periodic_orbits(model, 2)      # warm the imports
    tracemalloc.start()
    try:
        orbs = enumerate_periodic_orbits(model, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * orbs.nbytes


def test_fixed_point_values(plain):
    assert orbit_fixed_point(plain, "01") == pytest.approx(1 / 3, abs=1e-14)
    assert orbit_fixed_point(plain, "001") == pytest.approx(1 / 7, abs=1e-14)
    assert orbit_fixed_point(plain, "1") == pytest.approx(1.0, abs=1e-14)
    assert orbit_fixed_point(plain, "0") == pytest.approx(0.0, abs=1e-14)


def test_fixed_point_rejects_noncyclic():
    model = markov3_model(forbidden=("0>2",))
    with pytest.raises(ModelError, match="cyclically"):
        orbit_fixed_point(model, "20")   # wrap transition 0 -> 2 forbidden
    with pytest.raises(ModelError, match="cyclically"):
        orbit_fixed_point(model, "")


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4095))
def test_fixed_point_closed_form(j):
    # doubling: x* = j / (2^n - 1) with the word as the binary digits of j
    model = doubling_model()
    n = max(1, j.bit_length())
    word = format(j, f"0{n}b")
    assert orbit_fixed_point(model, word) == pytest.approx(
        j / (2 ** n - 1), abs=1e-12)


def test_fixed_points_are_periodic(plain):
    # sigma^n returns to the fixed point within 1e-12
    for o in enumerate_periodic_orbits(plain, 7):
        x = orbit_fixed_point(plain, o.word)
        y = x
        for _ in range(o.n):
            y = plain.forward(y)
        assert abs(y - x) <= 1e-12


def test_period_bounds(sin_model):
    for o in enumerate_periodic_orbits(sin_model, 8):
        assert o.n * sin_model.tau_0 - 1e-9 <= o.period
        assert o.period <= o.n * sin_model.tau_star + 1e-9


def test_period_is_roof_sum(sin_model):
    # period equals the Birkhoff roof sum along the forward orbit
    for o in enumerate_periodic_orbits(sin_model, 5):
        x = orbit_fixed_point(sin_model, o.word)
        assert o.period == pytest.approx(
            sin_model.birkhoff_sum(sin_model.roof, x, o.n), abs=1e-9)


# ---------------------------------------------------------------------------
# entropy and the counting report
# ---------------------------------------------------------------------------

_SHIFTS = {"doubling": ("doubling", ()), "markov3": ("markov3", ()),
           **{f"markov3-{a}>{b}": ("markov3", (f"{a}>{b}",))
              for a in "012" for b in "012"}}


@pytest.mark.parametrize("c", (1.0, 1.5, 3.0))
@pytest.mark.parametrize("family, forbidden", _SHIFTS.values(),
                         ids=_SHIFTS.keys())
def test_entropy_values(family, forbidden, c):
    # a flat roof c makes the pressure log rho(A) - s c, A the transition
    # matrix; the power iteration's ratio test bounds the error
    roof = (c, 0.0, 0.0, 0.0)
    model = (doubling_model(roof) if family == "doubling" else
             markov3_model(roof, forbidden=forbidden))
    rho = max(abs(np.linalg.eigvals(model.transitions.astype(float))))
    assert abs(entropy(model) - math.log(rho) / c) <= RATIO_TOL


# doubling with roof c0 + c1 x: the section points of a period-n orbit
# sum to its count of 1s, so P(-s tau) = -s c0 + log(1 + e^(-s c1)).  The
# grid pressure is off by about C / N^2 (measured C: 6.6e-4, 4.0e-3 and
# 9.9e-3, the same at N = 256, 1024 and 4096).
@pytest.mark.parametrize("c0, c1, const", [(2.0, 0.5, 1e-3),
                                           (1.5, -0.5, 6e-3),
                                           (1.0, 1.0, 1.5e-2)])
def test_entropy_on_a_linear_roof(c0, c1, const):
    with mpmath.workdps(30):
        exact = mpmath.findroot(
            lambda s: -s * c0 + mpmath.log1p(mpmath.exp(-s * c1)), 0.5)
    for n in (256, 1024, 4096):
        h = entropy(doubling_model((c0, c1, 0.0, 0.0), grid_size=n))
        assert abs(h - exact) <= const / n ** 2 + ENTROPY_TOL


def _determinant(table, slope, log_weight, order):
    """Coefficients c_0..c_order of det(1 - zL) for an operator on a map of
    constant slope whose weight along each primitive orbit p of the table
    is w_p = exp(log_weight[p]), real or complex: tr L^n sums
    n_p w_p^r / (1 - slope^-n) over primitive orbits p and r >= 1 with
    r n_p = n (Ruelle), and Newton's identities turn the traces into
    coefficients, k c_k = -sum_j tr L^j c_(k-j).  The weight e^(-s tau)
    has log_weight -s T_p; L_{0,b} has -n_p log(slope) + i b T_p."""
    traces = np.zeros(order + 1, dtype=np.asarray(log_weight).dtype)
    for r in range(1, order + 1):
        keep = table.n * r <= order
        np.add.at(traces, table.n[keep] * r,
                  table.n[keep] * np.exp(r * log_weight[keep]))
    traces[1:] /= 1.0 - slope ** -np.arange(1.0, order + 1)
    c = np.zeros(order + 1, dtype=traces.dtype)
    c[0] = 1.0
    for k in range(1, order + 1):
        c[k] = -np.dot(traces[1:k + 1], c[k - 1::-1]) / k
    return c


# The flat roof c = 2 on doubling: tr L^n = e^(-s c n) / (1 - 2^-n) sums
# (2^-k e^(-s c))^n over k >= 0, so D(s) = det(1 - zL) is
# prod_k (1 - z 2^-k e^(-s c)), whose coefficients Euler gave in closed
# form (measured gap 2.2e-16).  At s = 0 the factor k = 0 makes D vanish
# at z = 1: that zero is the invariant measure (measured 2.0e-17).
@pytest.mark.parametrize("s", (0.0, 0.3))
def test_flat_roof_determinant_in_closed_form(s):
    c, order = 2.0, 12
    table = enumerate_periodic_orbits(
        doubling_model((c, 0.0, 0.0, 0.0), grid_size=64), order)
    coef = _determinant(table, 2, -table.n * math.log(2.0) - s * table.period,
                        order)
    euler = [(-1) ** n * 2.0 ** (-n * (n - 1) / 2) * math.exp(-s * n * c)
             / math.prod(1.0 - 2.0 ** -j for j in range(1, n + 1))
             for n in range(order + 1)]
    assert np.abs(coef - euler).max() <= 1e-14
    if s == 0.0:
        assert abs(coef.sum()) <= 1e-15


def _least_zero(c):
    """Least positive zero of sum c_k z^k on (0, 2], bisected from the
    first sign change on a grid down to adjacent floats."""
    poly = np.polynomial.Polynomial(c)
    z = np.linspace(0.0, 2.0, 2001)
    k = np.flatnonzero(poly(z) <= 0.0)[0]
    lo, hi = z[k - 1], z[k]
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if poly(mid) > 0.0 else (lo, mid)
    return lo


# P(-s tau) = -log z0, z0 the least zero of det(1 - zL) from the orbit
# table alone.  The grid pressure is off by about C / N^2 (measured C:
# 1.5e-4, 2.3e-3, 6.1e-6 and 9.5e-5, the same at N = 1024 and 4096).
@pytest.mark.parametrize("family, roof, order, s, value", [
    ("doubling", (1.0, 0.0, 0.3, 0.0), 16, 0.5, 0.19873318128019),
    ("doubling", (1.0, 0.0, 0.3, 0.0), 16, 1.0, -0.28495205173203),
    ("markov3", (1.0, 0.0, 0.2, 0.0), 12, 0.5, 0.60110865364558),
    ("markov3", (1.0, 0.0, 0.2, 0.0), 12, 1.0, 0.10855463969090)])
def test_pressure_from_the_orbit_table(family, roof, order, s, value):
    build = doubling_model if family == "doubling" else markov3_model
    table = enumerate_periodic_orbits(build(roof, grid_size=64), order)
    c = _determinant(table, len(build().alphabet), -s * table.period, order)
    p = -math.log(_least_zero(c))
    assert abs(p - value) <= 1e-14
    # the coefficients fall super-exponentially, so two orders fewer agree
    # to the rounding of the Newton sums (measured worst 2.3e-15)
    assert abs(-math.log(_least_zero(c[:-2])) - p) <= 1e-14
    for n in (1024, 4096):
        assert abs(pressure(build(roof, grid_size=n), s) - p) <= 4e-3 / n ** 2


def _table_entropy(model, table, order):
    """h with P(-h tau) = 0, P = -log z0 from the orbit table as above.
    P(-s tau) lies between log lam - s max tau and log lam - s min tau,
    lam the spectral radius of the transition matrix, so log lam / max tau
    and log lam / min tau bracket h; bisected down to adjacent floats."""
    slope = len(model.alphabet)
    lam = max(abs(np.linalg.eigvals(model.transitions.astype(float))))
    tau = model.roof(model.nodes())
    lo, hi = math.log(lam) / tau.max(), math.log(lam) / tau.min()
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        z0 = _least_zero(_determinant(table, slope, -mid * table.period,
                                      order))
        lo, hi = (mid, hi) if z0 < 1.0 else (lo, mid)
    return lo


# h from the orbit table alone.  The grid entropy is off by about C / N^2
# (measured C: 1.4e-4 on doubling and 1.62e-3 on markov3, at N = 1024 and
# 4096).  entropy stops within ENTROPY_TOL below the grid root, and the
# markov3 case at N = 4096 leaves 2.3e-11 of its bound, so a stop
# 10 ENTROPY_TOL above the root would fail it.
@pytest.mark.parametrize("family, roof, order, value", [
    ("doubling", (2.0, 0.0, 0.5, 0.0), 16, 0.35037379885910),
    ("markov3", (1.8, 0.1, 0.3, -0.2), 12, 0.56638334255130)])
def test_entropy_from_the_orbit_table(family, roof, order, value):
    build = doubling_model if family == "doubling" else markov3_model
    model = build(roof, grid_size=64)
    table = enumerate_periodic_orbits(model, order)
    h = _table_entropy(model, table, order)
    assert abs(h - value) <= 1e-14
    # two orders fewer agree to the rounding (measured worst 3.3e-16)
    assert abs(_table_entropy(model, table, order - 2) - h) <= 1e-14
    for n in (1024, 4096):
        assert abs(entropy(build(roof, grid_size=n)) - h) <= 2e-3 / n ** 2


# The spectral radius of L_{0,b} from the orbit table alone, as 1 / |z0|
# with z0 the least-modulus zero of det(1 - zL_{0,b}) (np.roots), on
# affine roofs cohomologous to a locally constant one (Livsic), whose
# steps are the locally constant values: 2 + x on doubling is
# 2 + (first digit) + h(Tx) - h(x), so rho = |e^(2ib) + e^(3ib)| / 2
# = |cos(b/2)|, and 1.5 + 0.6x on full markov3 is 1.5 + 0.9 i on interval
# i, so rho = |sum_i e^(ib(1.5 + 0.9 i))| / 3.  Measured gaps: 2.5e-11 at
# order 14 on doubling (2.9e-8 at order 16, where the root finder's
# conditioning takes over, so the order is stated), 1.1e-9 at order 12 on
# markov3.
@pytest.mark.parametrize("family, roof, steps, b, order, value", [
    ("doubling", (2.0, 1.0, 0.0, 0.0), (2.0, 3.0), 10.0, 14, 0.28366219),
    ("markov3", (1.5, 0.6, 0.0, 0.0), (1.5, 2.4, 3.3), 40.0, 12,
     0.24802421)])
def test_twisted_spectral_radius_from_the_orbit_table(family, roof, steps, b,
                                                       order, value):
    build = doubling_model if family == "doubling" else markov3_model
    table = enumerate_periodic_orbits(build(roof, grid_size=64), order)
    slope = len(steps)
    c = _determinant(table, slope,
                     -table.n * math.log(slope) + 1j * b * table.period, order)
    rho = 1.0 / np.abs(np.roots(c[::-1])).min()
    closed = abs(np.exp(1j * b * np.array(steps)).sum()) / slope
    assert abs(closed - value) <= 5e-9
    assert abs(rho - closed) <= 1e-7


# li(y) against Ei(x) - Ei(x0) in 40 digits at the rounded x = log y and
# x0 = log 2.  Measured worst over 20,000 log-uniform x up to
# LOG_FLOAT_MAX: 2.4e-15 relative (11 eps), near x = 35-45, where the
# convergent series is summed.
LI_REL = 4e-15


def test_li_matches_mpmath_ei():
    assert li(1.0) == 0.0
    assert li(2.0) == 0.0
    xs = np.geomspace(math.log(2.0), LOG_FLOAT_MAX, 400)[1:]
    ys = [math.nextafter(2.0, 3.0), 2.0 * (1.0 + 1e-12), 2.5, 4.5, 1e3,
          math.exp(50.0), math.exp(math.nextafter(50.0, 51.0))]
    ys += [math.exp(x) for x in xs]
    with mpmath.workdps(40):
        ei_2 = mpmath.ei(math.log(2.0))
        for y in ys:
            ref = mpmath.ei(math.log(y)) - ei_2
            assert abs(li(y) - ref) <= LI_REL * ref, y


def test_li_against_direct_quadrature():
    assert li(1.0) == 0.0
    assert li(2.0) == 0.0
    for y in (4.5, 1e3, 2.0 ** 14):
        direct, _ = quad(lambda u: 1.0 / math.log(u), 2.0, y, limit=400)
        assert li(y) == pytest.approx(direct, rel=1e-9)


def test_report_example(plain):
    rep = prime_orbit_report(plain, 5, np.array([0.0, 4.5]))
    assert rep.pi.tolist() == [0, 8]
    assert rep.li_values[0] == 0.0       # e^0 below the li cutoff
    assert rep.complete.all()
    assert rep.h == pytest.approx(math.log(2), abs=1e-8)


def test_report_incomplete_flag(plain):
    rep = prime_orbit_report(plain, 4, np.array([3.0, 4.5]))
    assert rep.complete.tolist() == [True, False]


def test_report_matches_recount(plain):
    t_grid = np.array([2.0, 5.5, 9.0, 10.0])
    rep = prime_orbit_report(plain, 10, t_grid)
    orbs = enumerate_periodic_orbits(plain, 10)
    for t, n in zip(t_grid, rep.pi):
        assert n == sum(1 for o in orbs if o.period <= t)
    assert (np.diff(rep.pi) >= 0).all()


def test_report_names_first_overflowing_period(plain):
    # h*T > log(float max) once raised OverflowError inside li(e^(hT))
    with pytest.raises(ModelError, match=r"T = 2000\.0 "):
        prime_orbit_report(plain, 4, np.array([1.0, 2000.0, 3000.0]))


def _within(seconds, fn, *args):
    """fn(*args), or TimeoutError once it has run for the given seconds
    (a NaN once kept li's series summing forever)."""
    def stop(*_):
        raise TimeoutError(f"{fn.__name__} ran for {seconds} s")
    old = signal.signal(signal.SIGALRM, stop)
    signal.alarm(seconds)
    try:
        return fn(*args)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("bad", (math.nan, math.inf, -1.0))
def test_report_rejects_non_finite_or_negative_periods(bad):
    model = doubling_model(grid_size=256)
    with pytest.raises(ModelError, match="finite and nonnegative"):
        _within(10, prime_orbit_report, model, 4, np.array([1.0, bad]))


def test_li_at_non_finite_arguments():
    assert _within(10, li, math.inf) == math.inf
    assert math.isnan(_within(10, li, math.nan))
    assert li(-math.inf) == 0.0


def test_report_fit(plain):
    rep = prime_orbit_report(plain, 18, np.array([12.0, 14.0, 16.0, 18.0]))
    assert rep.pi.tolist() == [747, 2538, 8800, 31042]
    # the error grows strictly slower than the main term e^{hT}
    assert rep.c_hat is not None
    assert 0.0 < rep.c_hat < rep.h
    norm = np.abs(rep.diff) / np.exp(rep.h * rep.t_grid)
    assert (np.diff(norm) < 0).all()


# ---------------------------------------------------------------------------
# flow averages and correlation
# ---------------------------------------------------------------------------

def test_flow_average_constant(sin_model):
    one = flow_average(sin_model, lambda x: np.ones_like(np.asarray(x, float)))
    assert one == pytest.approx(1.0, abs=1e-12)


def test_covariance_at_zero_exact(sin_model):
    assert covariance_at_zero(sin_model, sec_sin, sec_sin) == \
        pytest.approx(31 / 64, abs=1e-9)


def _ramp(x):
    return 1.0 + 0.5 * np.sin(2 * np.pi * np.asarray(x))


def _wave(u):
    return np.cos(2 * np.pi * np.asarray(u))


def test_fibre_profiles_by_quadrature():
    # unit roof: the fibre average of u over [0, 1) is 1/2, and
    # A = (1 + sin(2 pi x)/2) cos(2 pi u) has E[A] = 0 and
    # E[A^2] = (1 + 1/8) / 2 = 0.5625; both read exactly
    model = doubling_model(grid_size=1024)
    assert flow_average(model, (lambda x: np.ones_like(np.asarray(x, float)),
                                lambda u: np.asarray(u))) == 0.5
    obs = (_ramp, _wave)
    assert covariance_at_zero(model, obs, obs) == 0.5625


@pytest.mark.parametrize("roof, quad", [
    ((1.0, 0.0, 0.0, 0.0), 0.5625),
    (SINROOF, 0.6206006717214181)])
def test_fibre_covariance_matches_monte_carlo_at_zero(roof, quad):
    # one time only, so 3 stderr needs no correction; measured 0.56100 +-
    # 0.00209 (-0.7 sigma) on the unit roof and 0.62183 +- 0.00196
    # (+0.6 sigma) on the sine roof
    model = doubling_model(roof, grid_size=1024)
    obs = (_ramp, _wave)
    assert covariance_at_zero(model, obs, obs) == pytest.approx(quad,
                                                                abs=1e-12)
    rep = correlation_decay(model, obs, obs, (0.0,), 10 ** 5, seed=3)
    assert abs(rep.corr[0] - quad) <= 3 * rep.stderr[0]


def test_correlation_constant_observable(sin_model):
    rep = correlation_decay(sin_model, lambda x: np.full(np.shape(x), 2.5),
                            sec_sin, np.array([0.0, 1.0, 2.0]), 10 ** 4,
                            seed=3)
    assert np.all(rep.corr == 0.0)
    assert rep.rate is None and rep.r_squared is None


def test_correlation_zero_lag_matches_quadrature(sin_model):
    rep = correlation_decay(sin_model, sec_sin, sec_sin,
                            np.array([0.0]), 10 ** 5, seed=5)
    assert abs(rep.corr[0] - 31 / 64) <= 3 * rep.stderr[0]


def test_correlation_decay_sin_roof(sin_model):
    rep = correlation_decay(sin_model, sec_sin, sec_sin,
                            np.arange(0.0, 2.01, 0.2), 10 ** 5, seed=0)
    assert rep.rate is not None and rep.rate > 0.5
    assert rep.r_squared > 0.9
    assert rep.samples == 10 ** 5 // 32 * 32


def test_correlation_flat_roof_resonant():
    # constant roof, observable riding the fiber phase: no decay
    model = doubling_model()

    def sec(x):
        return 1.0 + 0.5 * np.sin(2 * np.pi * np.asarray(x))

    def fib(u):
        return np.cos(2 * np.pi * np.asarray(u))

    rep = correlation_decay(model, (sec, fib), (sec, fib),
                            np.arange(1.0, 9.0), 10 ** 5, seed=11)
    assert np.all(np.abs(rep.corr - 0.5) < 0.02)
    assert rep.rate is not None
    assert abs(rep.rate) <= 2 * rep.rate_err


def test_correlation_deterministic(sin_model):
    t_grid = np.array([0.0, 0.7, 1.9])
    a = correlation_decay(sin_model, sec_sin, sec_sin, t_grid, 10 ** 4, seed=9)
    b = correlation_decay(sin_model, sec_sin, sec_sin, t_grid, 10 ** 4, seed=9)
    assert np.array_equal(a.corr, b.corr)
    assert np.array_equal(a.stderr, b.stderr)
    d = correlation_decay(sin_model, sec_sin, sec_sin, t_grid, 10 ** 4, seed=10)
    assert not np.array_equal(a.corr, d.corr)


def test_correlation_unsorted_grid(sin_model):
    down = correlation_decay(sin_model, sec_sin, sec_sin,
                             np.array([2.0, 0.0, 1.0]), 10 ** 4, seed=2)
    up = correlation_decay(sin_model, sec_sin, sec_sin,
                           np.array([0.0, 1.0, 2.0]), 10 ** 4, seed=2)
    assert np.array_equal(np.sort(down.corr), np.sort(up.corr))
    assert down.corr[1] == up.corr[0]


def test_correlation_rejects_bad_grid(sin_model):
    with pytest.raises(ModelError, match="nonnegative"):
        correlation_decay(sin_model, sec_sin, sec_sin,
                          np.array([-1.0]), 10 ** 4)
    with pytest.raises(ModelError, match="samples"):
        correlation_decay(sin_model, sec_sin, sec_sin,
                          np.array([0.0]), 8)


@pytest.mark.parametrize("blocks", (-3, 0, 1))
def test_correlation_rejects_fewer_than_two_blocks(sin_model, blocks):
    # 0 divided by zero, 1 gave a NaN stderr and -3 overflowed
    with pytest.raises(ModelError, match="at least 2 blocks"):
        correlation_decay(sin_model, sec_sin, sec_sin, np.array([0.0]),
                          100, blocks=blocks)


def test_correlation_horizon_is_bounded(sin_model):
    # each roof crossing is one Python round; T = 1e9 on a unit roof once
    # ran for hours
    bound = MC_MAX_CROSSINGS * sin_model.tau_0
    with pytest.raises(ModelError, match="exceeds"):
        correlation_decay(sin_model, sec_sin, sec_sin,
                          np.array([1.0, 1.001 * bound]), 64, blocks=2)
    rep = correlation_decay(sin_model, sec_sin, sec_sin, np.array([bound]),
                            64, blocks=2)
    assert rep.t_grid.tolist() == [bound]


@pytest.mark.parametrize("roof", [
    (1.5, 0.0, -0.6, -0.3),         # the lowest roof a census model draws
    (2.0, 0.05, 0.4, -0.2),         # the golden Monte Carlo model
])
def test_correlation_default_grid_accepted(roof):
    model = markov3_model(roof=roof, grid_size=256, forbidden=("0>1",))
    rep = correlation_decay(model, sec_sin, sec_sin, np.linspace(0.0, 2.0, 11),
                            64, blocks=2)
    assert rep.corr.shape == (11,)


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
def test_correlation_rejects_non_finite_times(sin_model, bad):
    # inf never ends the roof unwinding; NaN used to return a number
    with pytest.raises(ModelError, match="finite"):
        correlation_decay(sin_model, sec_sin, sec_sin,
                          np.array([1.0, bad]), 10 ** 4)
