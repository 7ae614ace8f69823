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
  quadrature of 1/log u on [2, y].
* entropy roots: log 2 (tau = 1), (log 2)/3 (tau = 3), log 3 (full
  three-symbol family), from the scalar pressure equations.
* sin roof 2 + 0.5 sin(2 pi x) zero-lag covariance of sin(2 pi x): the
  size-biased density (2 + 0.5 sin)/2 gives E[A^2] = 1/2 and
  E[A] = 1/8, so C(0) = 1/2 - 1/64 = 31/64 exactly.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from transferlab.markov import ModelError, doubling_model, markov3_model
from transferlab.orbits import (
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

def test_entropy_values():
    assert entropy(doubling_model()) == pytest.approx(math.log(2), abs=1e-8)
    assert entropy(doubling_model(roof=(3.0, 0.0, 0.0, 0.0))) == \
        pytest.approx(math.log(2) / 3, abs=1e-8)
    assert entropy(markov3_model()) == pytest.approx(math.log(3), abs=1e-8)


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
