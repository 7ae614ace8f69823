"""Transfer-operator and equilibrium-measure tests.

Frozen oracle values (computed independently before implementation):

* doubling, zero potential: every point has two unit-weight preimages, so
  E = 2 exactly, the eigenfunction is constant, and power iteration stops
  after one sweep.  Equilibrium weights equal the trapezoid Lebesgue vector
  sample-for-sample (half weights at interval ends): checked by hand on the
  endpoint-inclusive grid, including the seam sample at 1/2.
* pressure of -s*roof with roof 1: log 2 - s (weight constant).
* tilt with constant roof 1: the tilted normalized operator is e^a times
  the normalized one, so E_a = e^a exactly and rho_a is constant.
* markov3 with 2>2 forbidden, zero potential: on interval-constant vectors
  the operator acts by the adjacency transpose, so E equals the largest
  eigenvalue of [[1,1,1],[1,1,1],[1,1,0]], which is 1 + sqrt(3).
* constant determinant slope*mu = 2/3 (mu 1/3): the n-step moment with
  exponent g is (2/3)^(g n) for any probability weights.
* Lebesgue half-ball mass ratio at interior points: exactly 1/2.
* zero potential: the interval masses (row sums of the equilibrium
  weights) are the Parry masses u_k v_k / (u . v), u and v the left and
  right Perron vectors of the symbol transition matrix, summed over the
  symbols whose cylinder is the interval: 1 on doubling, 1/3 each on full
  markov3, and singular Parry masses with one forbidden transition.
  Measured within 3.1e-14 on every case below.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transferlab import doubling_model, markov3_model
from transferlab.markov import CoefFn, ModelError
from transferlab import thermo as T

SIN = CoefFn(0.0, 0.0, 0.2)  # 0.2 sin(2 pi x)


def lebesgue_weights(model):
    """Trapezoid weights, uniform across intervals, summing to 1."""
    k, n = len(model.intervals), model.grid_size
    w = np.ones((k, n + 1))
    w[:, [0, -1]] = 0.5
    return w / (k * n)


@pytest.fixture(scope="module")
def plain():
    return doubling_model(grid_size=512)


@pytest.fixture(scope="module")
def sin_model():
    return doubling_model(potential=SIN, grid_size=512)


@pytest.fixture(scope="module")
def hill_model():
    # non-constant roof keeps the pressure curve strictly convex
    return doubling_model(roof=CoefFn(2.0, 0.0, 1.0), potential=SIN, grid_size=512)


def test_doubling_flat_eigendata_is_exact(plain):
    sys = T.base_system(plain)
    assert sys.value == 2.0
    assert float(np.ptp(sys.rho)) == 0.0
    assert sys.iterations == 1
    assert sys.fiber_defect < 1e-14


def test_equilibrium_weights_match_trapezoid_exactly(plain):
    nu = T.gibbs_measure(plain)
    assert float(np.max(np.abs(nu - lebesgue_weights(plain)))) < 1e-12


def test_invariance_defect_flat_and_weighted(plain, sin_model):
    assert T.invariance_defect(plain, lambda x: np.sin(2 * np.pi * x)) < 1e-8
    # with a genuine weight the defect is interpolation-limited, not exact
    assert T.invariance_defect(sin_model, lambda x: np.sin(4 * np.pi * x)) < 1e-4


def test_pressure_values(plain):
    assert abs(T.pressure(plain) - math.log(2)) < 1e-12
    s = 0.37
    got = T.pressure(plain, s)
    assert abs(got - (math.log(2) - s)) < 1e-12


def test_pressure_shift_rule():
    # adding a constant c to the potential shifts pressure by exactly c
    for c in (-0.8, 0.15, 0.6):
        m = doubling_model(potential=CoefFn(c), grid_size=128)
        assert abs(T.pressure(m) - (math.log(2) + c)) < 1e-12


def test_constant_roof_tilt_is_exponential(plain):
    for a in (-0.05, 0.02, 0.05):
        eig = T.leading_eigendata(plain, a)
        assert abs(eig.value - math.exp(a)) < 1e-12
        assert float(np.ptp(eig.rho)) < 1e-9
        assert eig.residual < 1e-10


def test_tilt_range_guard(plain):
    with pytest.raises(ModelError):
        T.leading_eigendata(plain, 0.2)


def test_markov3_forbidden_eigenvalue_closed_form():
    m = markov3_model(grid_size=256, forbidden=("2>2",))
    sys = T.base_system(m)
    assert abs(sys.value - (1.0 + math.sqrt(3.0))) < 1e-10
    # independent route: dense eigenvalues of the adjacency matrix
    adj = np.ones((3, 3))
    adj[2, 2] = 0.0
    lam = max(np.linalg.eigvals(adj).real)
    assert abs(sys.value - lam) < 1e-10
    assert sys.fiber_defect < 1e-10
    assert sys.nu.min() > 0.0
    assert abs(sys.nu.sum() - 1.0) < 1e-12


def _perron_vector(mat):
    vals, vecs = np.linalg.eig(mat)
    return np.abs(vecs[:, np.argmax(vals.real)].real)


_PARRY_CASES = {"doubling": ("doubling", ()), "markov3": ("markov3", ()),
                **{f"markov3-{a}>{b}": ("markov3", (f"{a}>{b}",))
                   for a in "012" for b in "012"}}


@pytest.mark.parametrize("grid", (1024, 8192))
@pytest.mark.parametrize("family,forbidden", _PARRY_CASES.values(),
                         ids=_PARRY_CASES.keys())
def test_zero_potential_interval_masses_are_parry_masses(family, forbidden,
                                                          grid):
    model = (doubling_model(grid_size=grid) if family == "doubling" else
             markov3_model(grid_size=grid, forbidden=forbidden))
    trans = model.transitions.astype(float)
    u, v = _perron_vector(trans.T), _perron_vector(trans)
    parry = np.bincount(model.symbol_target, weights=u * v / (u @ v),
                        minlength=len(model.intervals))
    if not forbidden:
        # Lebesgue: every slope equals the entropy rate
        assert np.allclose(parry, 1.0 / len(model.intervals), rtol=0,
                           atol=1e-15)
    masses = T.gibbs_measure(model).sum(axis=1)
    assert float(np.max(np.abs(masses - parry))) <= 1e-12


def test_power_iteration_matches_dense_eigensolver():
    m = doubling_model(potential=SIN, grid_size=256)
    sys = T.base_system(m)
    op = T.make_operator(m, T.WeightRecipe(potential=True))
    k = m.grid_size + 1
    dense = np.zeros((k, k))
    for i in range(k):
        e = np.zeros((1, k))
        e[0, i] = 1.0
        dense[:, i] = op(e)[0]
    lead = max(np.linalg.eigvals(dense).real)
    assert abs(sys.value - lead) < 1e-10


def test_normalized_operator_fixes_one(sin_model):
    ones = np.ones((1, sin_model.grid_size + 1))
    for a in (0.0, 0.03, -0.05):
        op = T.transfer_real(sin_model, a)
        assert float(np.max(np.abs(op(ones) - 1.0))) < 1e-12


def test_fiber_sums_of_normalized_weight(sin_model):
    # same statement via the recipe route: exp(f-hat) sums to E across fibers
    sys = T.base_system(sin_model)
    ones = np.ones_like(sys.rho)
    m_op = T.make_operator(sin_model, sys.fhat)
    assert float(np.max(np.abs(m_op(ones) - 1.0))) < 1e-10


def test_adjoint_duality_random_function(sin_model):
    rng = np.random.default_rng(7)
    sys = T.base_system(sin_model)
    m_op = T.make_operator(sin_model, sys.fhat)
    h = rng.standard_normal(sys.nu.shape)
    lhs = float(np.sum(sys.nu * m_op(h)))
    rhs = float(np.sum(sys.nu * h))
    assert abs(lhs - rhs) < 1e-11


def test_rho_normalization_and_bounds(hill_model):
    nu = T.gibbs_measure(hill_model)
    for a in (-0.05, 0.05):
        eig = T.leading_eigendata(hill_model, a)
        assert abs(float(np.sum(eig.rho * nu)) - 1.0) < 1e-12
        assert eig.rho.min() > 0.5
        assert eig.rho.max() < 2.0


def test_pressure_curve_monotone_convex(hill_model):
    avals = np.array([-0.04, -0.02, 0.0, 0.02, 0.04])
    ps = np.array([math.log(T.leading_eigendata(hill_model, a).value)
                   for a in avals])
    assert np.all(np.diff(ps) > 0)  # roof is positive
    second = ps[:-2] - 2 * ps[1:-1] + ps[2:]
    assert np.all(second > -1e-9)
    # slope bracketed by the roof range
    slopes = np.diff(ps) / np.diff(avals)
    assert np.all(slopes > hill_model.tau_0 - 1e-6)
    assert np.all(slopes < hill_model.tau_star + 1e-6)


@settings(max_examples=20, deadline=None)
@given(st.floats(-1.0, 1.0))
def test_pressure_constant_shift_property(c):
    m = doubling_model(potential=CoefFn(c), grid_size=64)
    assert abs(T.pressure(m) - (math.log(2) + c)) < 1e-11


def test_constant_determinant_moments():
    m = doubling_model(mu=CoefFn(1.0 / 3.0), grid_size=256)
    for g, n in ((0.25, 3), (0.5, 7), (1.0, 5)):
        assert abs(T.fractional_moment(m, g, n) - (2.0 / 3.0) ** (g * n)) < 1e-10
    m_n, m_2n, c = T.moment_submultiplicativity(m, 0.25, 4)
    assert abs(math.sqrt(m_2n) - c * m_n) < 1e-12
    assert abs(c - 1.0) < 1e-10  # constant determinant: exactly multiplicative


def test_variable_determinant_moment_split():
    m = doubling_model(mu=CoefFn(0.45, 0.0, 0.05), grid_size=256)
    for n in (4, 8):
        m_n, m_2n, c = T.moment_submultiplicativity(m, 0.5, n)
        assert m_2n <= (c * m_n) ** 2 * (1 + 1e-12)
        assert 0.5 < c < 2.0


def test_moment_rejects_bad_exponent(plain):
    with pytest.raises(ModelError):
        T.fractional_moment(plain, 0.0, 3)
    with pytest.raises(ModelError):
        T.fractional_moment(plain, 1.5, 3)


def test_non_expanding_classification(plain):
    ok, val = T.is_non_expanding(plain)
    assert ok and abs(val) < 1e-12  # slope 2, mu 1/2: det identically 1
    m13 = doubling_model(mu=CoefFn(1.0 / 3.0), grid_size=256)
    ok13, val13 = T.is_non_expanding(m13)
    assert ok13 and abs(val13 - math.log(2.0 / 3.0)) < 1e-12
    m23 = doubling_model(mu=CoefFn(0.7), grid_size=256)
    ok23, val23 = T.is_non_expanding(m23)
    assert not ok23 and val23 > 0.3


def test_lebesgue_doubling_ratio_exact(plain):
    ratio = T.doubling_constant(plain, lebesgue_weights(plain))
    assert abs(ratio - 0.5) < 1e-10


def test_equilibrium_doubling_ratio_positive(sin_model):
    ratio = T.doubling_constant(sin_model, T.gibbs_measure(sin_model))
    assert 0.3 < ratio <= 0.5 + 1e-12



def test_complex_weight_modulus_dominated(sin_model):
    # |L_{a,b} u| <= L_{a,0} |u| pointwise, sharp at b = 0
    rng = np.random.default_rng(3)
    u = rng.standard_normal((1, sin_model.grid_size + 1))
    flat = T.transfer_real(sin_model, 0.02)
    twist = T.transfer_complex(sin_model, 0.02, 17.0)
    assert np.all(np.abs(twist(u)) <= flat(np.abs(u)) + 1e-12)


def test_grid_refinement_consistency():
    vals = []
    for n in (256, 512, 1024):
        m = doubling_model(potential=SIN, grid_size=n)
        vals.append(T.base_system(m).value)
    assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0])
    assert abs(vals[1] - vals[0]) < 1e-6
