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
* volume potential -log|T'| (constant on each interval): pressure 0, an
  eigenfunction constant on each interval, and interval masses the
  stationary vector of A_ij / deg_i: (0.4, 0.2, 0.4) on markov3 with 0>1
  forbidden, (0.375, 0.375, 0.25) with 2>2.
* doubling, roof 2 + x: L_{0,b} has spectral radius |cos(b/2)| (the roof
  is cohomologous to 2 + first binary digit); the flat roof 2 gives 1.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transferlab import doubling_model, markov3_model
from transferlab.markov import CoefFn, ModelConfig, ModelError, build_model
from transferlab import orbits as O
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


@pytest.mark.parametrize("grid", (256, 1024, 4096))
@pytest.mark.parametrize("family,forbidden", _PARRY_CASES.values(),
                         ids=_PARRY_CASES.keys())
def test_volume_potential_in_closed_form(family, forbidden, grid):
    # the volume potential -log|T'| is constant on each interval, so the
    # grid holds it exactly: pressure 0 (measured |log E| <= 5.6e-16), an
    # eigenfunction constant on each interval (measured <= 6.7e-16
    # relative), and interval masses the stationary vector of the chain
    # that leaves interval i for j with probability (branches i -> j) /
    # slope_i (measured <= 3.3e-14), on all 33 cases
    model = (doubling_model(grid_size=grid) if family == "doubling" else
             markov3_model(grid_size=grid, forbidden=forbidden))
    sym, dom = np.nonzero(~np.isnan(model.branch_slope))
    home, slope = model.symbol_target[sym], model.branch_slope[sym, dom]
    k = len(model.intervals)
    log_slope = np.empty(k)
    log_slope[home] = np.log(slope)
    chain = np.zeros((k, k))
    np.add.at(chain, (home, dom), 1.0 / slope)
    recipe = T.WeightRecipe(
        grids=(np.repeat(-log_slope[:, None], grid + 1, axis=1),))
    value, rho, _ = T.power_iteration(T.make_operator(model, recipe))
    assert abs(math.log(value)) <= 1e-15
    assert float(np.max(np.ptp(rho, axis=1) / rho.max(axis=1))) <= 1e-15
    normed = recipe.plus(const=-math.log(value), rho=rho)
    masses = T.adjoint_weights(T.make_operator(model, normed), 1.0).sum(axis=1)
    stationary = _perron_vector(chain.T)
    stationary /= stationary.sum()
    assert float(np.max(np.abs(masses - stationary))) <= 1e-13
    closed = {("0>1",): (0.4, 0.2, 0.4), ("2>2",): (0.375, 0.375, 0.25)}
    if forbidden in closed:
        assert np.allclose(stationary, closed[forbidden], rtol=0, atol=1e-15)


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


@st.composite
def _models(draw):
    """Both families, markov3 with any single forbidden transition or
    none, coefficients drawn as test_fast_paths.models draws them."""
    family = draw(st.sampled_from(("doubling", "markov3")))
    roof = (draw(st.floats(2.0, 3.0)), draw(st.floats(-0.2, 0.2)),
            draw(st.floats(-0.4, 0.4)), draw(st.floats(-0.4, 0.4)))
    potential = tuple(draw(st.floats(-0.2, 0.2)) for _ in range(4))
    mu = (draw(st.floats(0.3, 0.7)), draw(st.floats(-0.03, 0.03)),
          draw(st.floats(-0.1, 0.1)), draw(st.floats(-0.1, 0.1)))
    forbidden = (draw(st.sampled_from(
        [()] + [(f"{a}>{b}",) for a in "012" for b in "012"]))
        if family == "markov3" else ())
    grid = draw(st.sampled_from((64, 128, 256)))
    return build_model(ModelConfig(family, roof, potential, mu, grid, 0.5,
                                   forbidden=forbidden))


@settings(max_examples=25, deadline=None)
@given(model=_models())
def test_pressure_in_s_is_convex_with_slopes_in_the_roof_range(model):
    """orbits.entropy's secant steps rest on two facts about the grid
    pressure P(s) = pressure(model, s): it falls with a slope between
    -tau_star and -tau_0, and it is convex, since a nonnegative matrix
    whose entries are log-convex in s has a log-convex spectral radius
    (Kingman, Quart. J. Math. 12, 1961).  Measured on the 40 census models
    of seeds 1 and 2: worst second difference -1.7e-15, slope bounds held
    within 7.5e-15."""
    step = O.entropy(model) / 3
    p = np.array([T.pressure(model, k * step) for k in range(7)])
    assert (p[:-2] - 2 * p[1:-1] + p[2:] >= -1e-12).all()
    slopes = np.diff(p) / step
    assert (slopes >= -model.tau_star - 1e-12).all()
    assert (slopes <= -model.tau_0 + 1e-12).all()


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


def _spectral_radius(op, shape):
    """rho of op by power iteration: 200 normalized applications, then the
    mean log growth of the sup norm over 200 more."""
    v = np.ones(shape, dtype=complex)
    for _ in range(200):
        v = op(v)
        v /= np.abs(v).max()
    growth = 0.0
    for _ in range(200):
        v = op(v)
        top = float(np.abs(v).max())
        growth += math.log(top)
        v /= top
    return math.exp(growth / 200)


@pytest.mark.parametrize("c1", (0.0, 1.0), ids=("flat", "affine"))
def test_spectral_radius_where_the_roof_does_not_mix(c1):
    # 2 + x = 2 + (first binary digit) + h(Tx) - h(x) with h = x (Livsic),
    # so L_{0,b} is conjugate to the locally constant roof's operator,
    # whose leading eigenvalue (e^(2ib) + e^(3ib)) / 2 has modulus
    # |cos(b/2)|; the flat roof 2 gives e^(2ib), modulus 1.  Measured at
    # N = 4096: worst gap 1.8e-5 at b = 64 (it grows like 0.075 (b/N)^2),
    # and 0 on the flat roof
    model = doubling_model((2.0, c1, 0.0, 0.0), grid_size=4096)
    for b in (0.5, 1.0, 2.0, 4.0, 8.0, 10.0, 16.0, 32.0, 64.0):
        rho = _spectral_radius(T.transfer_complex(model, 0.0, b), (1, 4097))
        closed = abs(math.cos(b / 2)) if c1 else 1.0
        assert closed >= 0.1
        assert abs(rho - closed) <= (1e-4 if c1 else 1e-8)


def test_grid_refinement_consistency():
    vals = []
    for n in (256, 512, 1024):
        m = doubling_model(potential=SIN, grid_size=n)
        vals.append(T.base_system(m).value)
    assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0])
    assert abs(vals[1] - vals[0]) < 1e-6


def _cached_configs():
    """The config of every entry of the three model caches."""
    return {k[0] if isinstance(k, tuple) else k
            for cache in (T._stencil_cache, T._system_cache, O._entropy_cache)
            for k in cache}


def test_caches_keep_the_two_configs_used_most_recently():
    """Three small models in turn, on fresh caches swapped in through the
    module attributes: after the third, nothing of the first is left, the
    second's objects come back as they were, and the first, rebuilt, has
    the bits it had."""
    models = [doubling_model(potential=SIN, grid_size=64),
              markov3_model((1.5, 0.0, 0.2, 0.0), grid_size=64),
              doubling_model((2.0, 0.1, 0.0, 0.3), grid_size=128)]
    configs = [m.config for m in models]

    def query(model):
        norm = T.normalize_potential(model, 0.02)
        return (T._stencil_table(model), T.base_system(model), norm,
                T.transfer_real(model, 0.02).matrix.data, O.entropy(model))

    with mock.patch.object(T, "_stencil_cache", {}), \
            mock.patch.object(T, "_system_cache", {}), \
            mock.patch.object(O, "_entropy_cache", {}), \
            mock.patch.object(T, "_recent_configs", []):
        first, second = query(models[0]), query(models[1])
        assert _cached_configs() == set(configs[:2])
        query(models[2])
        assert _cached_configs() == set(configs[1:])
        assert T._recent_configs == configs[1:]
        assert len(T._stencil_cache) == 2 and len(O._entropy_cache) == 2
        # every lookup touches its config on a hit as well
        for lookup in (T._stencil_table, T.base_system,
                       lambda m: T.normalize_potential(m, 0.02), O.entropy):
            oldest = T._recent_configs[0]
            lookup(models[configs.index(oldest)])
            assert T._recent_configs[-1] == oldest
        assert _cached_configs() == set(configs[1:])
        again = query(models[1])
        for got, kept in zip(again[:3], second[:3]):
            assert got is kept
        assert T._recent_configs == [configs[2], configs[1]]
        rebuilt = query(models[0])
        assert _cached_configs() == {configs[0], configs[1]}
        assert rebuilt[1] is not first[1] and rebuilt[2] is not first[2]
        for old, new in ((first[1].rho, rebuilt[1].rho),
                         (first[1].nu, rebuilt[1].nu),
                         (first[2].rho, rebuilt[2].rho),
                         (first[3], rebuilt[3])):
            assert old.tobytes() == new.tobytes()
        assert first[4] == rebuilt[4]
