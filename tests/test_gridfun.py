"""Norms, minimax distance, measure weights.

Frozen expected values, derived independently first:
  * identity on [0,1], theta = 1/2: the dyadic-pair estimator attains
    |1-0|/1^(1/2) = 1 at the full-interval pair.
  * sin(2 pi x), theta = 1: the sup of |sin'| is 2 pi; the smallest dyadic
    separation gives 2 sin(pi dx)/dx = 2 pi (1 + O(dx^2)).
  * b-weighted norm of sin(2 pi x): max(1, 2 pi / |b|) -> 1 at b = 100,
    2 pi at b = 1.
  * minimax: s^2 on [-1,1] with degree 1 -> error 1/2 (Chebyshev: the
    continuum extrema -1, 0, 1 are grid points, so the discrete and
    continuum problems agree); |s| with degree 0 -> midrange error 1/2.
  * oscillation of cos(2 pi x) over [0, 1/2] = 2.
  * trapezoid weights: each of k unit intervals carries mass 1/k, and the
    dyadic half-ball mass ratio is exactly 1/2.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transferlab import ModelError, doubling_model, markov3_model
from transferlab.gridfun import (
    c0_norm,
    check_weights,
    holder_seminorm,
    interval_mass,
    minimax_poly,
    norm_theta_b,
    oscillation,
    poly_distance,
)

TWO_PI = 2 * np.pi


def sample(model, fn):
    """fn on every interval grid, stacked as (intervals, grid_size + 1)."""
    return np.stack([fn(xs) for xs in model.nodes()])


def lebesgue_weights(model):
    """Trapezoid weights, uniform across intervals, summing to 1."""
    k, n = len(model.intervals), model.grid_size
    w = np.ones((k, n + 1))
    w[:, [0, -1]] = 0.5
    return w / (k * n)


@pytest.fixture(scope="module")
def model():
    return doubling_model(grid_size=4096)


@pytest.fixture(scope="module")
def lipschitz():
    """The grid of model with Hoelder exponent theta = 1."""
    return doubling_model(grid_size=4096, theta=1.0)


class TestSeminorm:
    def test_identity_theta_half(self, model):
        u = sample(model, lambda x: x)
        assert holder_seminorm(model, u) == pytest.approx(1.0, abs=1e-12)

    def test_sine_lipschitz(self, lipschitz):
        u = sample(lipschitz, lambda x: np.sin(TWO_PI * x))
        assert holder_seminorm(lipschitz, u) == pytest.approx(TWO_PI, abs=1e-5)

    def test_constant_has_zero_seminorm(self, model):
        u = np.full((1, model.grid_size + 1), 3.7)
        assert holder_seminorm(model, u) == 0.0

    def test_norm_theta_b(self, lipschitz):
        m = lipschitz
        u = sample(m, lambda x: np.sin(TWO_PI * x))
        assert norm_theta_b(m, u, 100.0) == pytest.approx(1.0, abs=1e-9)
        assert norm_theta_b(m, u, 1.0) == pytest.approx(TWO_PI, abs=1e-4)
        assert norm_theta_b(m, u + 0j, 1.0) == norm_theta_b(m, u, 1.0)
        with pytest.raises(ModelError):
            norm_theta_b(m, u, 0.0)

    def test_estimator_monotone_under_refinement(self):
        # the dyadic pairs of the coarse grid embed into the fine grid
        coarse = doubling_model(grid_size=256)
        fine = doubling_model(grid_size=512)
        fn = lambda x: np.sin(TWO_PI * x) + 0.3 * np.cos(2 * TWO_PI * x)
        sc = holder_seminorm(coarse, sample(coarse, fn))
        sf = holder_seminorm(fine, sample(fine, fn))
        assert sc <= sf + 1e-12

    @given(st.floats(-4, 4), st.floats(-4, 4))
    @settings(max_examples=25, deadline=None)
    def test_triangle_inequality(self, a, b):
        m = doubling_model(grid_size=128)
        u = sample(m, lambda x: a * np.sin(TWO_PI * x))
        v = sample(m, lambda x: b * x * (1 - x))
        lhs = holder_seminorm(m, u + v)
        assert lhs <= holder_seminorm(m, u) + holder_seminorm(m, v) + 1e-10

    def test_oscillation(self, model):
        u = sample(model, lambda x: np.cos(TWO_PI * x))
        assert oscillation(model, u, 0, 0.0, 0.5) == pytest.approx(2.0, abs=1e-12)
        assert oscillation(model, u, 0, 0.0, 1.0) <= 2 * c0_norm(u) + 1e-15


class TestMinimax:
    def test_square_degree_one(self):
        xs = np.linspace(-1.0, 1.0, 4097)
        rep = minimax_poly(xs, xs ** 2, 1)
        assert rep.error == pytest.approx(0.5, abs=1e-10)
        # certificate: 3 alternating levelled residuals
        assert rep.reference.size == 3
        signs = np.sign(rep.residuals)
        assert np.all(signs[1:] != signs[:-1])
        assert np.max(np.abs(np.abs(rep.residuals) - rep.error)) < 1e-9
        assert rep.equioscillation_gap < 1e-9

    def test_abs_degree_zero(self):
        xs = np.linspace(-1.0, 1.0, 4097)
        rep = minimax_poly(xs, np.abs(xs), 0)
        assert rep.error == pytest.approx(0.5, abs=1e-10)

    def test_exact_polynomial_recovered(self):
        xs = np.linspace(0.0, 1.0, 257)
        ys = 1.0 - 2 * xs + 3 * xs ** 2
        rep = minimax_poly(xs, ys, 2)
        assert rep.error < 1e-12

    def test_error_decreasing_in_degree(self):
        xs = np.linspace(0.0, 1.0, 1025)
        ys = np.sin(TWO_PI * xs)
        errs = [minimax_poly(xs, ys, k).error for k in range(5)]
        assert all(e1 >= e2 - 1e-12 for e1, e2 in zip(errs, errs[1:]))
        assert errs[4] < errs[0] / 5

    def test_grid_function_window(self, model):
        u = sample(model, lambda x: (2 * x - 1) ** 2)
        # on [0,1] the function is s^2 in s = 2x-1; degree-1 error is 1/2
        rep = poly_distance(model, u, 1, 0)
        assert rep.error == pytest.approx(0.5, abs=1e-6)

    def test_too_few_points_rejected(self):
        xs = np.linspace(0, 1, 3)
        with pytest.raises(Exception):
            minimax_poly(xs, xs, 5)


class TestQuadrature:
    def test_lebesgue_normalized(self, model):
        w = check_weights(model, lebesgue_weights(model))
        assert w.sum() == pytest.approx(1.0, abs=1e-14)
        assert interval_mass(model, w, 0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_periodic_sine_integrates_to_zero(self, model):
        w = lebesgue_weights(model)
        u = sample(model, lambda x: np.sin(TWO_PI * x))
        assert float(np.sum(u * w)) == pytest.approx(0.0, abs=1e-13)

    def test_unnormalized_weights_rejected(self, model):
        w = lebesgue_weights(model)
        for bad in (w * 2, -w, w[:, :-1]):
            with pytest.raises(ModelError):
                check_weights(model, bad)

    def test_interval_mass_proportional_for_lebesgue(self):
        m = markov3_model(grid_size=512)
        w = lebesgue_weights(m)
        # each of the three unit intervals carries mass exactly 1/3
        assert interval_mass(m, w, 1, 1.0, 2.0) == pytest.approx(1 / 3, abs=1e-14)
        got = interval_mass(m, w, 0, 0.25, 0.5)
        assert got == pytest.approx(0.25 / 3, abs=1e-14)
        # dyadic half-ball ratio is exactly one half
        full = interval_mass(m, w, 0, 0.25, 0.75)
        half = interval_mass(m, w, 0, 0.375, 0.625)
        assert half / full == pytest.approx(0.5, abs=1e-14)

    def test_interval_mass_prorates_offgrid(self):
        m = doubling_model(grid_size=64)
        w = lebesgue_weights(m)
        assert interval_mass(m, w, 0, 0.0, 1 / 3) == pytest.approx(1 / 3, abs=1e-12)
