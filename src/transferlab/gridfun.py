"""Grid functions on model intervals and the norms used by the operator theory.

Functions are sampled on the per-interval uniform grids (grid_size cells,
endpoints included) and passed as one plain stacked array of shape
(n_intervals, grid_size + 1), with the model that gives the grids.  The
Hoelder seminorm estimator restricts to pairs at dyadic separations, which
keeps it O(N log N) and monotone under dyadic grid refinement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .markov import MarkovModel, ModelError


def c0_norm(values: np.ndarray) -> float:
    return float(np.max(np.abs(values)))


def _lag_seminorm(values: np.ndarray, lags, n: int, theta: float) -> float:
    """max over lags and rows of max|v[..., lag:] - v[..., :-lag]| / (lag/n)**theta.

    The one dyadic Hoelder seminorm loop: values holds rows on the last
    axis, sample spacing 1/n.  Quotients fold into a running Python max
    from 0, so a NaN quotient is skipped and the order of lags and rows
    does not change the result.
    """
    best = 0.0
    for lag in lags:
        gap = np.max(np.abs(values[..., lag:] - values[..., :-lag]), axis=-1)
        best = max(best, *np.ravel(gap / (lag / n) ** theta).tolist())
    return best


def _halving_lags(m: int) -> list[int]:
    """m, m // 2, ..., 1: the dyadic lags of a run of m + 1 samples."""
    return [m >> j for j in range(m.bit_length())]


def holder_seminorm(model: MarkovModel, values: np.ndarray) -> float:
    """sup |u(x)-u(y)|/|x-y|^theta over dyadic pairs; theta = model.theta."""
    n = model.grid_size
    return _lag_seminorm(values, _halving_lags(n), n, model.theta)


def norm_theta_b(model: MarkovModel, values: np.ndarray, b: float) -> float:
    """max(C0 norm, |b|^{-1} theta-seminorm); b-weighted Hoelder norm."""
    if b == 0:
        raise ModelError("norm_theta_b requires b != 0")
    return max(c0_norm(values), holder_seminorm(model, values) / abs(b))


def oscillation(model: MarkovModel, values: np.ndarray, r: int,
                a: float, b: float) -> float:
    """max - min of (real) u over the sample points inside [a, b] of the
    interval of index r."""
    xs = model.nodes()[r]
    mask = (xs >= a - 1e-12) & (xs <= b + 1e-12)
    if not mask.any():
        raise ModelError("oscillation window contains no sample points")
    vals = values[r][mask]
    if np.iscomplexobj(vals):
        raise ModelError("oscillation is defined for real grid functions")
    return float(vals.max() - vals.min())


# ---------------------------------------------------------------------------
# discrete minimax polynomial approximation (exchange algorithm)
# ---------------------------------------------------------------------------

@dataclass
class PolyDistanceReport:
    error: float
    coeffs: np.ndarray            # ascending powers
    reference: np.ndarray         # K+2 equioscillation abscissae
    residuals: np.ndarray         # residual values at the reference
    equioscillation_gap: float    # max|r| - |levelled h| at convergence


def minimax_poly(xs: np.ndarray, ys: np.ndarray,
                 degree: int) -> PolyDistanceReport:
    """Best uniform polynomial approximation on a finite point set.

    Single-point exchange on the discrete set; returns the levelled reference
    of degree+2 points with alternating residual signs as the optimality
    certificate.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    m = degree + 2
    if xs.ndim != 1 or xs.size < m:
        raise ModelError(f"need at least {m} sample points, got {xs.size}")
    if np.any(np.diff(xs) <= 0):
        order = np.argsort(xs)
        xs, ys = xs[order], ys[order]
    scale = max(1.0, float(np.max(np.abs(ys))))

    # start from Chebyshev-like spread of indices
    t = (np.cos(np.pi * np.arange(m)[::-1] / (m - 1)) + 1) / 2
    ref = np.unique(np.round(t * (xs.size - 1)).astype(int))
    while ref.size < m:  # degenerate rounding on tiny grids
        pool = np.setdiff1d(np.arange(xs.size), ref)
        ref = np.sort(np.append(ref, pool[0]))

    coeffs = np.zeros(degree + 1)
    h = 0.0
    for _ in range(200):
        # solve p(x_i) + (-1)^i h = y_i on the reference
        vand = np.vander(xs[ref], degree + 1, increasing=True)
        signs = (-1.0) ** np.arange(m)
        sys_mat = np.column_stack([vand, signs])
        sol = np.linalg.solve(sys_mat, ys[ref])
        coeffs, h = sol[:-1], sol[-1]
        resid = ys - np.polynomial.polynomial.polyval(xs, coeffs)
        worst = int(np.argmax(np.abs(resid)))
        if np.abs(resid[worst]) - abs(h) <= 1e-12 * scale:
            break
        # exchange: insert the worst point, keep alternation
        pos = int(np.searchsorted(ref, worst))
        if pos > 0 and ref[pos - 1] == worst:
            break
        if pos < m and pos < ref.size and ref[pos] == worst:
            break
        same_sign = np.sign(resid[worst])
        if pos == 0:
            if np.sign(resid[ref[0]]) == same_sign:
                ref[0] = worst
            else:
                ref = np.sort(np.append(ref[:-1], worst))
        elif pos >= m:
            if np.sign(resid[ref[-1]]) == same_sign:
                ref[-1] = worst
            else:
                ref = np.sort(np.append(ref[1:], worst))
        else:
            left = ref[pos - 1]
            if np.sign(resid[left]) == same_sign:
                ref[pos - 1] = worst
            else:
                ref[pos] = worst
        ref = np.sort(ref)

    resid = ys - np.polynomial.polynomial.polyval(xs, coeffs)
    err = float(np.max(np.abs(resid)))
    return PolyDistanceReport(
        error=err,
        coeffs=coeffs,
        reference=xs[ref],
        residuals=resid[ref],
        equioscillation_gap=float(err - abs(h)),
    )


def poly_distance(model: MarkovModel, values: np.ndarray, degree: int,
                  r: int) -> PolyDistanceReport:
    """Minimax distance of real u to polynomials of degree <= K on the
    interval of index r."""
    ys = values[r]
    if np.iscomplexobj(ys):
        raise ModelError("poly_distance is defined for real grid functions")
    return minimax_poly(model.nodes()[r], ys, degree)


# ---------------------------------------------------------------------------
# measure weights
# ---------------------------------------------------------------------------

def check_weights(model: MarkovModel, weights: np.ndarray) -> np.ndarray:
    weights = np.asarray(weights, dtype=float)
    shape = (len(model.intervals), model.grid_size + 1)
    if weights.shape != shape:
        raise ModelError(f"weights must have shape {shape}")
    if weights.min() < -1e-14:
        raise ModelError("weights must be nonnegative")
    total = float(weights.sum())
    if abs(total - 1.0) > 1e-8:
        raise ModelError(f"weights must sum to 1, got {total!r}")
    return weights


def interval_mass(model: MarkovModel, weights: np.ndarray, r: int,
                  a: float, b: float) -> float:
    """Measure of [a, b] inside the interval of index r; boundary samples
    count half, straddled cells pro-rate linearly."""
    w = np.asarray(weights, dtype=float)[r]
    n = model.grid_size
    left = float(model.lefts[r])
    a = max(a, left)
    b = min(b, left + 1.0)
    if b <= a:
        return 0.0
    # each cell j (samples j..j+1) carries half of each endpoint weight;
    # end samples have a single adjacent cell and contribute fully to it;
    # partial coverage pro-rates linearly inside the cell
    cell_mass = 0.5 * (w[:-1] + w[1:])
    cell_mass[0] += 0.5 * w[0]
    cell_mass[-1] += 0.5 * w[-1]
    prefix = np.concatenate(([0.0], np.cumsum(cell_mass)))

    def cum(t: float) -> float:
        t = min(max(t, 0.0), float(n))
        j = min(int(t), n - 1)
        return float(prefix[j] + (t - j) * cell_mass[j])

    lo = (a - left) * n
    hi = (b - left) * n
    return cum(hi) - cum(lo)
