"""Complex transfer operators, coefficient smoothing, and decay profiles.

Three operator layers read one stencil table per model (``thermo``):

* L_{a,b}: weight f^(a) in exact recipe form, phase exp(i b tau) with the
  closed-form roof.
* M_{a,b}: real operator for the smoothed normalized weight f^(a,b); fixes
  the constant function 1 up to the eigensolver residual.
* tilde L_{a,b}: smoothed weight with the same unsmoothed phase, so the
  modulus of its coefficients equals M's coefficients up to rounding and
  |tilde L u| <= M |u| holds sample-for-sample within the majorant's
  domination tolerance.

Each is one sparse matrix written from that table's columns (see
``thermo.make_operator``), as is every operator of an eigensolve.

Smoothing follows the branch structure: the normalized weight jumps where
the forward map changes branch, so convolution runs per forward-branch
slice with reflection at slice ends, in linear time as two prefix-sum box
passes.  The seam sample between two slices carries the right-hand value,
matching the right-continuous forward map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gridfun import _halving_lags, _lag_seminorm, holder_seminorm
from .markov import MarkovModel, ModelError
from .thermo import (WeightRecipe, _check_tilt, base_system, gibbs_measure,
                     leading_eigendata, make_operator, power_iteration,
                     transfer_complex)

DELTA1_DEFAULT = 0.1
B_MIN_SMOOTH = 2.0


# ---------------------------------------------------------------------------
# forward-branch slices
# ---------------------------------------------------------------------------

def slice_table(model: MarkovModel) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per interval: inclusive sample-index ranges of the forward-branch
    slices.  Boundary samples go to the right slice; the last slice keeps
    the right endpoint."""
    n = model.grid_size
    out = []
    for d in model.out_degree.tolist():
        # slices ordered by position: slice j covers [j/d, (j+1)/d) locally
        cuts = [math.ceil(j * n / d) for j in range(d)] + [n]
        ranges = []
        for j in range(d):
            hi = cuts[j + 1] - 1 if j + 1 < d else n
            ranges.append((cuts[j], hi))
        out.append(tuple(ranges))
    return tuple(out)


def _slice_seminorm(model: MarkovModel, values: np.ndarray, theta: float,
                    lags_of) -> float:
    """Largest lag seminorm over the forward-branch slices; lags_of(m)
    gives the lags of a slice of m + 1 samples."""
    sem = 0.0
    for k, ranges in enumerate(slice_table(model)):
        for lo, hi in ranges:
            if hi > lo:
                sem = max(sem, _lag_seminorm(values[k, lo:hi + 1],
                                             lags_of(hi - lo),
                                             model.grid_size, theta))
    return sem


def slice_holder_norm(model: MarkovModel, values: np.ndarray,
                      theta: float) -> tuple[float, float]:
    """(sup norm, max per-slice Hoelder seminorm); pairs never straddle a
    slice seam, where the sampled weight genuinely jumps."""
    values = np.asarray(values)
    c0 = float(np.max(np.abs(values)))
    return c0, _slice_seminorm(model, values, theta, _halving_lags)


def slice_c1_norm(model: MarkovModel, values: np.ndarray) -> float:
    """sup norm plus the largest per-slice difference quotient."""
    values = np.asarray(values)
    c0 = float(np.max(np.abs(values)))
    return c0 + _slice_seminorm(model, values, 1.0, lambda m: (1,))


# ---------------------------------------------------------------------------
# mollifier
# ---------------------------------------------------------------------------

def smooth_grid(model: MarkovModel, values: np.ndarray,
                width: float) -> np.ndarray:
    """Triangular-kernel convolution per forward-branch slice, reflected at
    the slice ends.  Symmetric normalized kernel: constants are fixed
    exactly and affine data is fixed away from the slice ends.

    The triangle of half-width r is a box of length r+1 convolved with
    itself, so the convolution is two running box sums, each a difference
    of prefix sums (repeated integration): linear time in the slice length
    whatever r is.  Sums run over the slice's offsets from its first sample,
    which keeps a constant slice exactly constant."""
    values = np.asarray(values, dtype=float)
    n = model.grid_size
    radius = max(1, round(width * n))
    box = radius + 1
    out = values.copy()
    for k, ranges in enumerate(slice_table(model)):
        for lo, hi in ranges:
            seg = values[k, lo:hi + 1]
            if len(seg) < 2:
                continue
            run = np.pad(seg - seg[0], radius, mode="reflect")
            for _ in range(2):
                acc = np.concatenate(([0.0], np.cumsum(run)))
                run = acc[box:] - acc[:-box]
            out[k, lo:hi + 1] = seg[0] + run / (box * box)
    return out


@dataclass
class SmoothedPair:
    b: float
    width: float              # kernel half-width actually used
    clamped: bool             # width hit the grid-spacing floor
    f_smooth: np.ndarray      # smoothed normalized weight samples
    tau_smooth: np.ndarray    # smoothed roof samples


def smooth_coefficients(model: MarkovModel, b: float,
                        delta1: float = DELTA1_DEFAULT) -> SmoothedPair:
    if abs(b) < B_MIN_SMOOTH:
        raise ModelError(f"|b| = {abs(b)} below smoothing minimum {B_MIN_SMOOTH}")
    if not 0.0 < delta1 < 1.0:
        raise ModelError("delta1 must lie in (0, 1)")
    width = abs(b) ** (-delta1 / 2.0)
    h = 1.0 / model.grid_size
    clamped = width < h
    if clamped:
        width = h
    sys = base_system(model)
    tau = model.roof(model.nodes())
    return SmoothedPair(b, width, clamped,
                        smooth_grid(model, sys.fhat_grid, width),
                        smooth_grid(model, tau, width))


# ---------------------------------------------------------------------------
# the smoothed operator family
# ---------------------------------------------------------------------------

@dataclass
class ComplexRPF:
    model: MarkovModel
    a: float
    b: float
    delta1: float
    f_smooth: np.ndarray
    tau_smooth: np.ndarray
    value: float               # E_{a,b}
    rho: np.ndarray            # rho_{a,b}, unit Gibbs integral, > 1/3
    recipe: WeightRecipe       # normalized smoothed weight f^(a,b)
    width: float
    clamped: bool
    _m_op: object = field(default=None, repr=False)
    _l_op: object = field(default=None, repr=False)

    @property
    def f_ab_grid(self) -> np.ndarray:
        return self.recipe.sample(self.model)

    def m_op(self):
        if self._m_op is None:
            self._m_op = make_operator(self.model, self.recipe)
        return self._m_op

    def tilde_op(self):
        if self._l_op is None:
            self._l_op = make_operator(self.model, self.recipe, phase=self.b)
        return self._l_op


def build_rpf(model: MarkovModel, a: float, b: float,
              delta1: float = DELTA1_DEFAULT) -> ComplexRPF:
    _check_tilt(a)
    sm = smooth_coefficients(model, b, delta1)
    raw = WeightRecipe(grids=(sm.f_smooth + a * sm.tau_smooth,))
    op = make_operator(model, raw)
    value, rho, _ = power_iteration(op)
    nu = gibbs_measure(model)
    rho = rho / float(np.sum(rho * nu))
    if rho.min() <= 1.0 / 3.0:
        raise ModelError("smoothed eigenfunction dips below 1/3")
    recipe = raw.plus(const=-math.log(value), rho=rho)
    return ComplexRPF(model, a, b, delta1, sm.f_smooth, sm.tau_smooth,
                      value, rho, recipe, sm.width, sm.clamped)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

@dataclass
class SmoothingReport:
    rows: list          # (b, width, diff_f, diff_tau, c1_f, c1_tau)
    c_diff: float       # fitted constant for the difference bound
    c_c1: float         # fitted constant for the C1 growth bound


def smoothing_report(model: MarkovModel, b_list) -> SmoothingReport:
    """Measured constants for the smoothing bounds: differences in the
    half-exponent Hoelder norm against |b|^(-delta1 theta / 4), C1 norms
    against |b|^delta1, with delta1 = DELTA1_DEFAULT."""
    sys = base_system(model)
    tau = model.roof(model.nodes())
    th = model.theta / 2.0
    rows = []
    c_diff = 0.0
    c_c1 = 0.0
    for b in b_list:
        sm = smooth_coefficients(model, b)
        df = sys.fhat_grid - sm.f_smooth
        dt = tau - sm.tau_smooth
        c0f, semf = slice_holder_norm(model, df, th)
        c0t, semt = slice_holder_norm(model, dt, th)
        diff_f = c0f + semf
        diff_tau = c0t + semt
        c1f = slice_c1_norm(model, sm.f_smooth)
        c1t = slice_c1_norm(model, sm.tau_smooth)
        rows.append((float(b), sm.width, diff_f, diff_tau, c1f, c1t))
        scale = abs(b) ** (-DELTA1_DEFAULT * model.theta / 4.0)
        c_diff = max(c_diff, diff_f / scale, diff_tau / scale)
        growth = abs(b) ** DELTA1_DEFAULT
        c_c1 = max(c_c1, c1f / growth, c1t / growth)
    return SmoothingReport(rows, c_diff, c_c1)


def operator_gap(model: MarkovModel, a: float, b: float) -> float:
    """Measured sup-norm gap between L_{a,b} and tilde L_{a,b} on eight
    random unit-sup test functions (seed 0)."""
    rpf = build_rpf(model, a, b)
    exact = transfer_complex(model, a, b)
    tilde = rpf.tilde_op()
    rng = np.random.default_rng(0)
    shape = (len(model.intervals), model.grid_size + 1)
    worst = 0.0
    for _ in range(8):
        u = rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape)
        u /= np.max(np.abs(u))
        worst = max(worst, float(np.max(np.abs(exact(u) - tilde(u)))))
    return worst


def eigenvalue_trend(model: MarkovModel, a: float, b_list,
                     delta1: float = DELTA1_DEFAULT) -> list:
    """Rows (b, E_{a,b}, |E_{a,b} - E_a|): the smoothed eigenvalue drifts
    back to the unsmoothed one as |b| grows."""
    e_a = leading_eigendata(model, a).value
    rows = []
    for b in b_list:
        rpf = build_rpf(model, a, b, delta1)
        rows.append((float(b), rpf.value, abs(rpf.value - e_a)))
    return rows


# ---------------------------------------------------------------------------
# decay profiles
# ---------------------------------------------------------------------------

def default_n_rule(b: float) -> int:
    return max(1, math.ceil(4.0 * math.log(abs(b))))


@dataclass
class DecayRow:
    b: float
    n: int
    c0: float
    l2: float
    seminorm: float
    flagged: bool = False


@dataclass
class DecayProfile:
    rows: list
    kappa_hat: float | None    # fitted L2 ~ |b|^(-kappa_hat); None if < 4 rows
    intercept: float | None


def decay_profile(model: MarkovModel, a: float,
                  b_list=(64.0, 128.0, 256.0, 512.0)) -> DecayProfile:
    """Iterate L_{a,b} default_n_rule(b) times on the constant 1 and record
    norms; fit the L2 norm against |b| by least squares on logs."""
    if any(float(b) == 0.0 for b in b_list):
        raise ModelError("b must be nonzero")
    nu = gibbs_measure(model)
    shape = (len(model.intervals), model.grid_size + 1)
    base = np.ones(shape, dtype=complex)
    rows = []
    for b in b_list:
        op = transfer_complex(model, a, float(b))
        v = base.copy()
        n = default_n_rule(float(b))
        for _ in range(n):
            v = op(v)
        mod = np.abs(v)
        flagged = not bool(np.all(np.isfinite(mod)))
        c0 = float(mod.max()) if not flagged else float("nan")
        l2 = float(math.sqrt(np.sum(nu * mod ** 2))) if not flagged else float("nan")
        sem = holder_seminorm(model, v) if not flagged else float("nan")
        rows.append(DecayRow(float(b), n, c0, l2, sem, flagged))
    good = [r for r in rows if not r.flagged and r.l2 > 0]
    if len(good) >= 4:
        xs = np.log([r.b for r in good])
        ys = np.log([r.l2 for r in good])
        slope, intercept = np.polyfit(xs, ys, 1)
        return DecayProfile(rows, float(-slope), float(intercept))
    return DecayProfile(rows, None, None)


@dataclass
class ShadowBound:
    a_coef: float
    b_coef: float
    rate: float
    rows: list          # (n, seminorm, c0)


def lasota_yorke_report(model: MarkovModel, a: float, b: float,
                        n_max: int = 12) -> ShadowBound:
    """Fit sem(L~^n u) <= A e^(-n theta chi_0) sem(u) + B c0(u) over
    n = 0..n_max for a random Hoelder test function (seed 1); the reported
    pair is inflated so the inequality holds on every measured row."""
    rpf = build_rpf(model, a, b)
    op = rpf.tilde_op()
    rng = np.random.default_rng(1)
    shape = (len(model.intervals), model.grid_size + 1)
    xs = np.linspace(0.0, 1.0, model.grid_size + 1)
    u = (np.stack([np.sin(2 * np.pi * xs + k)
                   for k in range(len(model.intervals))])
         + 0.3 * rng.standard_normal(shape) * xs * (1 - xs)).astype(complex)
    sem0 = holder_seminorm(model, u)
    c00 = float(np.max(np.abs(u)))
    rate = math.exp(-model.theta * model.chi_0)
    rows = []
    v = u
    for n in range(n_max + 1):
        rows.append((n, holder_seminorm(model, v),
                     float(np.max(np.abs(v)))))
        v = op(v)
    design = np.array([[rate ** n * sem0, c00] for n, _, _ in rows])
    target = np.array([s for _, s, _ in rows])
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    a_coef = max(float(coef[0]), 0.0)
    b_coef = max(float(coef[1]), 0.0)
    slack = max(float(s - (a_coef * rate ** n * sem0 + b_coef * c00))
                for n, s, _ in rows)
    if slack > 0:
        b_coef += slack / c00 + 1e-12
    return ShadowBound(a_coef, b_coef, rate, rows)
