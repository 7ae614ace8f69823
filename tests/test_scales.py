"""Matching scales, temporal distance, oscillation scans.

Frozen reference values, each computed by an independent route first:

* mu = 1/3 at eps = 0.01: (1/3)^4 = 0.0123 > eps > (1/3)^5, so the
  stopping index is 5 everywhere and the value is 2^5 = 32.
* mu = 1/2 at dyadic eps = 2^-q: the comparison is strict, so 2^-q < eps
  fails at k = q and the index is q + 1 with value 2^(q+1).
* Constant-slope backward comparison: log Lambda_m / m = log 2 for every
  m, independent of the scale values, so kappa_branch = log 2.
* Affine roofs on the equal-slope doubling family: both roof-sum brackets
  have the same linear coefficient at every depth, so the temporal
  distance vanishes; on dyadic inputs the arithmetic is exact and the
  result is 0.0 to the bit.
* Roof 2 + 0.5 sin(2 pi x): contrast (0^k, 1^k) at x = 0.1, z = 0.6
  converges geometrically in k (measured increment ratio about 1/8,
  comfortably under the guaranteed 0.51); the k = 12 value 0.78850466
  was confirmed by a symbol-by-symbol scalar recomputation.
* Oscillation margins for that roof at grid 512, default sampling:
  kappa_hat = 0.1907 at eps = 2^-8, stable within a factor 2 over
  eps = 2^-6 .. 2^-10.  Affine and constant roofs give exactly 0.
* The witnesses of that scan, recomputed from temporal_distance alone,
  give their margins back exactly (recheck 0.0): both walks take the same
  steps.
* det = 2/3 (mu = 1/3): partial sums i * log(2/3) stay below any
  positive kappa line, so the uniform set is everything; mu chosen to
  make det = e^(2 kappa) puts every point above the line beyond n.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from transferlab.markov import (CoefFn, ModelError, doubling_model,
                                markov3_model)
from transferlab import scales as S

SINROOF = CoefFn(2.0, 0.0, 0.5, 0.0)


@pytest.fixture(scope="module")
def third():
    return doubling_model(mu=CoefFn(1.0 / 3.0), grid_size=256)


@pytest.fixture(scope="module")
def plain():
    return doubling_model(grid_size=256)


@pytest.fixture(scope="module")
def sin_roof():
    return doubling_model(roof=SINROOF, grid_size=512)


@pytest.fixture(scope="module")
def sin_scale(sin_roof):
    return S.matching_scale(sin_roof, 2.0 ** -8)


# -- matching scale ---------------------------------------------------------

def test_matching_scale_constant_cocycle(third):
    sc = S.matching_scale(third, 0.01)
    assert (sc.steps == 5).all()
    assert (sc.values == 32.0).all()
    assert sc.kappa_lower == pytest.approx(math.log(32) / math.log(100), abs=1e-12)


def test_matching_scale_dyadic_strictness(plain):
    sc = S.matching_scale(plain, 2.0 ** -6)
    assert (sc.steps == 7).all() and (sc.values == 128.0).all()
    top = S.matching_scale(plain, 0.5)
    assert (top.steps == 2).all() and (top.values == 4.0).all()


def test_matching_scale_guards(plain):
    for bad in (0.0, -0.25, 0.51, 2.0):
        with pytest.raises(ModelError):
            S.matching_scale(plain, bad)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.002, max_value=0.5))
def test_scale_halving_monotone(eps):
    model = doubling_model(mu=CoefFn(0.45, 0.0, 0.12, 0.0), grid_size=128)
    a = S.matching_scale(model, eps)
    b = S.matching_scale(model, eps / 2.0)
    assert (b.steps >= a.steps).all()
    assert (b.values >= a.values).all()


def test_scale_pointwise_matches_grid(sin_roof, sin_scale):
    g = sin_roof.nodes()[0]
    for j in (0, 17, 100, 511, 512):
        steps, _ = S._stopping_cocycle(sin_roof, g[j], sin_scale.eps)
        assert steps[0] == sin_scale.steps[0, j]
        assert sin_scale.value_at(g[j]) == sin_scale.values[0, j]
    assert sin_scale.steps.shape == sin_scale.values.shape == (1, 513)


# -- stability and comparability --------------------------------------------

def test_stable_report_constant(third):
    sc = S.matching_scale(third, 0.01)
    rep = S.check_stable(third, sc)
    assert rep.kappa_branch == pytest.approx(math.log(2), abs=1e-12)
    assert rep.kappa_hat == pytest.approx(math.log(2), abs=1e-12)
    assert rep.ok
    assert len(rep.rows) == 8
    for m, margin in rep.rows:
        assert margin == pytest.approx(math.log(2), abs=1e-12)


def test_stable_report_variable_mu():
    model = doubling_model(mu=CoefFn(0.45, 0.0, 0.12, 0.0), grid_size=128)
    sc = S.matching_scale(model, 2.0 ** -8)
    rep = S.check_stable(model, sc, m_max=5)
    assert len(rep.rows) == 5
    assert rep.kappa_branch == min(m for _, m in rep.rows)
    assert rep.kappa_hat == min(rep.kappa_lower, rep.kappa_branch)
    assert all(math.isfinite(m) for _, m in rep.rows)


def test_adapted_constant_scale(plain):
    sc = S.matching_scale(plain, 2.0 ** -6)
    rep = S.check_adapted(plain, sc)
    assert rep.c_measured == 1.0
    assert rep.pairs_checked > 0
    mask = np.zeros_like(sc.steps, dtype=bool)
    mask[0, : plain.grid_size // 2] = True
    masked = S.check_adapted(plain, sc, omega_mask=mask, n=2)
    assert masked.c_measured == 1.0
    assert masked.pairs_checked < rep.pairs_checked


def test_adapted_variable_scale():
    model = doubling_model(mu=CoefFn(0.45, 0.0, 0.12, 0.0), grid_size=256)
    sc = S.matching_scale(model, 2.0 ** -8)
    rep = S.check_adapted(model, sc)
    assert rep.ok and rep.c_measured >= 1.0
    # neighbourhoods shrink as the radius factor does, so C cannot grow
    tight = S.check_adapted(model, sc, radius_factor=1.0)
    assert tight.c_measured <= rep.c_measured


# -- temporal distance ------------------------------------------------------

def test_temporal_distance_affine_exact_zero():
    model = doubling_model(roof=(2.0, 0.25, 0.0, 0.0), grid_size=256)
    z = model.nodes()[0]
    d = S.temporal_distance(model, 0.25, "0000", "1111", z)
    assert np.abs(d).max() == 0.0
    d2 = S.temporal_distance(model, 0.5, "0101", "1010", 0.875)
    assert d2 == 0.0


def test_temporal_distance_antisymmetry(sin_roof):
    z = np.array([0.3, 0.6, 0.9])
    d12 = S.temporal_distance(sin_roof, 0.1, "000", "111", z)
    d21 = S.temporal_distance(sin_roof, 0.1, "111", "000", z)
    assert np.array_equal(d12, -d21)
    a = S.temporal_distance(sin_roof, 0.1, "000", "111", 0.6)
    b = S.temporal_distance(sin_roof, 0.6, "000", "111", 0.1)
    assert a == -b


def test_temporal_distance_scalar_recomputation(sin_roof):
    # independent route: walk the branches one symbol at a time
    def roof_sum(word, y):
        total, cur = 0.0, y
        for sym in reversed(word):
            cur = sin_roof.apply_word(sym, cur)
            total += float(sin_roof.roof(cur))
        return total

    for x, z, k in ((0.1, 0.6, 8), (0.3, 0.8, 6), (0.55, 0.05, 10)):
        w1, w2 = "0" * k, "1" * k
        brute = (roof_sum(w1, z) - roof_sum(w1, x)) - (roof_sum(w2, z) - roof_sum(w2, x))
        assert S.temporal_distance(sin_roof, x, w1, w2, z) == pytest.approx(brute, abs=1e-14)


def test_temporal_distance_depth_convergence(sin_roof):
    vals = [S.temporal_distance(sin_roof, 0.1, "0" * k, "1" * k, 0.6)
            for k in range(2, 13)]
    assert abs(vals[-1] - 0.7885046) < 1e-6
    incr = np.abs(np.diff(vals))
    for a, b in zip(incr, incr[1:]):
        if a > 1e-12:
            assert b <= 0.51 * a


def test_temporal_distance_guards(sin_roof):
    with pytest.raises(ModelError):
        S.temporal_distance(sin_roof, 0.1, "00", "00", 0.3)
    with pytest.raises(ModelError):
        S.temporal_distance(sin_roof, 0.1, "00", "111", 0.3)
    with pytest.raises(ModelError):
        S.temporal_distance(sin_roof, 0.1, "", "", 0.3)
    mm = markov3_model(grid_size=128, forbidden=("2>2",))
    with pytest.raises(ModelError):
        S.temporal_distance(mm, 2.5, "22", "01", 2.6)


# -- words and pair offsets --------------------------------------------------

def test_extreme_words_respect_adjacency():
    mm = markov3_model(grid_size=128, forbidden=("2>2",))
    for dom in range(3):
        lo = S.extreme_word(mm, dom, 6, "low")
        hi = S.extreme_word(mm, dom, 6, "high")
        alt = S.extreme_word(mm, dom, 6, "alt")
        for w in (lo, hi, alt):
            assert len(w) == 6
            # apply_word raises on a word not applicable at dom
            mm.apply_word(w, float(mm.lefts[dom]))
        assert "22" not in hi and "22" not in alt
        assert lo != hi


def test_word_pairs_distinct(plain):
    pairs = S.word_pairs(plain, 0, 5)
    assert len(pairs) == 2
    for w1, w2 in pairs:
        assert w1 != w2 and len(w1) == len(w2) == 5


def test_pair_offset_prefix_scaling(plain):
    k = 8
    assert S.pair_offset(plain, 0.25, "0" * k, "1" * k) == 1.0
    for j in (1, 3, 5):
        w2 = "0" * j + "1" * (k - j)
        assert S.pair_offset(plain, 0.25, "0" * k, w2) == 2.0 ** -j


# -- tameness ----------------------------------------------------------------

def test_tame_report_sin_roof(sin_roof, sin_scale):
    rep = S.check_tame(sin_roof, sin_scale, samples=4)
    assert 0.0 < rep.c_measured < 500.0
    for x, j, off, nrm, ratio in rep.rows:
        assert 0.0 < off <= 1.0
        assert math.isfinite(nrm) and ratio <= rep.c_measured + 1e-12


def test_tame_report_flat_roof(plain):
    sc = S.matching_scale(plain, 2.0 ** -8)
    rep = S.check_tame(plain, sc, samples=4)
    assert rep.c_measured == 0.0


# -- oscillation scans --------------------------------------------------------

def test_uni_scan_sin_roof_margin(sin_roof, sin_scale):
    cert = S.uni_scan(sin_roof, sin_scale)
    assert cert.ok
    assert cert.kappa_hat == pytest.approx(0.1907, abs=0.01)
    for w in cert.witnesses:
        assert w.kappa_x >= cert.kappa_hat - 1e-12
        assert w.kappa_x == pytest.approx(min(w.window_frac, w.inf_dist), abs=1e-12)
        assert 0.0 <= w.window[0] < w.window[1] <= 1.0


def test_uni_witness_recheck_catches_a_moved_witness(sin_roof, sin_scale):
    cert = S.uni_scan(sin_roof, sin_scale)
    assert S.uni_witness_recheck(sin_roof, cert) == 0.0
    # the witness that decides kappa_hat; its window distance binds, and
    # its chart fits on both sides of x
    i = min(range(len(cert.witnesses)),
            key=lambda i: cert.witnesses[i].kappa_x)
    w = cert.witnesses[i]
    assert w.kappa_x == w.inf_dist < w.window_frac
    r = int(sin_roof.interval_index(w.x))
    assert len(S._chart_sides(sin_roof, r, w.x, w.value)) == 2
    step, sample = S.TWO_PI / S.UNI_PHASES, 1.0 / S.UNI_S_POINTS
    lo, hi = w.window
    for change in ({"omega": w.omega + step}, {"omega": w.omega - step},
                   {"side": -w.side}, {"window": (lo - sample, hi - sample)}):
        wits = list(cert.witnesses)
        wits[i] = replace(w, **change)
        moved = replace(cert, witnesses=tuple(wits))
        assert S.uni_witness_recheck(sin_roof, moved) > 1e-12, change


def test_uni_scan_resolution_stability(sin_roof):
    margins = []
    for q in (6, 8, 10):
        sc = S.matching_scale(sin_roof, 2.0 ** -q)
        margins.append(S.uni_scan(sin_roof, sc).kappa_hat)
    assert all(m > 0.05 for m in margins)
    assert max(margins) <= 2.0 * min(margins)


@pytest.mark.parametrize("eps", (1e-14, 1e-16, 1e-30, 1e-300))
def test_collapsed_chart_windows_raise(sin_roof, eps):
    """Below about eps 1e-13 some chart window 1/value is narrower than
    the float spacing at its sample point, so two of its points coincide
    and the profile reads float resolution: both scans stop instead,
    naming eps and the point."""
    with np.errstate(over="ignore"):    # values overflow to inf near 1e-300
        sc = S.matching_scale(sin_roof, eps)
    for scan in (S.uni_scan, S.check_tame):
        with pytest.raises(S.ScaleError, match=(
                rf"at x = 0\.\d+ lies .*\(eps = {eps!r}\): its \d+ points "
                "are not all distinct")):
            scan(sin_roof, sc)


def test_uni_scan_affine_is_failure_report():
    for roof in ((1.0, 0.0, 0.0, 0.0), (2.0, 0.25, 0.0, 0.0)):
        model = doubling_model(roof=roof, grid_size=256)
        cert = S.uni_scan(model, S.matching_scale(model, 2.0 ** -8))
        assert cert.kappa_hat == 0.0
        assert not cert.ok


def test_uni_scan_roof_shift_invariance(sin_roof, sin_scale):
    shifted = doubling_model(roof=CoefFn(5.0, 0.0, 0.5, 0.0), grid_size=512)
    c1 = S.uni_scan(sin_roof, sin_scale)
    c2 = S.uni_scan(shifted, S.matching_scale(shifted, 2.0 ** -8))
    assert c2.kappa_hat == pytest.approx(c1.kappa_hat, abs=1e-9)


def test_uni_scan_markov3():
    mm = markov3_model(roof=SINROOF, grid_size=512, forbidden=("2>2",))
    sc = S.matching_scale(mm, 2.0 ** -8)
    cert = S.uni_scan(mm, sc)
    assert cert.kappa_hat > 0.0
    # witness words must respect the forbidden transition
    for w in cert.witnesses:
        assert "22" not in w.pair[0] and "22" not in w.pair[1]


# every markov3 transition structure the model accepts: the full shift and
# each single forbidden transition
_FORBIDDEN = ((),) + tuple((f"{a}>{b}",) for a in "012" for b in "012")


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(("doubling", "markov3")),
       forbidden=st.sampled_from(_FORBIDDEN),
       mu=st.floats(0.2, 0.8), wave=st.floats(-0.1, 0.1),
       grid=st.sampled_from((64, 256, 1024)),
       eps=st.floats(1e-300, S.EPS_MAX))
def test_uni_scan_every_sample_point_has_a_side(family, forbidden, mu, wave,
                                                grid, eps):
    """uni_scan reads every sample point: its chart window fits on one
    side at least, at any eps matching_scale accepts."""
    mu = CoefFn(mu, 0.0, wave, 0.0)
    if family == "doubling":
        model = doubling_model(roof=SINROOF, mu=mu, grid_size=grid)
    else:
        model = markov3_model(roof=SINROOF, mu=mu, grid_size=grid,
                              forbidden=forbidden)
    pts = S._sample_points(model, 12)
    with np.errstate(over="ignore"):    # values overflow to inf near 1e-300
        _, values = S._stopping_cocycle(model, [x for x, *_ in pts], eps)
    for (x, r, _), lam in zip(pts, values.tolist()):
        assert S._chart_sides(model, r, x, lam)
    # a window that overshoots the right end by less than the tolerance
    # still fits there: uni_scan and check_tame both take the right side
    last = len(model.intervals) - 1
    right = float(model.lefts[last]) + 1.0
    x = right - 0.25 + 5e-13
    assert right < x + 0.25 <= right + 1e-12
    assert S._chart_sides(model, last, x, 4.0) == [1, -1]


# -- uniform sets -------------------------------------------------------------

def test_uniform_set_constant_det_passes(third):
    rep = S.uniform_set(third, n=2, kappa=0.1, horizon=50)
    assert rep.mask.all()
    assert rep.fraction == 1.0 and rep.nu_mass == pytest.approx(1.0, abs=1e-12)


def test_uniform_set_supercritical_det_empty():
    kappa = 0.1
    model = doubling_model(mu=CoefFn(math.exp(2 * kappa) / 2.0), grid_size=128)
    rep = S.uniform_set(model, n=2, kappa=kappa, horizon=50)
    assert not rep.mask.any()
    assert rep.fraction == 0.0


@pytest.mark.parametrize("l0, ratio, horizon, passes", [
    (0.0, 2.5, 6, True),     # fails at i = 1, 2 = n only, which are skipped
    (0.2, 5.5, 6, False),    # fails at i = 6 = horizon only, which counts
    (0.2, 5.5, 5, True),
])
def test_uniform_set_horizon_ends(l0, ratio, horizon, passes):
    # doubling with affine mu: the node 1/2 steps to the fixed point 0, so
    # its partial sums are L(1/2) + (i - 1) L(0) with L = log det, and the
    # test sum < i kappa reads A < i B for A = L(1/2) - L(0) and
    # B = kappa - L(0).  With A = ratio * B it fails exactly for
    # i <= ratio when B > 0, and exactly for i >= ratio when B < 0.
    kappa, n = 0.1, 2
    b = kappa - l0
    c0 = math.exp(l0) / 2                       # det(0) = 2 c0
    c1 = math.exp(l0 + ratio * b) - 2 * c0      # det(1/2) = 2 c0 + c1
    model = doubling_model(mu=CoefFn(c0, c1), grid_size=64)
    rep = S.uniform_set(model, n=n, kappa=kappa, horizon=horizon)
    assert bool(rep.mask[0, 32]) is passes
    assert bool(rep.mask[0, 0]) is (l0 < kappa)     # the fixed point 0


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=0.01, max_value=0.3), st.floats(min_value=0.0, max_value=0.3),
       st.integers(min_value=1, max_value=4))
def test_uniform_set_monotonicity(kappa, bump, n):
    model = doubling_model(mu=CoefFn(0.45, 0.0, 0.12, 0.0), grid_size=128)
    small = S.uniform_set(model, n=n, kappa=kappa, horizon=30)
    big = S.uniform_set(model, n=n, kappa=kappa + bump, horizon=30)
    assert (small.mask <= big.mask).all()
    later = S.uniform_set(model, n=n + 1, kappa=kappa, horizon=30)
    assert (small.mask <= later.mask).all()


def test_uniform_set_eps_truncation_widens():
    model = doubling_model(mu=CoefFn(0.45, 0.0, 0.12, 0.0), grid_size=256)
    plain_set = S.uniform_set(model, n=1, kappa=0.02, horizon=60)
    cut = S.uniform_set(model, n=1, kappa=0.02, horizon=60, eps=2.0 ** -4)
    assert (cut.mask >= plain_set.mask).all()
    assert cut.mask.sum() > plain_set.mask.sum()


def test_uniform_set_guards(plain):
    with pytest.raises(ModelError):
        S.uniform_set(plain, n=1, kappa=0.0, horizon=10)
    with pytest.raises(ModelError):
        S.uniform_set(plain, n=10, kappa=0.1, horizon=10)
    with pytest.raises(ModelError):
        S.uniform_set(plain, n=1, kappa=0.1, horizon=20000)


# -- recurrence ----------------------------------------------------------------

def _best_kappa(rep):
    """Largest tested kappa whose empirical bad mass beats the bound."""
    return max([k for k, _, _, ok in rep.rows if ok], default=0.0)


def test_recurrence_full_mask_never_bad(third):
    full = np.ones((1, third.grid_size + 1), dtype=bool)
    rep = S.recurrence_rate(third, full, n1=2, m=16)
    for kappa, bad, bound, ok in rep.rows:
        assert bad == 0.0 and ok
        assert bound == pytest.approx(math.exp(-16 * kappa), abs=1e-15)
    assert _best_kappa(rep) == 0.5


def test_recurrence_half_mask_statistics(sin_roof):
    mask = np.zeros((1, sin_roof.grid_size + 1), dtype=bool)
    mask[0, : sin_roof.grid_size // 2 + 1] = True
    rep = S.recurrence_rate(sin_roof, mask, n1=3, m=24)
    again = S.recurrence_rate(sin_roof, mask, n1=3, m=24)
    assert rep.rows == again.rows          # deterministic
    by_kappa = {k: bad for k, bad, _, _ in rep.rows}
    assert by_kappa[0.05] <= 0.01          # half-space is visited constantly
    assert all(0.0 <= bad <= 1.0 for _, bad, _, _ in rep.rows)
    assert _best_kappa(rep) >= 0.1


def test_recurrence_guards(third):
    full = np.ones((1, third.grid_size + 1), dtype=bool)
    with pytest.raises(ModelError):
        S.recurrence_rate(third, full, n1=0, m=5)
    with pytest.raises(ModelError):
        S.recurrence_rate(third, full, n1=1, m=0)
    with pytest.raises(ModelError):
        S.recurrence_rate(third, full, n1=100, m=200)
