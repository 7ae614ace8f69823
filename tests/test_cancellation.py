"""Cancellation engine tests.

Frozen oracles used below, each recomputed independently before freezing:

* doubling map, mu = 1/2, eps = 0.04: the stable product halves per step,
  so the stopping index is 5 and the scale is 32 everywhere.  With C1 = 1
  the partition is exactly the 32 dyadic cylinders of length 1/32 (both
  partition margins are then exactly 1.0), and one backward step refines
  it, so n1 = 1.
* mu = 1/3, eps = 0.4: one step suffices (1/3 < 0.4), the scale is the
  branch slope 2, and the coarsest admissible partition is the two halves.
* cone arithmetic on the 32-scale: a constant has log-slope 0 (margin 1);
  exp(32x) sits on the boundary (central differences overshoot ratio 1 by
  the curvature bias sinh(t)/t - 1 ~ 1e-5 at this grid); exp(320x) is ten
  times over and is rejected outright.
* two equal unit-weight branches with P in {1-k, 1}: M(P^2) = ((1-k)^2+1)/2
  everywhere, so kappa4 = 1 - ((1-k)^2+1)/2; with k = 0.1 the majorant
  M(PH) of a constant H = c is c(1 - 0.05) wherever both stencils sit in
  the flats.  Both values verified by the two-term average by hand.
* zeta bump: flat value 1-kappa5 on [1/4, 3/4], 1 on [0,1/8] and [7/8,1],
  linear ramps, so the C1 norm along a unit window is kappa5 + 8 kappa5.
* sin roof (2 + 0.5 sin 2 pi x), b = 64: burn-in floor(4 ln 64) = 16, then
  every atom certifies Small bumps; with kappa5 = 0.05 the per-step core
  contraction is 1 - ((0.95)^2+1)/2 = 0.04875.  The majorant floor
  (n+1) eps^{1/4} ||u|| crosses min H at step 2 at this b.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transferlab.markov import _decode_words, doubling_model, markov3_model
from transferlab.rpf import build_rpf
from transferlab.scales import matching_scale
from transferlab import cancellation
from transferlab.cancellation import (
    SHRINK_RETRIES,
    Cancellation,
    EngineError,
    MajorantState,
    all_words,
    build_cancellation,
    build_partition,
    cauchy_schwarz_check,
    check_refining,
    choose_n1,
    choose_n4,
    cone_element,
    cone_image_trials,
    cone_membership,
    cone_ratio,
    dichotomy_test,
    majorant_step,
    random_cone_element,
    run_l2_iteration,
    zeta_bump,
)

SINROOF = (2.0, 0.0, 0.5, 0.0)
GRID = 4096


@pytest.fixture(scope="session")
def plain():
    return doubling_model(grid_size=GRID)


@pytest.fixture(scope="session")
def scale32(plain):
    return matching_scale(plain, 0.04)


@pytest.fixture(scope="session")
def part32(plain, scale32):
    return build_partition(plain, scale32)


@pytest.fixture(scope="session")
def rpf6(plain):
    return build_rpf(plain, 0.0, 6.0)


@pytest.fixture(scope="session")
def sin_model():
    return doubling_model(roof=SINROOF, grid_size=GRID)


@pytest.fixture(scope="session")
def sin64_cert(sin_model):
    return run_l2_iteration(sin_model, 0.0, 64.0)


def _ones(model, dtype=float):
    return np.ones((len(model.intervals), model.grid_size + 1), dtype=dtype)


def _span(part, i):
    return part.atoms.left[i], part.atoms.right[i]


def _words(model, rows):
    """Symbol rows (an atom or word-table column) as a list of str."""
    return _decode_words(rows, model.alphabet).tolist()


# ---------------------------------------------------------------------------
# partitions


def test_partition_dyadic_32(plain, part32):
    atoms = part32.atoms
    assert len(atoms) == 32
    assert all(a.depth == 5 for a in atoms)
    assert all(abs(a.right - a.left - 1 / 32) < 1e-15 for a in atoms)
    assert part32.starts.tolist() == [0, 32]
    assert part32.condition_margin == pytest.approx(1.0, abs=1e-12)
    assert part32.half_scale == pytest.approx(1.0, abs=1e-12)
    # exact dyadic spans, sorted and touching
    assert atoms.left.tolist() == [i / 32 for i in range(32)]
    assert atoms.right.tolist() == [(i + 1) / 32 for i in range(32)]


def test_partition_coarsest():
    m = doubling_model(mu=(1 / 3, 0, 0, 0), grid_size=256)
    sc = matching_scale(m, 0.4)
    assert sc.min_value == sc.values.max() == 2.0
    part = build_partition(m, sc)
    assert len(part.atoms) == 2
    assert part.atoms.left.tolist() == [0.0, 0.5]
    assert (part.atoms.right - part.atoms.left).tolist() == [0.5, 0.5]


def test_partition_nesting(plain, part32, scale32):
    finer = build_partition(plain, matching_scale(plain, 0.02))
    assert len(finer.atoms) == 64
    for a in finer.atoms:
        holder = part32.atoms[part32.locate(a.left + 1e-12)]
        assert holder.left <= a.left + 1e-12
        assert a.right <= holder.right + 1e-12


def test_partition_locate(plain, part32):
    for x in (0.0, 0.031249, 0.5, 0.74, 0.999):
        a = part32.atoms[part32.locate(x)]
        assert a.left <= x < a.right + 1e-12


def test_partition_markov3_margins():
    m = markov3_model(grid_size=1024)
    part = build_partition(m, matching_scale(m, 2.0 ** -4))
    assert part.condition_margin <= 1.0 + 1e-12
    # the stop rule plus inf-monotonicity bounds the shortfall by the slope
    assert part.half_scale >= 1.0 / 3.0 - 1e-9
    covered = sum(a.right - a.left for a in part.atoms)
    assert covered == pytest.approx(len(m.intervals), abs=1e-9)
    # each interval is covered by its own contiguous run of atoms
    for k, left in enumerate(m.lefts.tolist()):
        run = part.atoms[part.starts[k]:part.starts[k + 1]]
        assert (run.iid == k).all()
        assert run.left[0] == pytest.approx(left, abs=1e-9)
        assert run.right[-1] == pytest.approx(left + 1.0, abs=1e-9)
        assert float((run.right - run.left).sum()) == pytest.approx(
            1.0, abs=1e-9)


def test_refinement_step(plain, part32):
    assert choose_n1(plain, part32) == 1
    ok, witness = check_refining(plain, part32, 1)
    assert ok and witness is None
    assert check_refining(plain, part32, 2)[0]   # deeper also refines


def test_choose_n1_error_names_the_last_witness(monkeypatch):
    # 0>1 forbidden: at eps 2^-4 the atom depths run from 4 to 6 and two
    # steps refine, so a cap of one step fails on its witness
    m = markov3_model(roof=SINROOF, grid_size=256, forbidden=("0>1",))
    part = build_partition(m, matching_scale(m, 2.0 ** -4))
    assert choose_n1(m, part) == 2
    ok, (k, word) = check_refining(m, part, 1)
    assert not ok and part.atoms.iid[k] == 0 and len(word) == 1
    monkeypatch.setattr(cancellation, "STEP_CAP", 1)
    with pytest.raises(EngineError) as err:
        choose_n1(m, part)
    assert str(err.value) == (
        f"no refining step length up to 1; the image of atom {k} (U_0, "
        f"left {float(part.atoms.left[k])!r}) under branch word {word!r} "
        "lies in no one atom")


def test_all_words_affine(plain):
    word, contr, off, tgt, first = all_words(plain, 2)
    assert first.tolist() == [0, 4] and tgt.tolist() == [0] * 4
    items = dict(zip(_words(plain, word), zip(contr.tolist(), off.tolist())))
    assert items == {"00": (0.25, 0.0), "01": (0.25, 0.25),
                     "10": (0.25, 0.5), "11": (0.25, 0.75)}


def test_all_words_adjacency():
    m = markov3_model(grid_size=256)
    word, _, _, _, first = all_words(m, 3)
    assert (np.diff(first) > 0).all() and first[-1] == len(word)
    for w in _words(m, word):
        assert m.word_admissible(w)


# ---------------------------------------------------------------------------
# cones and bumps


def test_zeta_values():
    k = 0.08
    s = np.array([0.0, 0.125, 0.25, 0.5, 0.75, 0.875, 1.0])
    out = zeta_bump(s, k)
    np.testing.assert_allclose(
        out, [1, 1, 1 - k, 1 - k, 1 - k, 1, 1], atol=1e-15)
    assert zeta_bump(3 / 16, k) == pytest.approx(1 - k / 2, abs=1e-12)
    # |zeta'| <= 8 k, with equality on the ramps: slopes of the chords
    # between neighbouring points of a fine grid
    s = np.linspace(0.0, 1.0, 4097)
    slope = np.abs(np.diff(zeta_bump(s, k))) / np.diff(s)
    assert slope.max() == pytest.approx(8 * k, rel=1e-9)


@given(st.floats(0.0, 1.0), st.floats(0.001, 0.24))
@settings(max_examples=60, deadline=None)
def test_zeta_bounds_symmetry(s, k):
    v = float(zeta_bump(s, k))
    assert 1 - k - 1e-15 <= v <= 1 + 1e-15
    assert v == pytest.approx(float(zeta_bump(1.0 - s, k)), abs=1e-12)


def test_cone_const(plain, scale32):
    assert cone_membership(plain, scale32, _ones(plain)) == (True, 1.0)


def test_cone_boundary(plain, scale32):
    xs = np.arange(GRID + 1) / GRID
    member, margin = cone_membership(plain, scale32, np.exp(32 * xs)[None, :])
    assert member
    assert abs(margin) < 1e-3
    ratio = cone_ratio(plain, scale32, np.exp(32 * xs)[None, :])
    assert ratio == pytest.approx(1.0, abs=1e-3)


def test_cone_rejects_steep(plain, scale32):
    xs = np.arange(GRID + 1) / GRID
    tenfold = np.exp(np.clip(320 * xs, None, 300))[None, :]
    member, margin = cone_membership(plain, scale32, tenfold)
    assert not member
    assert margin < -5.0
    with pytest.raises(EngineError):
        cone_element(plain, scale32, tenfold)
    with pytest.raises(EngineError):
        cone_ratio(plain, scale32, np.zeros((1, GRID + 1)))


def test_cone_random_elements(plain, scale32):
    rng = np.random.default_rng(5)
    for _ in range(5):
        h = random_cone_element(plain, scale32, rng)
        member, margin = cone_membership(plain, scale32, h)
        assert member and margin > 0.0


def test_cone_image_trials(plain, rpf6, scale32):
    n4 = choose_n4(plain, rpf6, scale32, trials=8)
    assert 1 <= n4 <= 4
    rep = cone_image_trials(plain, rpf6, scale32, n4, trials=25, seed=11)
    assert rep.ok and rep.min_margin > 0.0
    assert len(rep.margins) == 25


# ---------------------------------------------------------------------------
# dichotomy


def _dichotomy(model, rpf, u, big_h, span, w, kappa6):
    """The table row of one (span, branch) pair, w a row of the one-step
    all_words table."""
    _, contr, off, tgt, _ = all_words(model, 1)
    tables = cancellation._dichotomy_tables(model, rpf.f_ab_grid, 1)
    res = dichotomy_test(model, rpf, u, big_h, *span, contr[w], off[w],
                         tgt[w], kappa6, tables)
    assert res.dtype == cancellation.DICHOTOMY_DTYPE and len(res) == 1
    return res[0]


def test_dichotomy_zero_u(plain, rpf6, part32):
    t = _dichotomy(plain, rpf6, _ones(plain, complex) * 0.0,
                   _ones(plain), _span(part32, 3), 0, 0.05)
    assert t.kind == cancellation.SMALL
    assert t.max_ratio == 0.0
    assert t.weight == pytest.approx(0.5, abs=1e-12)


def test_dichotomy_half(plain, rpf6, part32):
    u = 0.5 * np.exp(1j * 1.2) * _ones(plain, complex)
    t = _dichotomy(plain, rpf6, u, _ones(plain), _span(part32, 0), 1, 0.05)
    assert t.kind == cancellation.SMALL
    assert t.max_ratio == pytest.approx(0.5, abs=1e-12)


def test_dichotomy_aligned_constant_roof(plain, rpf6, part32):
    # tau = 1: the branch phase b*tau_1 is globally constant
    t = _dichotomy(plain, rpf6, _ones(plain, complex), _ones(plain),
                   _span(part32, 7), 0, 0.05)
    assert t.kind == cancellation.ALIGNED
    assert t.spread < 1e-12
    assert t.omega == pytest.approx(6.0 % (2 * math.pi), abs=1e-12)


def test_dichotomy_indeterminate_sin(sin_model, part32):
    # full modulus with a drifting phase: neither branch case certifies
    m = sin_model
    rpf = build_rpf(m, 0.0, 6.0)
    sc = matching_scale(m, 0.04)
    part = build_partition(m, sc)
    t = _dichotomy(m, rpf, _ones(m, complex), _ones(m), _span(part, 5), 0,
                   0.05)
    assert t.kind == cancellation.INDETERMINATE


# ---------------------------------------------------------------------------
# cutoff construction


def test_small_case_bumps(plain, rpf6, part32, scale32):
    u0 = np.zeros((1, GRID + 1), dtype=complex)
    canc = build_cancellation(plain, rpf6, part32, u0, _ones(plain),
                              range(32), 1, kappa5=0.05, kappa6=0.05)
    assert len(canc.records) == 32
    assert canc.bumped_atoms == frozenset(range(32))
    assert canc.skipped == 0
    assert canc.kappa5 == 0.05                  # no cone shrink at default
    assert canc.retries == 0
    assert float(canc.p_values.min()) == 1.0 - 0.05
    assert float(canc.p_values.max()) == 1.0
    assert canc.cone_ratio_p <= 1.0
    word, contr, off, _, _ = all_words(plain, 1)
    words = set(zip(_words(plain, word), contr.tolist(), off.tolist()))
    support = np.zeros(GRID + 1, dtype=bool)
    for r in canc.records:
        assert r.case == "small"
        atom = part32.atoms[r.atom_index]
        (c, o) = next((c, o) for w, c, o in words if w == r.word)
        lo, hi = c * atom.left + o, c * atom.right + o
        js = slice(int(lo * GRID), int(hi * GRID) + 1)
        support[js] = True
        # flat at 1 - kappa5 across the middle half of the branch image
        mid = slice(int((lo + 0.3 * (hi - lo)) * GRID),
                    int((lo + 0.7 * (hi - lo)) * GRID))
        assert np.all(canc.p_values[0, mid] == 1.0 - 0.05)
        # back to one at the image edges
        assert canc.p_values[0, int(round(lo * GRID))] == 1.0
        assert canc.p_values[0, int(round(hi * GRID))] == 1.0
    assert np.all(canc.p_values[0, ~support] == 1.0)


def test_cancellation_refuses_without_margin(plain, rpf6, part32):
    with pytest.raises(EngineError):
        build_cancellation(plain, rpf6, part32,
                           np.zeros((1, GRID + 1), complex), _ones(plain),
                           range(32), 1, kappa6=0.0)
    with pytest.raises(EngineError):
        build_cancellation(plain, rpf6, part32,
                           np.zeros((1, GRID + 1), complex), _ones(plain),
                           range(32), 1, kappa5=0.3, kappa6=0.05)


def test_cone_autoshrink(plain, rpf6, part32):
    # kappa5 = 0.2 at n1 = 1 cannot sit in the cone; the builder shrinks it
    u0 = np.zeros((1, GRID + 1), dtype=complex)
    canc = build_cancellation(plain, rpf6, part32, u0, _ones(plain),
                              range(32), 1, kappa5=0.2, kappa6=0.05)
    assert canc.kappa5 < 0.2
    assert 1 <= canc.retries <= SHRINK_RETRIES
    assert canc.cone_ratio_p <= 1.0
    assert float(canc.p_values.min()) == pytest.approx(1 - canc.kappa5,
                                                       abs=1e-12)


def test_cone_retry_is_bounded(plain, rpf6, part32, monkeypatch):
    # a cutoff that never fits the cone ends with an error, not a recursion
    calls = []

    def never_fits(model, scale, values):
        calls.append(1)
        return 2.0

    monkeypatch.setattr(cancellation, "cone_ratio", never_fits)
    u0 = np.zeros((1, GRID + 1), dtype=complex)
    with pytest.raises(EngineError, match="kappa5 shrinks"):
        build_cancellation(plain, rpf6, part32, u0, _ones(plain),
                           range(32), 1, kappa5=0.05, kappa6=0.05)
    assert len(calls) == SHRINK_RETRIES + 1


def test_paired_case(sin_model):
    # craft u so both branches align at distinct phases: gap 0.8 > kappa6/2
    m = sin_model
    rpf = build_rpf(m, 0.0, 6.0)
    part = build_partition(m, matching_scale(m, 0.04))
    xs = np.arange(GRID + 1) / GRID
    tau1 = np.asarray(m.roof(xs))[None, :]
    u = np.exp(-1j * rpf.b * tau1).astype(complex)
    u[0, xs >= 0.5] *= np.exp(1j * 0.8)
    canc = build_cancellation(m, rpf, part, u, _ones(m), range(32), 1,
                              kappa5=0.05, kappa6=0.09)
    paired = [r for r in canc.records if r.case == "paired"]
    assert len(paired) >= 30
    assert canc.skipped <= 2
    assert float(canc.p_values.min()) == 1.0 - 0.05
    for r in paired:
        assert r.hi - r.lo > 0.09    # |J1| beats kappa6
        assert 0.0 < r.kappa5 <= 0.05 + 1e-15


@pytest.mark.parametrize("weights", ([2.0, 1.0], [1.0, 2.0]))
def test_pair_plan_bumps_the_lighter_branch(weights):
    # the two one-step branches of the sine-roof doubling map, u = H = 1:
    # their phase gap 1.5 sin(pi y) clears kappa6/2 on most of the
    # interval, so a pair plan exists whichever branch is lighter
    m = doubling_model(roof=SINROOF, grid_size=64)
    _, contr, off, tgt, first = all_words(m, 1)
    rows = np.arange(first[0], first[1])
    ones = np.ones((1, 65))
    y = np.arange(65) / 64
    plan = cancellation._pair_plan(
        m, 1.5, np.zeros_like(ones), y, np.array([0.0, 1.0]),
        np.array(weights), contr[rows], off[rows], tgt[rows],
        ones.astype(complex), ones, 0.2, 1)
    assert plan is not None
    assert plan[0] == int(np.argmin(weights))


def _plan_on_halves(omegas, kappa6, big_h=1.0, off=(0.0, 0.5)):
    """_pair_plan at b = 64 on the sine-roof doubling map, grid 64, for the
    first 17 nodes: two one-step branches y/2 + off, both into interval 0,
    weights 1 and 2, u = e^(40ix) and H constant."""
    m = doubling_model(roof=SINROOF, grid_size=64)
    x = np.arange(65) / 64
    return cancellation._pair_plan(
        m, 64.0, np.zeros((1, 65)), x[:17], np.array(omegas),
        np.array([1.0, 2.0]), np.array([0.5, 0.5]), np.array(off),
        np.array([0, 0]), np.exp(40j * x)[None, :], np.full((1, 65), big_h),
        kappa6, 1)


def test_pair_plan_accepts_and_rejects():
    # with H = 1 the plan is kept: the lighter branch 0 over the whole
    # window, with room 0.0037 above the 1e-4 floor
    k, window, room = _plan_on_halves((0.0, 1.0), 0.2)
    assert (k, window) == (0, (0.0, 1.0))
    assert room == pytest.approx(0.0037255037621712894, rel=1e-9)
    # each rejection alone: no phase gap; a gap of exactly kappa6/2 (exact
    # on the torus at kappa6 = 1/4, where a gap of 1 is accepted); equal
    # branches, whose phase difference is 0 so no window clears; H = 0,
    # which leaves room 0
    assert _plan_on_halves((0.0, 0.0), 0.2) is None
    assert _plan_on_halves((0.0, 1.0), 0.25) is not None
    assert _plan_on_halves((0.0, 0.125), 0.25) is None
    assert _plan_on_halves((0.0, 1.0), 0.2, off=(0.0, 0.0)) is None
    assert _plan_on_halves((0.0, 1.0), 0.2, big_h=0.0) is None


# ---------------------------------------------------------------------------
# majorant recursion and square comparison


def test_majorant_p1_constant(plain, rpf6, scale32, part32):
    ones = _ones(plain)
    state = MajorantState(0, 0.3 * ones.astype(complex),
                          cone_element(plain, scale32, ones),
                          frozenset(range(32)), 1.0)
    ident = Cancellation(ones, np.zeros(ones.shape, bool), frozenset(),
                         (), 0.0, 0.05, 32, 0.0)
    nxt, _ = majorant_step(plain, rpf6, state, ident, 1)
    # M1 = 1: a constant majorant stays that constant
    np.testing.assert_allclose(nxt.big_h.values, 1.0, atol=1e-12)
    assert nxt.n == 1
    assert nxt.omega_atoms == state.omega_atoms


def test_majorant_two_branch_core(plain, rpf6, scale32):
    # hand-built cutoff: 0.9 on the left branch image, a short linear ramp
    # to 1 across [0.49, 0.51] so the image stays in the cone
    xs = np.arange(GRID + 1) / GRID
    P = np.clip(0.9 + 0.1 * (xs - 0.49) / 0.02, 0.9, 1.0)[None, :]
    ones = _ones(plain)
    state = MajorantState(0, np.zeros((1, GRID + 1), complex),
                          cone_element(plain, scale32, ones), frozenset(),
                          1.0)
    canc = Cancellation(P, np.zeros(P.shape, bool), frozenset([0]), (),
                        0.1, 0.05, 0, 0.0)
    nxt, _ = majorant_step(plain, rpf6, state, canc, 1)
    sel = (xs > 0.05) & (xs < 0.45)
    np.testing.assert_allclose(nxt.big_h.values[0, sel], 1 - 0.05, atol=1e-12)
    assert nxt.big_h.values.max() <= 1.0 + 1e-12


def test_majorant_domination_oracle(plain, rpf6, scale32):
    ones = _ones(plain)
    state = MajorantState(0, 2.0 * ones.astype(complex),
                          cone_element(plain, scale32, ones), frozenset(),
                          1.0)
    ident = Cancellation(ones, np.zeros(ones.shape, bool), frozenset(),
                         (), 0.0, 0.05, 0, 0.0)
    with pytest.raises(EngineError, match="domination"):
        majorant_step(plain, rpf6, state, ident, 1)


def _square_check(rpf, p, h, core, n1):
    """cauchy_schwarz_check on P H, P^2 and H^2 pushed n1 times by M."""
    pos = rpf.m_op()
    pushed = (p * h, p * p, h * h)
    for _ in range(n1):
        pushed = tuple(pos(a) for a in pushed)
    return cauchy_schwarz_check(*pushed, core)


def test_cs_equality_p1(plain, rpf6):
    ones = _ones(plain)
    core = np.zeros(ones.shape, bool); core[0, 100:-100] = True
    rep = _square_check(rpf6, ones, ones, core, 1)
    assert rep.ok
    assert abs(rep.max_violation) <= 1e-12
    assert rep.kappa4 == pytest.approx(0.0, abs=1e-12)


def test_cs_two_branch_kappa4(plain, rpf6):
    kap = 0.1
    xs = np.arange(GRID + 1) / GRID
    P = np.ones((1, GRID + 1)); P[0, xs < 0.5] = 1 - kap
    core = np.zeros(P.shape, bool)
    core[0, (xs > 0.05) & (xs < 0.45)] = True
    rep = _square_check(rpf6, P, _ones(plain), core, 1)
    assert rep.ok
    assert rep.kappa4 == pytest.approx(1 - ((1 - kap) ** 2 + 1) / 2,
                                       abs=1e-12)


def test_cs_random_p(plain, rpf6):
    rng = np.random.default_rng(0)
    P = rng.uniform(0.9, 1.0, (1, GRID + 1))
    H = np.exp(rng.uniform(-1.0, 1.0, (1, GRID + 1)))
    core = np.ones(P.shape, bool)
    rep = _square_check(rpf6, P, H, core, 2)
    assert rep.ok


# ---------------------------------------------------------------------------
# the full iteration


def test_run_sin64_certificate(sin64_cert):
    cert = sin64_cert
    assert not cert.refused
    assert cert.n1 == 1
    assert cert.burn_in == 16
    assert cert.atoms == 128
    assert cert.kappa6 == 0.099
    assert cert.kappa_uni > 0.15
    l2u = [r.l2_u for r in cert.rows]
    l2h = [r.l2_h for r in cert.rows]
    assert all(a > b for a, b in zip(l2u, l2u[1:]))
    assert all(a > b for a, b in zip(l2h, l2h[1:]))
    assert all(r.l2_u <= r.l2_h + 1e-15 for r in cert.rows)
    assert all(r.cs_violation <= 1e-12 for r in cert.rows)
    assert all(r.bumps > 0 for r in cert.rows[1:])
    assert cert.contracted


def test_run_sin64_contraction_value(sin64_cert):
    # every atom bumps one of two equal-weight branches at kappa5 = 0.05
    assert sin64_cert.kappa5 == 0.05
    assert sin64_cert.kappa4_min == pytest.approx(
        1 - (0.95 ** 2 + 1) / 2, abs=5e-4)
    assert sin64_cert.kappa_fit is not None and sin64_cert.kappa_fit > 0.1


def test_run_sin64_truncation_and_visits(sin64_cert):
    # the majorant floor (n+1) eps^{1/4} h0 crosses min H at step 2
    assert sin64_cert.truncated_at == 2
    assert sin64_cert.visits is not None
    for kappa, bad, bound, ok in sin64_cert.visits:
        assert 0.0 <= bad <= 1.0
    assert sin64_cert.holder_ratio > 0.0


def test_run_resonance_refusal():
    m = doubling_model(roof=(1.0, 0, 0, 0), grid_size=GRID)
    cert = run_l2_iteration(m, 0.0, 2 * math.pi)
    assert cert.refused
    assert cert.kappa_uni == 0.0
    assert cert.kappa5 == 0.0
    assert cert.kappa4_min == 0.0
    assert not cert.contracted
    assert cert.truncated_at is None
    assert cert.visits is None
    for r in cert.rows:
        assert r.l2_u == pytest.approx(1.0, abs=1e-10)
        assert r.bumps == 0


def test_run_markov3():
    m = markov3_model(roof=SINROOF, grid_size=GRID)
    cert = run_l2_iteration(m, 0.0, 48.0, eps=2.0 ** -4)
    assert not cert.refused
    assert cert.kappa4_min > 0.0
    l2u = [r.l2_u for r in cert.rows]
    assert all(a > b for a, b in zip(l2u, l2u[1:]))
    assert all(r.cs_violation <= 1e-12 for r in cert.rows)
