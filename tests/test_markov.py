"""Model construction, branches, words, cocycles.

Expected values below were derived by hand before the implementation and
frozen here:
  * doubling branches: v_0(x) = x/2, v_1(x) = (x+1)/2, so v_0(0.5) = 0.25
    and v_1(0.0) = 0.5.
  * slope-2 expansion over 5 steps: 2^5 = 32; slope-3 over 4 steps: 3^4 = 81.
  * Birkhoff sum of roof 2 + x at x = 0 over 2 steps: orbit (0, 0),
    sum = 2 + 2 = 4.
  * word counts: doubling length 3 -> 2^3 = 8; markov3 with one forbidden
    transition, length 2 -> 3^2 - 1 = 8.
  * roof 2 + 0.5 sin(2 pi x): extrema 1.5 and 2.5.
  * markov3 with 0>1 forbidden, read outside the phase space [0, 3]:
    U_0 has slices onto U_0 and U_2 (out-degree 2), U_2 three slices
    (out-degree 3).  -0.5 reads U_0: slope 2, and slice 0 at 2 * -0.5 =
    -1 sends it to 0 + (-1) = -1.  3.5 reads U_2: slope 3, and slice 2 at
    3 * 1.5 = 4.5 sends it to 2 + (4.5 - 2) = 4.5.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transferlab import ModelConfig, ModelError, build_model, doubling_model, markov3_model


def sin_roof_model(**kw):
    return doubling_model(roof=(2.0, 0.0, 0.5, 0.0), **kw)


def admissible_words(m, n):
    """Every word of length n that word_admissible accepts, lexicographic."""
    words = map("".join, itertools.product(m.alphabet, repeat=n))
    return [w for w in words if m.word_admissible(w)]


def expansion(m, x, n):
    """Lambda_n(x): product of |sigma'| along the n-step forward orbit."""
    return m._orbit_fold(x, n, m.slope_at, np.prod)


def branch_instances(m):
    """(symbol, domain index) of every inverse branch of m."""
    return [(m.alphabet[i], k)
            for i, k in np.argwhere(~np.isnan(m.branch_slope)).tolist()]


class TestBuild:
    def test_doubling_defaults(self):
        m = doubling_model()
        assert m.intervals == ("u",)
        assert m.alphabet == ("0", "1")
        # mu = 1/2 matches the slope, so all four rates coincide
        assert m.chi_0 == pytest.approx(math.log(2), abs=1e-12)
        assert m.chi_star == pytest.approx(math.log(2), abs=1e-12)

    def test_roof_extrema(self):
        m = sin_roof_model()
        assert m.tau_0 == pytest.approx(1.5, abs=1e-12)
        assert m.tau_star == pytest.approx(2.5, abs=1e-12)

    def test_markov3_full_shift_slope(self):
        m = markov3_model()
        assert len(branch_instances(m)) == 9
        assert m.chi_u == pytest.approx(math.log(3), abs=1e-12)
        # chi_0 is the weaker of unstable and stable rates
        assert m.chi_0 == pytest.approx(min(math.log(3), math.log(2)), abs=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ModelError):
            doubling_model(roof=(0.0, 0.0, 0.5, 0.0))  # roof touches zero
        with pytest.raises(ModelError):
            doubling_model(mu=(1.2, 0.0, 0.0, 0.0))
        with pytest.raises(ModelError):
            doubling_model(grid_size=100)  # not a power of two
        with pytest.raises(ModelError):
            build_model(ModelConfig("doubling", theta=0.0))
        with pytest.raises(ModelError):
            build_model(ModelConfig("markov3", forbidden=("0>1", "1>2")))
        nan, inf = float("nan"), float("inf")
        for key, coeffs in (("roof", (nan, 0.0, 0.0, 0.0)),
                            ("roof", (2.0, 0.0, inf, 0.0)),
                            ("potential", (0.0, 0.0, 0.0, -inf)),
                            ("mu", (0.5, nan, 0.0, 0.0))):
            with pytest.raises(ModelError, match=f"{key} coefficients must be finite"):
                doubling_model(**{key: coeffs})
        for line in ("roof = 1, x, 0, 0", "grid_size = 1e3", "theta = half",
                     "slopes = 2, two"):
            key = line.partition(" ")[0]
            with pytest.raises(ModelError, match=f"^{key}: cannot read"):
                ModelConfig.from_text(f"family = doubling\n{line}\n")

    def test_rejects_repeated_forbidden_entry(self):
        for entries in (("0>1", "0>1"), ("0>0", " 0 > 0 ")):
            with pytest.raises(ModelError, match="listed twice"):
                build_model(ModelConfig("markov3", forbidden=entries))

    def test_declared_slopes_checked(self):
        with pytest.raises(ModelError):
            build_model(ModelConfig("doubling", slopes=(3.0, 3.0)))
        m = build_model(ModelConfig("doubling", slopes=(2.0, 2.0)))
        assert m.config.slopes == (2.0, 2.0)


class TestConfigRoundTrip:
    def test_exact_round_trip(self):
        cfg = ModelConfig("markov3", roof=(2.0, 0.0, 0.5, 0.0),
                          potential=(0.0, 0.0, 0.0, 0.3),
                          mu=(1 / 3, 0.0, 0.0, 0.0),
                          grid_size=8192, theta=0.65, forbidden=("2>2",))
        built = build_model(cfg)
        text = built.config.to_text()
        again = ModelConfig.from_text(text)
        assert again == built.config
        assert build_model(again).config.to_text() == text

    def test_unknown_key_rejected(self):
        with pytest.raises(ModelError):
            ModelConfig.from_text("family = doubling\nshape = round\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ModelError):
            ModelConfig.from_text("family = doubling\nfamily = doubling\n")

    @given(st.tuples(st.floats(1.5, 4.0), st.floats(-0.25, 0.25),
                     st.floats(-0.25, 0.25), st.floats(-0.25, 0.25)))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_random_roofs(self, roof):
        cfg = ModelConfig("doubling", roof=roof, grid_size=64)
        assert ModelConfig.from_text(cfg.to_text()) == cfg


class TestBranches:
    def test_doubling_branch_values(self):
        m = doubling_model()
        assert m.apply_word("0", 0.5) == pytest.approx(0.25, abs=0)
        assert m.apply_word("1", 0.0) == pytest.approx(0.5, abs=0)

    def test_word_application_matches_manual_composition(self):
        m = doubling_model()
        # v_01 = v_0(v_1(x)) = ((x+1)/2)/2
        x = 0.375
        assert m.apply_word("01", x) == pytest.approx(((x + 1) / 2) / 2, abs=1e-15)

    def test_branch_images_nest_in_targets(self):
        m = markov3_model(forbidden=("2>2",))
        for sym, dom in branch_instances(m):
            # an array is walked from the interval of its first point
            lo, hi = m.apply_word(sym, m.lefts[dom] + np.array([0.0, 1.0]))
            tgt = m.lefts[m.symbol_target[m.alphabet.index(sym)]]
            assert tgt - 1e-12 <= lo < hi <= tgt + 1.0 + 1e-12

    def test_sigma_inverts_branches_on_grid(self):
        m = markov3_model(forbidden=("2>2",))
        for sym, dom in branch_instances(m):
            xs = m.nodes()[dom, :-1]
            back = m.forward(m.apply_word(sym, xs))
            assert np.max(np.abs(back - xs)) < 1e-10

    def test_word_counts(self):
        assert len(admissible_words(doubling_model(), 3)) == 8
        assert len(admissible_words(markov3_model(forbidden=("2>2",)), 2)) == 8
        assert len(admissible_words(markov3_model(), 1)) == 3

    def test_word_count_matches_transition_matrix_power(self):
        # independent route: adjacency matrix count of admissible sequences
        m = markov3_model(forbidden=("0>2",))
        adj = np.ones((3, 3))
        adj[0, 2] = 0.0
        for n in range(1, 7):
            # number of admissible words of length n = sum over paths with
            # n-1 allowed steps
            expect = int(np.ones(3) @ np.linalg.matrix_power(adj, n - 1) @ np.ones(3))
            assert len(admissible_words(m, n)) == expect

    def test_inadmissible_word_rejected(self):
        m = markov3_model(forbidden=("2>2",))
        assert not m.word_admissible("22")
        # the empty word and symbols outside the alphabet
        for w in ("", "3", "03", "30", "0a1"):
            assert not m.word_admissible(w)
        with pytest.raises(ModelError):
            m.apply_word("22", 2.5)


class TestForward:
    def test_grid_orbits_stay_on_grid(self):
        for m in (doubling_model(grid_size=256), markov3_model(grid_size=256, forbidden=("1>0",))):
            for xs in m.nodes()[:, :-1]:
                pts = xs.copy()
                for _ in range(12):
                    pts = m.forward(pts)
                    frac = pts - np.floor(pts)
                    ongrid = np.round(frac * m.grid_size) / m.grid_size
                    assert np.max(np.abs(frac - ongrid)) == 0.0

    def test_boundary_resolves_right_continuously(self):
        m = doubling_model()
        # 0.5 is the left endpoint of the second slice
        assert m.forward(0.5) == pytest.approx(0.0, abs=0)

    def test_outside_coordinates_read_the_nearest_interval(self):
        # each side reads an interval of its own out-degree, so neither
        # clip of MarkovModel._interval can go unseen
        m = markov3_model(forbidden=("0>1",))
        xs = np.array([-0.5, 3.5])
        assert m.slope_at(xs).tolist() == [2.0, 3.0]
        assert m.forward(xs).tolist() == [-1.0, 4.5]
        assert (m.slope_at(-0.5), m.forward(-0.5)) == (2.0, -1.0)
        assert (m.slope_at(3.5), m.forward(3.5)) == (3.0, 4.5)
        for x in xs:
            with pytest.raises(ModelError, match="outside the phase space"):
                m.interval_index(x)

    def test_contraction_sandwich(self):
        # measured contraction of every word of length n sits between the
        # chi_star and chi_0 envelopes with a constant reported as C'
        m = markov3_model(forbidden=("2>1",))
        rng = np.random.default_rng(7)
        worst = 1.0
        for n in (1, 3, 5):
            for w in admissible_words(m, n):
                doms = [d for s, d in branch_instances(m) if s == w[-1]]
                for d in doms:
                    x, y = sorted(m.lefts[d] + rng.random(2))
                    vx = m.apply_word(w, x)
                    vy = m.apply_word(w, y)
                    ratio = abs(vx - vy) / (y - x)
                    hi = math.exp(-n * m.chi_0)
                    lo = math.exp(-n * m.chi_star)
                    assert lo / 2 <= ratio <= hi * 2
                    worst = max(worst, ratio / hi, lo / ratio)
        assert worst <= 2.0  # C' for the built-in families


class TestCocycles:
    def test_expansion_values(self):
        m = doubling_model()
        assert expansion(m, 0.1, 5) == 32.0
        m3 = markov3_model()
        assert expansion(m3, 0.7, 4) == 81.0

    def test_birkhoff_affine_roof(self):
        m = doubling_model(roof=(2.0, 1.0, 0.0, 0.0))
        assert m.birkhoff_sum(m.roof, 0.0, 2) == 4.0

    @given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 1023))
    @settings(max_examples=60, deadline=None)
    def test_cocycle_identity_exact(self, n, k, j):
        # Lambda_{n+k}(x) = Lambda_n(x) * Lambda_k(sigma^n x), exactly,
        # because per-step factors are small integers
        m = markov3_model(forbidden=("0>0",), grid_size=1024)
        x = 1.0 + j / 1024
        lhs = expansion(m, x, n + k)
        xn = x
        for _ in range(n):
            xn = m.forward(xn)
        rhs = expansion(m, x, n) * expansion(m, xn, k)
        assert lhs == rhs

    def test_det_step_doubling_third(self):
        m = doubling_model(mu=(1 / 3, 0.0, 0.0, 0.0))
        assert m.det_step(0.3) == pytest.approx(2 / 3, abs=1e-15)

    def test_mu_cocycle_in_expected_band(self):
        m = doubling_model(mu=(0.4, 0.0, 0.0, 0.1))
        xs = m.nodes()[0, :-1]
        for n in (1, 4):
            vals = m.stable_cocycle(xs, n)
            assert np.all(vals > math.exp(-n * m.chi_s_bar) * (1 - 1e-12))
            assert np.all(vals < math.exp(-n * m.chi_s) * (1 + 1e-12))


class TestRoofSeminormOnWords:
    def test_roof_word_seminorm_bounded_in_depth(self):
        # theta-seminorm of tau_n(v_word(.)) stays bounded as n grows; the
        # per-depth maxima are reported and must plateau
        m = sin_roof_model(grid_size=512)
        xs = m.nodes()[0]
        maxima = []
        for n in range(1, 11):
            worst = 0.0
            for w in admissible_words(m, n)[:32]:
                vals = m.roof_sum_on_word(w, xs)
                diffs = np.abs(np.diff(vals))
                seps = np.diff(xs)
                worst = max(worst, float(np.max(diffs / seps ** m.theta)))
            maxima.append(worst)
        # geometric tail: sup_n m_n <= m_5 * (1 - 2^-10)/(1 - 2^-5) ~ 1.031 m_5
        assert maxima[9] <= maxima[4] * 1.05 + 1e-9
        assert maxima[9] - maxima[8] <= (maxima[1] - maxima[0]) + 1e-9
        assert maxima[9] < 10.0
