import decimal
import math
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from branchwaves import analysis, spectral
from branchwaves.errors import (DomainError, InvalidSegmentError, OscillatoryRegimeError,
                               SplittingError)
from branchwaves.model import Params


class TestFixedPointSpectrum:
    def test_zero_eigenvalue_always(self):
        lam0, _, _ = analysis.fixed_point_spectrum(1.3, 2.0)
        assert lam0 == 0.0

    def test_K1_boundary(self):
        _, lam_plus, lam_minus = analysis.fixed_point_spectrum(1.0, 3.0)
        assert lam_plus == pytest.approx(0.0)
        assert lam_minus == pytest.approx(-3.0)

    def test_K2_c2(self):
        _, lam_plus, lam_minus = analysis.fixed_point_spectrum(2.0, 2.0)
        assert lam_plus == pytest.approx(-1.0 + math.sqrt(2.0))
        assert lam_minus == pytest.approx(-1.0 - math.sqrt(2.0))

    def test_spiral_case(self):
        _, lam_plus, lam_minus = analysis.fixed_point_spectrum(0.0, 1.0)
        # c^2/4 + K - 1 < 0: the roots are a complex pair
        assert lam_plus.imag != 0
        assert lam_plus == pytest.approx(complex(-0.5, math.sqrt(3) / 2))
        assert lam_minus == pytest.approx(complex(-0.5, -math.sqrt(3) / 2))

    @given(K=st.floats(-1, 3), c=st.floats(0.2, 5))
    def test_vieta(self, K, c):
        _, lam_plus, lam_minus = analysis.fixed_point_spectrum(K, c)
        assert complex(lam_plus + lam_minus) == pytest.approx(-c, abs=1e-12)
        assert complex(lam_plus * lam_minus) == pytest.approx(1 - K, abs=1e-12)

    def test_matches_jacobian_eigenvalues(self):
        # numerical eigensolver oracle on the full 3x3 Jacobian
        for K, c, r in [(2.0, 2.0, 0.0), (1.5, 3.0, 1.0), (1.2, 1.4, 0.3)]:
            lam0, lam_plus, lam_minus = analysis.fixed_point_spectrum(K, c)
            jac = spectral._weighted_matrix(0.0, K, 0.0, Params(c=c, r=r), 0.0)
            eig = np.linalg.eigvals(jac)
            expected = sorted([lam0, lam_plus, lam_minus], key=lambda x: x.real)
            got = sorted(eig.real)
            np.testing.assert_allclose(got, expected, atol=1e-12)


class TestEigenvector:
    @pytest.mark.parametrize("gamma", [0.0, 0.7, 0.3 + 2.0j, 1e-3 - 5.0j])
    @pytest.mark.parametrize("K, c, r, w", [(2.0, 2.0, 0.0, 0.0), (0.4, 3.0, 1.0, 1.5),
                                            (1.2, 1.4, 0.3, 0.7)])
    def test_eigenpairs_of_the_weighted_matrix(self, gamma, K, c, r, w):
        # oracle: the spectral generator at a = 0, which adds the weight w
        # to every eigenvalue and keeps the eigenvectors
        jac = spectral._weighted_matrix(0.0, K, gamma, Params(c=c, r=r), w)
        _, *roots = analysis.fixed_point_spectrum(K, c, gamma, w)
        for nu in roots:
            v = np.array(analysis.eigenvector(K, c, r, nu - w, gamma))
            np.testing.assert_allclose(jac @ v, nu * v, rtol=1e-12, atol=1e-12)

    def test_collision_with_the_i_mode(self):
        # at K = 1, gamma = 0 the growing root meets the i-mode 0
        with pytest.raises(SplittingError, match="collides with the i-mode"):
            analysis.eigenvector(1.0, 2.0, 0.0, 0.0)


class TestSubsystem:
    """The frozen-inactive subsystem's eigen-structure, read off its triangle.

    The edge v0-apex runs along the lambda_plus eigendirection at v0, so
    tan(gamma_l) = -lambda_plus; the edge v1-apex runs along the beta_plus
    eigendirection at v1, so tan(gamma_r) = beta_plus.
    """

    def test_degenerate_node_at_i0_c2(self):
        # lambda_pm = -1 (double), beta_plus = -1 + sqrt(2)
        t = analysis.triangle(0.0, 2.0)
        assert t.gamma_l == pytest.approx(math.pi / 4)
        assert t.gamma_r == pytest.approx(math.pi / 8)

    def test_half_level(self):
        t = analysis.triangle(0.5, 2.0)
        assert math.tan(t.gamma_l) == pytest.approx(1.0 - math.sqrt(0.5))
        assert math.tan(t.gamma_r) == pytest.approx(-1.0 + math.sqrt(1.5))

    def test_critical_boundary_c1(self):
        # lambda_pm = -1/2 (double) at i = i_c = 3/4
        t = analysis.triangle(0.75, 1.0)
        assert math.tan(t.gamma_l) == pytest.approx(0.5)

    def test_domain(self):
        with pytest.raises(DomainError):
            analysis.triangle(1.0, 2.0)
        with pytest.raises(DomainError):
            analysis.triangle(-0.1, 2.0)

    @pytest.mark.parametrize("i,c", [(0.2, 2.0), (0.5, 2.0), (0.8, 1.5), (0.9, 3.0)])
    def test_eigendirections(self, i, c):
        # oracle: apply the 2-D Jacobians at v0 and v1 to the edges meeting there
        t = analysis.triangle(i, c)
        J0 = np.array([[0.0, 1.0], [i - 1.0, -c]])
        J1 = np.array([[0.0, 1.0], [1.0 - i, -c]])
        _, lam, _ = analysis.fixed_point_spectrum(i, c)
        beta = -c / 2 + math.sqrt(c * c / 4 + 1 - i)
        np.testing.assert_allclose(J0 @ t.apex, lam * t.apex, atol=1e-12)
        d = t.apex - t.v1
        np.testing.assert_allclose(J1 @ d, beta * d, atol=1e-12)

    def test_ordering_invariant(self):
        # lambda_plus < 0 < beta_plus and -lambda_plus > beta_plus
        for i in [0.0, 0.3, 0.7, 0.99]:
            t = analysis.triangle(i, 2.0)
            assert 0 < t.gamma_r < t.gamma_l <= math.pi / 4
            assert 0 < t.apex[0] < t.v1[0]


class TestMinimalLevelAndRates:
    def test_minimal_inactive_limit(self):
        assert analysis.minimal_inactive_limit(2.0) == 0.0
        assert analysis.minimal_inactive_limit(1.0) == pytest.approx(0.75)
        assert analysis.minimal_inactive_limit(3.0) == 0.0

    def test_decay_rate_values(self):
        assert analysis.decay_rate(0.0, 2.0) == pytest.approx(-1.0)
        assert analysis.decay_rate(2.0, 2.0) == pytest.approx(-1.0 + math.sqrt(2.0))
        assert analysis.decay_rate(1.0, 1.7) == pytest.approx(0.0, abs=1e-15)

    def test_oscillatory_regime(self):
        with pytest.raises(OscillatoryRegimeError):
            analysis.decay_rate(0.5, 1.0)


class TestTriangle:
    def test_apex_below_axis(self):
        t = analysis.triangle(0.5, 2.0)
        assert t.apex[1] < 0
        assert t.v1[0] == pytest.approx(0.5)

    @pytest.mark.parametrize("i,c", [(0.1, 2.0), (0.5, 2.0), (0.8, 1.2), (0.3, 3.0)])
    def test_apex_on_both_eigenlines(self, i, c):
        # oracle: a numerical eigensolver on the 2-D Jacobians at v0 and v1;
        # the apex lies on the lambda_plus line through v0 and the beta_plus
        # line through v1, the larger eigenvalue at each
        t = analysis.triangle(i, c)
        for J, vertex in (
            ([[0.0, 1.0], [i - 1.0, -c]], t.v0),
            ([[0.0, 1.0], [1.0 - i, -c]], t.v1),
        ):
            values, vectors = np.linalg.eig(np.array(J))
            e = vectors[:, np.argmax(values.real)].real
            d = t.apex - vertex
            assert abs(d[0] * e[1] - d[1] * e[0]) < 1e-12

    def test_angle_formulas(self):
        # tan(gamma) = (1-i) / (c/2 + sqrt(c^2/4 -+ (1-i)))
        i, c = 0.4, 2.0
        t = analysis.triangle(i, c)
        dl = math.sqrt(c * c / 4 + i - 1)
        dr = math.sqrt(c * c / 4 + 1 - i)
        assert math.tan(t.gamma_l) == pytest.approx((1 - i) / (c / 2 + dl))
        assert math.tan(t.gamma_r) == pytest.approx((1 - i) / (c / 2 + dr))

    def test_domain(self):
        with pytest.raises(DomainError):
            analysis.triangle(1.0, 2.0)
        with pytest.raises(DomainError):
            analysis.triangle(0.5, 1.0)  # below i_c = 0.75
        with pytest.raises(DomainError):
            analysis.triangle(np.array([0.2, 0.5, 1.0]), 2.0)

    def test_level_just_below_i_c_is_clamped(self):
        # c^2/4 - (1 - i) = -1e-12 here; the root is clamped, not taken
        c = 1.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = analysis.triangle(analysis.minimal_inactive_limit(c) - 1e-12, c)
            for value in (t.gamma_l, t.gamma_r, *t.apex):
                assert math.isfinite(value)

    def test_clamped_root_is_zero(self):
        # just below i_c the root sqrt(c^2/4 - w) is taken as 0, so tan_l = w / (c/2)
        c = 1.5
        level = analysis.minimal_inactive_limit(c) - 1e-12
        for t in (analysis.triangle(level, c), analysis.triangle(np.array([level]), c)):
            assert np.ravel(t.tan_l)[0] == (1.0 - level) / (c / 2.0)

    @pytest.mark.parametrize("c", [1.0, 2.0, 3.0])
    def test_array_matches_one_level(self, c):
        i_c = analysis.minimal_inactive_limit(c)
        levels = np.concatenate([[i_c - 1e-12], np.linspace(i_c, 1.0 - 1e-12, 40)])
        t = analysis.triangle(levels, c)
        for k, level in enumerate(levels):
            one = analysis.triangle(float(level), c)
            for name in ("i", "gamma_l", "gamma_r", "v0", "v1", "apex"):
                assert np.array_equal(getattr(t, name)[k], getattr(one, name)), name
        assert t.apex.shape == t.v1.shape == t.v0.shape == (levels.size, 2)

        rng = np.random.default_rng(7)
        u, v = rng.uniform(-0.3, 1.0, size=(2, levels.size, 1))
        points = u * t.v1 + v * t.apex  # inside where u, v >= 0 and u + v <= 1
        inside = analysis.triangle_contains(t, points, tol=1e-6)
        assert inside.shape == (levels.size,) and inside.any() and not inside.all()
        for k, level in enumerate(levels):
            one = analysis.triangle(float(level), c)
            assert inside[k] == analysis.triangle_contains(one, points[k], tol=1e-6)

    def test_one_level_in_any_form_agrees_bitwise(self):
        # a float, an np.float64, a 0-d array and a 1-element array
        c, point = 1.5, (0.1, -0.02)
        forms = [0.6, np.float64(0.6), np.array(0.6), np.array([0.6])]
        want = analysis.triangle(0.6, c)
        for level in forms:
            t = analysis.triangle(level, c)
            for name in ("i", "tan_l", "tan_r", "gamma_l", "gamma_r", "v0", "v1", "apex"):
                assert np.array_equal(np.ravel(getattr(t, name)), np.ravel(getattr(want, name)))
            for p in (point, (0.5, 0.0)):
                assert np.ravel(analysis.triangle_contains(t, p, tol=1e-6)).tolist() == [
                    analysis.triangle_contains(want, p, tol=1e-6)]

    def test_float_call_stays_on_python_floats(self):
        t = analysis.triangle(np.float64(0.6), 2.0)
        for value in (t.i, t.c, t.tan_l, t.tan_r):
            assert type(value) is float
        state = np.array([0.1, -0.02, 0.6])
        assert type(analysis.triangle_contains(t, (state[0], state[1]))) is bool
        assert type(analysis.triangle_contains(t, state[:2], tol=1e-6)) is bool

    def test_array_domain_error_names_the_first_bad_level(self):
        levels = np.array([0.2, 0.5, 1.0, 0.3, 1.5])
        with pytest.raises(DomainError, match=r"got 2 of 5 levels outside, the first at flat "
                                              r"index 2: 1\.0"):
            analysis.triangle(levels, 2.0)
        for bad in (np.array([0.2, np.nan]), np.nan, np.float64(np.nan)):
            with pytest.raises(DomainError):
                analysis.triangle(bad, 2.0)

    @pytest.mark.parametrize("c", [1.0, 2.0, 3.0])
    def test_matches_trig_oracle(self, c):
        # oracle: the signed distances to the edges from the interior angles,
        # a sin(gamma_l) + b cos(gamma_l) and (w - a) sin(gamma_r) + b cos(gamma_r)
        i_c = analysis.minimal_inactive_limit(c)
        rng = np.random.default_rng(11)
        n, tol = 10_000, 1e-6
        levels = rng.uniform(i_c, 1.0, size=n)
        w, half = 1.0 - levels, c / 2.0
        gl = np.arctan2(w, half + np.sqrt(np.maximum(half * half - w, 0.0)))
        gr = np.arctan2(w, half + np.sqrt(half * half + w))
        t = analysis.triangle(levels, c)
        # every other point sits 0.1% of tol inside or outside the slack band of an edge
        u, shift = rng.uniform(0.05, 0.95, size=(2, n, 1))
        shift = np.where(shift < 0.5, 0.999, 1.001) * tol
        out_l = np.stack([-np.sin(gl), -np.cos(gl)], axis=-1)  # outward unit normals
        out_r = np.stack([np.sin(gr), -np.cos(gr)], axis=-1)
        near = np.where(rng.random((n, 1)) < 0.5, u * t.apex + shift * out_l,
                        t.v1 + u * (t.apex - t.v1) + shift * out_r)
        on_band = np.arange(n) % 2 == 1
        points = np.where(on_band[:, None], near, rng.uniform(-0.2, 1.1, size=(n, 2)) * [1.0, -0.6])
        a, b = points[:, 0], points[:, 1]
        dists = np.stack([tol - b, a * np.sin(gl) + b * np.cos(gl) + tol,
                          (w - a) * np.sin(gr) + b * np.cos(gr) + tol])
        want = (dists >= 0).all(axis=0)
        clear = np.abs(dists).min(axis=0) > 1e-12
        got = analysis.triangle_contains(t, points, tol=tol)
        assert clear.sum() > 0.99 * n
        for part in (on_band, ~on_band):
            assert want[clear & part].any() and not want[clear & part].all()
        assert np.array_equal(got[clear], want[clear])
        for k in np.flatnonzero(clear)[:200]:
            one = analysis.triangle(float(levels[k]), c)
            assert analysis.triangle_contains(one, tuple(points[k]), tol=tol) == want[k]

    def test_degenerate_to_origin(self):
        t = analysis.triangle(1.0 - 1e-9, 2.0)
        assert np.linalg.norm(t.v1) < 1e-8
        assert np.linalg.norm(t.apex) < 1e-8

    def test_nesting_example(self):
        outer = analysis.triangle(0.2, 2.0)
        inner = analysis.triangle(0.5, 2.0)
        for v in (inner.v0, inner.v1, inner.apex):
            assert analysis.triangle_contains(outer, v, tol=1e-12)

    def test_angles_increase_at_lower_level(self):
        t1 = analysis.triangle(0.2, 2.0)
        t2 = analysis.triangle(0.5, 2.0)
        assert t1.gamma_l > t2.gamma_l
        assert t1.gamma_r > t2.gamma_r


class TestTriangleContains:
    def test_vertices(self):
        t = analysis.triangle(0.5, 2.0)
        for v in (t.v0, t.v1, t.apex):
            assert analysis.triangle_contains(t, v, tol=1e-12)

    def test_beyond_right_vertex(self):
        t = analysis.triangle(0.5, 2.0)
        assert not analysis.triangle_contains(t, [0.5 + 0.1, 0.0], tol=0.0)

    def test_centroid(self):
        t = analysis.triangle(0.5, 2.0)
        assert analysis.triangle_contains(t, (t.v0 + t.v1 + t.apex) / 3, tol=0.0)

    def test_slack_inflates(self):
        t = analysis.triangle(0.5, 2.0)
        assert not analysis.triangle_contains(t, [0.5 + 0.05, 0.0], tol=0.0)
        assert analysis.triangle_contains(t, [0.5 + 0.05, 0.0], tol=0.06)

    def test_nan_point_is_outside(self):
        inside = (0.1, -0.01)
        for t in (analysis.triangle(0.5, 2.0), analysis.triangle(np.array([0.5, 0.6]), 2.0)):
            assert np.all(analysis.triangle_contains(t, inside, tol=1e-6))
            for p in ((np.nan, -0.01), (0.1, np.nan), [[np.nan, -0.01]]):
                assert not np.any(analysis.triangle_contains(t, p, tol=1e-6))

    def test_no_points_at_one_level(self):
        assert analysis.triangle_contains(analysis.triangle(0.5, 2.0), np.empty((0, 2))).size == 0

    def test_bad_slack_rejected(self):
        t = analysis.triangle(0.5, 2.0)
        for tol in (-1e-9, np.nan, float("nan")):
            with pytest.raises(DomainError):
                analysis.triangle_contains(t, (0.25, -0.05), tol=tol)


class TestAttractorFormulas:
    def test_zero_start_returns_level(self):
        for i0 in [0.0, 0.3, 0.9]:
            assert analysis.i_plus_infinity(0.0, i0, 2.0, 0.0) == pytest.approx(i0)

    def test_monotone_in_a0(self):
        assert analysis.i_plus_infinity(0.1, 0.5, 2.0, 0.0) > analysis.i_plus_infinity(
            0.2, 0.5, 2.0, 0.0
        )

    @given(
        a0=st.floats(0.0, 0.4),
        da=st.floats(0.001, 0.3),
        i0=st.floats(0.0, 0.95),
        c=st.floats(1.0, 4.0),
        r=st.floats(0.0, 2.0),
    )
    @settings(max_examples=200)
    def test_monotone_decreasing_property(self, a0, da, i0, c, r):
        hi = min(a0 + da, 1.0 - i0)
        lo = min(a0, hi)
        assert analysis.i_plus_infinity(lo, i0, c, r) >= analysis.i_plus_infinity(hi, i0, c, r) - 1e-12

    def test_threshold_value_against_root_finding(self):
        # independent oracle: invert the limit formula numerically
        c, r, i0 = 2.0, 0.0, 0.5
        i_c = analysis.minimal_inactive_limit(c)
        root = brentq(
            lambda a0: analysis.i_plus_infinity(a0, i0, c, r) - i_c, 0.0, 1.0, xtol=1e-14
        )
        alpha = analysis.alpha_threshold(i0, c, r)
        assert alpha == pytest.approx(root, abs=1e-12)
        # frozen value; a figure annotation elsewhere suggests ~0.42 but the
        # closed form and the numeric inversion agree on 0.4718
        assert alpha == pytest.approx(0.47177978870813465, abs=1e-14)

    def test_threshold_at_minimal_level_is_zero(self):
        assert analysis.alpha_threshold(0.0, 2.0, 0.0) == 0.0
        assert analysis.alpha_threshold(0.75, 1.0, 1.0) == 0.0
        # just below i_c = 0 the root's sum form would divide a negative gap by a
        # negative i + r; the difference form keeps the threshold tiny
        assert 0.0 <= analysis.alpha_threshold(-1e-13, 2.0, 0.0) < 1e-12

    @staticmethod
    def alpha_decimal(i0, c, r):
        """alpha_threshold in 60-digit decimal from the same float inputs and i_c."""
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            i_c, i0, r = (Decimal(x) for x in (analysis.minimal_inactive_limit(c), i0, r))
            s, c2, gap = i0 + r, Decimal(c) ** 2, (1 - i_c) ** 2 - (1 - i0) ** 2
            k = (c2 + 1 + r) / c2
            return float(((s * s + k * gap).sqrt() - s) / k)

    @pytest.mark.parametrize("r", [0.0, 1.0, 1e8, 1e16])
    def test_threshold_within_an_ulp_of_decimal(self, r):
        # 60 digits carry -(i0 + r) + sqrt(...) past its cancellation at large r,
        # where the double difference lost 2e8 ulps at r = 1e8 and everything at 1e16
        want = self.alpha_decimal(0.5, 2.0, r)
        assert abs(analysis.alpha_threshold(0.5, 2.0, r) - want) <= math.ulp(want)

    def test_threshold_near_decimal_on_battery_levels(self):
        # the battery's (i0, c, r); the squares of 1 - i_c and 1 - i0 differenced
        # directly, and the root's difference, cost up to 53 ulps here
        rng = np.random.default_rng(95)
        for _ in range(300):
            c, r = rng.uniform(1.5, 4.0), rng.uniform(0.0, 2.0)
            i_c = analysis.minimal_inactive_limit(c)
            i0 = rng.uniform(i_c + 0.05, 0.95)
            want = self.alpha_decimal(i0, c, r)
            assert abs(analysis.alpha_threshold(i0, c, r) - want) <= 4 * math.ulp(want)

    @given(
        i0=st.floats(0.0, 0.999),
        c=st.floats(0.5, 4.0),
        r=st.floats(0.0, 2.0),
    )
    @settings(max_examples=300)
    def test_inversion_identity(self, i0, c, r):
        i_c = analysis.minimal_inactive_limit(c)
        i0 = i_c + (1.0 - i_c) * i0 * 0.999  # map into [i_c, 1)
        alpha = analysis.alpha_threshold(i0, c, r)
        assert analysis.i_plus_infinity(alpha, i0, c, r) == pytest.approx(i_c, abs=1e-10)

    def test_threshold_domain(self):
        with pytest.raises(DomainError):
            analysis.alpha_threshold(0.5, 1.0, 0.0)  # i0 below i_c = 0.75

    def test_a_star_min_branch(self):
        # at i0 = 0.9, c = 2: alpha exceeds 1 - i0, so the cap binds
        i0 = 0.9
        alpha = analysis.alpha_threshold(i0, 2.0, 0.0)
        star = analysis.a_star(i0, 2.0, 0.0)
        assert star == min(alpha, 1.0 - i0)
        assert star <= 1.0 - i0

    @given(
        i0=st.floats(0.0, 0.99),
        c=st.floats(0.5, 4.0),
        r=st.floats(0.0, 2.0),
    )
    def test_a_star_never_exceeds_cap(self, i0, c, r):
        i_c = analysis.minimal_inactive_limit(c)
        i0 = i_c + (1.0 - i_c) * i0
        if i0 >= 1.0:
            i0 = 0.999
        assert analysis.a_star(i0, c, r) <= 1.0 - i0 + 1e-15


class TestFirstMaxFormula:
    @given(
        i_z0=st.floats(0.05, 0.95),
        c=st.floats(0.5, 4.0),
        r=st.floats(0.0, 2.0),
    )
    @settings(max_examples=300)
    def test_threshold_identity(self, i_z0, c, r):
        # backward limit at the critical value makes the two closed forms coincide
        i_c = analysis.minimal_inactive_limit(c)
        i_z0 = max(i_z0, i_c + 1e-6)
        got = analysis.a_at_first_max(2.0 - i_c, i_z0, c, r)
        want = analysis.alpha_threshold(i_z0, c, r)
        assert got == pytest.approx(want, abs=1e-10)

    def test_within_3_ulps_of_decimal_on_battery_levels(self):
        # the threshold-consistency draws at the rear level 2 - i_c; the squares of
        # i_minus - 1 and 1 - i_z0 differenced directly cost up to 12 ulps here
        rng = np.random.default_rng(2029)
        for _ in range(300):
            c, r = rng.uniform(1.5, 4.0), rng.uniform(0.0, 2.0)
            i_c = analysis.minimal_inactive_limit(c)
            i_z0, i_minus = rng.uniform(i_c + 0.05, 0.95), analysis.limit_symmetry(i_c)
            with decimal.localcontext() as ctx:
                ctx.prec = 60
                im, iz, rd = (Decimal(x) for x in (i_minus, i_z0, r))
                s, c2, gap = iz + rd, Decimal(c) ** 2, (im - 1) ** 2 - (1 - iz) ** 2
                k = (c2 + 1 + rd) / c2
                want = float(((s * s + k * gap).sqrt() - s) / k)
            assert abs(analysis.a_at_first_max(i_minus, i_z0, c, r) - want) <= 3 * math.ulp(want)

    def test_degenerate_wave_limit(self):
        val = analysis.a_at_first_max(1.0 + 1e-9, 1.0, 2.0, 0.0)
        assert val == pytest.approx(0.0, abs=1e-9)

    def test_imaginary_root_error(self):
        with pytest.raises(DomainError):
            analysis.a_at_first_max(1.2, 0.5, 2.0, 0.0)  # (0.2)^2 < (0.5)^2
        with pytest.raises(DomainError):
            analysis.a_at_first_max(0.9, 0.5, 2.0, 0.0)  # not > 1

    def test_strictly_positive(self):
        assert analysis.a_at_first_max(2.0, 0.5, 2.0, 0.0) > 0


class TestMassResiduals:
    def test_constant_segment(self):
        zs = np.linspace(0, 10, 101)
        states = np.zeros((101, 3))
        states[:, 2] = 1.7
        res = analysis.mass_residuals(zs, states, Params(c=2.0, r=0.0))
        assert res.res1 == 0.0
        assert res.res2 == 0.0
        assert res.res3 == 0.0
        assert res.total_mass == 0.0

    def test_endpoint_validation(self):
        zs = np.linspace(0, 1, 11)
        states = np.zeros((11, 3))
        states[:, 1] = 0.5  # b nowhere near zero
        with pytest.raises(InvalidSegmentError):
            analysis.mass_residuals(zs, states, Params(c=2.0))

    def test_endpoint_tolerance_parameter(self, monkeypatch):
        zs = np.linspace(0, 1, 11)
        states = np.zeros((11, 3))
        states[0, 1] = 5e-7
        assert analysis.ENDPOINT_TOL == 1e-6
        analysis.mass_residuals(zs, states, Params(c=2.0))
        monkeypatch.setattr(analysis, "ENDPOINT_TOL", 1e-8)
        with pytest.raises(InvalidSegmentError):
            analysis.mass_residuals(zs, states, Params(c=2.0))


class TestLimitSymmetry:
    def test_values(self):
        assert analysis.limit_symmetry(2.0) == 0.0
        assert analysis.limit_symmetry(1.8) == pytest.approx(0.2)
        assert analysis.limit_symmetry(1.0) == 1.0
