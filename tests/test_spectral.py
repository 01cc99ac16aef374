import cmath
import math
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from branchwaves import spectral, wave
from branchwaves.errors import ContourResolutionError, DomainError, SplittingError
from branchwaves.model import Params


@pytest.fixture(scope="module")
def setup():
    return spectral.make_setup(wave.shoot_wave(2.0, Params(c=2.0, r=0.0)))


@pytest.fixture(scope="module")
def critical_wave(setup):
    return setup.wave


class TestSetup:
    def test_defaults(self, setup):
        assert setup.wave.params.c == 2.0
        assert setup.wave.params.r == 0.0
        assert setup.w_exp == pytest.approx(1.0)
        zs = setup.wave.trajectory.zs
        assert setup.L >= 30.0
        assert setup.L > -zs[0]
        assert setup.L > zs[-1]

    def test_settled_at_ends(self, setup):
        a, _ = setup.coefficient_table([-setup.L, setup.L])
        assert np.max(np.abs(a)) <= 1e-8 * setup.wave.a_max

    def test_short_domain_rejected(self, critical_wave):
        # the seed ramp of the shot wave is still ~1e-7 at z = -30
        with pytest.raises(DomainError):
            spectral.make_setup(wave=critical_wave, L=30.0)

    def test_bad_weight(self, critical_wave):
        with pytest.raises(DomainError):
            spectral.make_setup(wave=critical_wave, w_exp=0.0)
        for w_exp, L in [(math.nan, None), (math.inf, None), (None, math.nan), (None, math.inf)]:
            with pytest.raises(DomainError):
                spectral.make_setup(wave=critical_wave, w_exp=w_exp, L=L)

    def test_extension_by_limits(self, setup):
        zs = setup.wave.trajectory.zs
        a, i = setup.coefficient_table([zs[0] - 1.0, zs[-1] + 1.0])
        assert list(a) == [0.0, 0.0]
        assert list(i) == [setup.wave.i_minus_inf, setup.wave.i_plus_inf]

    def test_table_matches_scalar(self, setup):
        # point by point: the one spline of (a, b, i) inside the sampled
        # range, the limits off it
        zq = np.linspace(-setup.L, setup.L, 37)
        a_tab, i_tab = setup.coefficient_table(zq)
        w = setup.wave
        lo, hi = w.trajectory.zs[0], w.trajectory.zs[-1]
        for k, z in enumerate(zq):
            if z < lo:
                a, i = 0.0, w.i_minus_inf
            elif z > hi:
                a, i = 0.0, w.i_plus_inf
            else:
                a, _, i = setup._spline(z)
            assert a_tab[k] == pytest.approx(a, abs=1e-14)
            assert i_tab[k] == pytest.approx(i, abs=1e-14)


def _coefficients(setup, z):
    a, i = setup.coefficient_table([z])
    return a[0], i[0]


def _matrix(setup, z, gamma):
    """Weighted coefficient matrix M(z, gamma) + w_exp * I of the Evans march."""
    a, i = _coefficients(setup, z)
    return spectral._weighted_matrix(a, i, gamma, setup.wave.params, setup.w_exp)


class TestLinearizationMatrix:
    def test_limit_eigenvalues(self, setup):
        g = 0.7 + 0.3j
        w, c = setup.w_exp, setup.wave.params.c
        for z_end, i_lim in (
            (setup.L, setup.wave.i_plus_inf),
            (-setup.L, setup.wave.i_minus_inf),
        ):
            m = _matrix(setup, z_end, g)
            got = np.sort_complex(np.linalg.eigvals(m))
            root = cmath.sqrt(c * c / 4.0 + g + i_lim - 1.0)
            want = np.sort_complex(
                np.array([g / c + w, w - c / 2.0 + root, w - c / 2.0 - root])
            )
            assert np.max(np.abs(got - want)) < 1e-12

    def test_critical_limits_at_hand_gamma(self, setup):
        # c = 2, w = 1, gamma = 4: shifted roots are gamma/2 + 1 and
        # +-sqrt(gamma) ahead of the front, +-sqrt(2 + gamma) behind it
        g = 4.0
        ahead = np.sort_complex(
            np.linalg.eigvals(_matrix(setup, setup.L, g))
        )
        assert ahead == pytest.approx(np.array([-2.0, 2.0, 3.0]), abs=1e-6)
        behind = np.sort_complex(
            np.linalg.eigvals(_matrix(setup, -setup.L, g))
        )
        want = np.sort_complex(np.array([3.0, -math.sqrt(6), math.sqrt(6)]))
        assert behind == pytest.approx(want, abs=1e-12)


class TestLimitSplitting:
    @staticmethod
    def _counts(rates):
        nu_minus, nu_plus = rates
        return sum(nu.real > 0 for nu in nu_minus), sum(nu.real < 0 for nu in nu_plus)

    def test_hand_values(self, setup):
        nu_minus, nu_plus = spectral.limit_rates(1.0, setup)
        s3 = math.sqrt(3.0)
        assert np.allclose(nu_plus, [1.5, 1.0, -1.0], atol=1e-6)
        assert np.allclose(nu_minus, [1.5, s3, -s3], atol=1e-9)
        assert self._counts((nu_minus, nu_plus)) == (2, 1)

    def test_basis_solves_limit_systems(self, setup):
        # the start data of evans: the rear wedge (0, -1, -lambda2) spans the
        # unstable plane of M(-L), so it is an eigenvector of the wedge lift
        # with eigenvalue nu1 + nu2; the front vector is the stable
        # eigenvector of M(+L).  gamma = 2 is where nu1 = nu2 behind the front.
        w, p = setup.w_exp, setup.wave.params
        for g in (2.5 + 1.5j, 2.0, 4.0):
            nu_m, nu_p = spectral.limit_rates(g, setup)
            V = np.array([0.0, -1.0, -(nu_m[1] - w)], dtype=complex)
            m2 = spectral._wedge_square(_matrix(setup, -setup.L, g))
            assert np.max(np.abs(m2 @ V - (nu_m[0] + nu_m[1]) * V)) < 1e-9
            lam3 = nu_p[2] - w
            X = np.array(
                [1.0, lam3, (setup.wave.i_plus_inf + p.r) / (g - p.c * lam3)],
                dtype=complex,
            )
            m = _matrix(setup, setup.L, g)
            assert np.max(np.abs(m @ X - nu_p[2] * X)) < 1e-9

    @settings(max_examples=100, deadline=None)
    @given(
        re=st.floats(min_value=0.0, max_value=900.0),
        im=st.floats(min_value=-900.0, max_value=900.0),
    )
    def test_counts_and_conjugates(self, setup, re, im):
        g = complex(re, im)
        if abs(g) < 1e-2:
            return
        rates = spectral.limit_rates(g, setup)
        assert self._counts(rates) == (2, 1)
        bar = spectral.limit_rates(g.conjugate(), setup)
        for a, b in zip(rates[0] + rates[1], bar[0] + bar[1]):
            assert b == pytest.approx(a.conjugate(), abs=1e-12)

    def test_left_half_plane_rejected(self, setup):
        with pytest.raises(DomainError):
            spectral.limit_rates(-1.0, setup)

    def test_gamma_zero_rejected(self, setup):
        with pytest.raises(DomainError):
            spectral.limit_rates(0.0, setup)

    def test_weight_below_band(self, critical_wave):
        # a vanishing weight leaves the front i-decay on the boundary
        tiny = spectral.make_setup(wave=critical_wave, w_exp=1e-12)
        with pytest.raises(SplittingError):
            spectral.limit_rates(1.0, tiny)

    def test_eigenvector_collision(self, setup):
        # at gamma = 2 the rear i-mode and growing root coincide, where a
        # basis of two eigenvectors degenerates; the wedge used by evans is
        # immune
        nu_minus, _ = spectral.limit_rates(2.0, setup)
        assert nu_minus[0] == pytest.approx(nu_minus[1], abs=1e-12)
        assert spectral.evans(2.0, setup) != 0


class TestEvans:
    def test_nonzero_at_four(self, setup):
        e = spectral.evans(4.0, setup)
        assert abs(e) > 0.1
        assert abs(e.imag) < 1e-10 * abs(e)

    def test_matches_adaptive_route(self, setup):
        # independent propagation of the same two-sided pairing with scipy's
        # adaptive RK45, on complex states and backward from the front end
        w, p, L = setup.w_exp, setup.wave.params, setup.L
        tols = dict(method="RK45", rtol=1e-8, atol=1e-11, max_step=0.5)
        eye = np.eye(3, dtype=complex)
        for g in (4.0 + 0j, 3j):
            nu_m, nu_p = spectral.limit_rates(g, setup)
            lam2 = nu_m[1] - w

            def rear(z, v):
                a, i = _coefficients(setup, z)
                m2 = spectral._wedge_square(
                    spectral._weighted_matrix(a, i, g, p, w)
                )
                return (m2 - (nu_m[0] + nu_m[1]) * eye) @ v

            v0 = np.array([0.0, -1.0, -lam2], dtype=complex)
            tv = solve_ivp(rear, (-L, 0.0), v0, **tols)

            lam3 = nu_p[2] - w
            x0 = np.array(
                [1.0, lam3, (setup.wave.i_plus_inf + p.r) / (g - p.c * lam3)],
                dtype=complex,
            )

            def front(z, x):
                a, i = _coefficients(setup, z)
                m = spectral._weighted_matrix(a, i, g, p, w)
                return (m - nu_p[2] * eye) @ x

            tx = solve_ivp(front, (L, 0.0), x0, **tols)
            assert tv.success and tx.success
            v, x = tv.y[:, -1], tx.y[:, -1]
            reference = v[0] * x[2] - v[1] * x[1] + v[2] * x[0]
            got = spectral.evans(g, setup)
            assert abs(got - reference) < 1e-4 * abs(reference)

    def test_step_convergence(self, setup):
        g = 3j
        coarse = spectral.evans(g, setup, step=0.2)
        fine = spectral.evans(g, setup, step=0.05)
        finer = spectral.evans(g, setup, step=0.025)
        assert abs(coarse - fine) < 1e-3 * abs(fine)
        assert abs(finer - fine) < 1e-6 * abs(fine)

    def test_conjugate_symmetry(self, setup):
        rng = np.random.default_rng(20260816)
        worst = 0.0
        for _ in range(50):
            g = complex(rng.uniform(0.0, 100.0), rng.uniform(-100.0, 100.0))
            if abs(g) < 1e-2:
                continue
            e = spectral.evans(g, setup)
            e_bar = spectral.evans(g.conjugate(), setup)
            worst = max(worst, abs(e_bar - e.conjugate()) / abs(e))
        assert worst < 1e-8

    def test_domain_extension_invariance(self, setup):
        wider = spectral.make_setup(wave=setup.wave, L=setup.L + 5.0)
        for g in (4.0 + 0j, 0.3 + 7.0j):
            e = spectral.evans(g, setup)
            assert abs(spectral.evans(g, wider) - e) < 1e-4 * abs(e)

    def test_finite_at_contour_extremes(self, setup):
        for g in (1000j, 1e-3 * 1j, 1000.0 + 0j):
            e = spectral.evans(g, setup)
            assert np.isfinite(e)
            assert e != 0

    def test_invalid_inputs(self, setup):
        with pytest.raises(DomainError):
            spectral.evans(-0.5, setup)
        with pytest.raises(DomainError):
            spectral.evans(1.0, setup, step=0.0)


class TestExpm:
    @staticmethod
    def _magnus_stack(setup, z, h):
        """The Gauss-point Magnus exponents of one step at z, for |gamma| 1e-3 to 1e3."""
        gammas = np.logspace(-3, 3, 25)[:, None] * np.exp(1j * np.linspace(-1.5, 1.5, 7))
        gammas = gammas.reshape(-1)
        p, w = setup.wave.params, setup.w_exp
        offset = math.sqrt(3.0) / 6.0
        nodes = z + h * np.array([0.5 - offset, 0.5 + offset])
        (a1, a2), (i1, i2) = setup.coefficient_table(nodes)
        m1 = spectral._weighted_matrix(a1, i1, gammas, p, w)
        m2 = spectral._weighted_matrix(a2, i2, gammas, p, w)
        return 0.5 * h * (m1 + m2) + math.sqrt(3.0) * h * h / 12.0 * (m2 @ m1 - m1 @ m2)

    @pytest.mark.parametrize("z, h", [(-5.0, 0.2), (0.0, -0.2), (3.0, -0.1)])
    def test_matches_scipy_on_magnus_stacks(self, setup, z, h):
        omega = self._magnus_stack(setup, z, h)
        for stack in (omega, spectral._wedge_square(omega)):
            got = spectral.expm(stack)
            for g, a in zip(got, stack):
                want = scipy.linalg.expm(a)
                assert np.max(np.abs(g - want)) <= 1e-10 * np.max(np.abs(want))

    def test_zero_matrix_is_identity(self):
        assert np.array_equal(spectral.expm(np.zeros((3, 3))), np.eye(3))
        stack = spectral.expm(np.zeros((2, 4, 3, 3)))
        assert np.array_equal(stack, np.broadcast_to(np.eye(3), (2, 4, 3, 3)))

    def test_shape_kept_and_powers_per_matrix(self):
        # a small and a large matrix in one stack: each is scaled on its own
        a = np.array([[[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.5]]])
        stack = np.concatenate([1e-3 * a, 40.0 * a])
        got = spectral.expm(stack)
        assert got.shape == (2, 3, 3)
        for g, m in zip(got, stack):
            want = scipy.linalg.expm(m)
            assert np.max(np.abs(g - want)) <= 1e-10 * np.max(np.abs(want))


class TestEvansBatch:
    GAMMAS = np.array([4.0, 3j, 1000j, 1e-3 + 0j, 0.3 + 7.0j, 250.0 - 600.0j, 2.0])

    def test_array_matches_one_point_calls(self, setup):
        batch = spectral.evans(self.GAMMAS, setup)
        assert batch.shape == self.GAMMAS.shape
        for g, value in zip(self.GAMMAS, batch):
            one = spectral.evans(g, setup)
            assert isinstance(one, complex)
            assert abs(value - one) <= 1e-13 * abs(one)
        square = spectral.evans(self.GAMMAS[:6].reshape(2, 3), setup)
        assert square.shape == (2, 3)
        assert np.max(np.abs(square.reshape(-1) - batch[:6]) / np.abs(batch[:6])) <= 1e-13

    @pytest.mark.parametrize("bad", [complex("inf"), complex("inf+1j"), complex("nan")])
    def test_non_finite_gamma_rejected(self, setup, bad):
        with pytest.raises(DomainError):
            spectral.evans(bad, setup)
        with pytest.raises(DomainError):
            spectral.evans(np.array([4.0, bad]), setup)

    def test_bad_gamma_in_batch_raises_its_own_error(self, setup, critical_wave):
        narrow = spectral.make_setup(wave=critical_wave, w_exp=0.5)
        # -0.5 is off Re(gamma) >= 0; with weight 0.5, gamma = 0.1 leaves the
        # front growing root stable
        for s, bad, kind in ((setup, -0.5, DomainError), (narrow, 0.1, SplittingError)):
            with pytest.raises(kind) as one:
                spectral.evans(bad, s)
            with pytest.raises(kind) as batch:
                spectral.evans(np.array([4.0, bad, 3j]), s)
            assert str(batch.value) == str(one.value)

    def test_march_skips_constant_tails(self, setup):
        # beyond the sampled trajectory the march is the identity, so a
        # domain many orders wider gives the same values bit for bit
        huge = spectral.make_setup(wave=setup.wave, L=1e308)
        assert np.array_equal(
            spectral.evans(self.GAMMAS, huge), spectral.evans(self.GAMMAS, setup)
        )
        (start_rear, _, _), (start_front, _, _) = spectral._legs(huge, spectral.DEFAULT_STEP)
        zs = setup.wave.trajectory.zs
        assert (start_rear, start_front) == (zs[0], zs[-1])

    def test_tail_skip_matches_full_march(self, setup, monkeypatch):
        # marching all of [-L, L], through the limit coefficients beyond the
        # trajectory, gives the values of the march that skips those tails
        skip = spectral.evans(self.GAMMAS, setup)

        def full_legs(s, step):
            n = math.ceil(s.L / step)
            return ((-s.L, n, s.L / n), (s.L, n, -s.L / n))

        monkeypatch.setattr(spectral, "_legs", full_legs)
        full = spectral.evans(self.GAMMAS, setup)
        assert np.max(np.abs(full - skip) / np.abs(full)) <= 1e-6


class TestEvansWinding:
    @staticmethod
    def _count_expm(monkeypatch):
        counts = {"stacked": 0, "matrices": 0}
        expm = spectral.expm

        def counted(a):
            counts["stacked"] += 1
            counts["matrices"] += a.size // 9
            return expm(a)

        monkeypatch.setattr(spectral, "expm", counted)
        return counts

    def test_counts(self, setup, monkeypatch):
        counts = self._count_expm(monkeypatch)
        contour = spectral.contour_of_S(0.1, 10.0, 32)
        sweep = spectral.evans_winding(setup, contour)
        diag = sweep.diagnostics
        assert sweep.winding == 0
        assert diag["bisections"] == 0
        assert np.array_equal(sweep.gammas, contour[:-1])
        assert diag["evaluations"] == sweep.gammas.size
        assert 1 <= diag["halving_probes"] <= 4
        assert diag["propagators"] == counts
        assert np.array_equal(sweep.values, spectral.evans(contour[:-1], setup))
        assert diag["halving_rel_diff"] < 1e-4
        assert diag["min_abs_E"] == np.abs(sweep.values).min()

    def test_bisections_counted(self, setup, monkeypatch):
        # a six-point polygon around S leaves raw argument steps above pi/3;
        # each bisection midpoint is one more batch of one
        counts = self._count_expm(monkeypatch)
        contour = np.array([-1000j, 1000, 1000j, 1j, 1e-3, -1j, -1000j])
        sweep = spectral.evans_winding(setup, contour)
        diag = sweep.diagnostics
        assert sweep.winding == 0
        assert diag["bisections"] > 0
        assert sweep.gammas.size == diag["evaluations"] == contour.size - 1 + diag["bisections"]
        assert diag["propagators"] == counts

    def test_halving_check_raises(self, setup, monkeypatch):
        # halving the step moves every value by about 1e-6, far above this
        monkeypatch.setattr(spectral, "_HALVING_TOL", 1e-12)
        contour = spectral.contour_of_S(0.1, 10.0, 32)
        with pytest.raises(ContourResolutionError, match="halving the march step 0.2"):
            spectral.evans_winding(setup, contour)


class TestContour:
    def test_geometry_defaults(self):
        pts = spectral.contour_of_S()
        assert pts[0] == -1000j
        assert pts[-1] == pts[0]
        assert pts.real.min() >= -1e-12
        mods = np.abs(pts)
        assert mods.min() >= 1e-3 * (1.0 - 1e-12)
        assert mods.max() <= 1000.0 * (1.0 + 1e-12)

    def test_orientation_and_turning_points(self):
        pts = spectral.contour_of_S(0.1, 10.0, 32)
        # outer arc runs counterclockwise from -i r_max
        assert pts[1].real > 0 and pts[1].imag > pts[0].imag
        k_top = int(np.argmin(np.abs(pts - 10j)))
        assert pts[k_top] == 10j
        # descent to the inner radius happens on the imaginary axis
        seg = pts[k_top : k_top + 3]
        assert np.all(seg.real == 0.0)
        assert np.all(np.diff(seg.imag) < 0)

    def test_log_density_on_segments(self):
        pts = spectral.contour_of_S(1e-3, 1000.0, 64)
        on_axis = pts[(pts.real == 0.0) & (pts.imag > 0)]
        mods = np.abs(on_axis)
        ratios = mods[:-1] / mods[1:]
        assert np.allclose(ratios, ratios[0], rtol=1e-9)

    def test_validation(self):
        with pytest.raises(DomainError):
            spectral.contour_of_S(10.0, 1.0)
        with pytest.raises(DomainError):
            spectral.contour_of_S(1e-3, math.inf)
        with pytest.raises(DomainError):
            spectral.contour_of_S(base_n=4)


def _circle(center, radius, n):
    th = np.linspace(0.0, 2.0 * math.pi, n + 1)
    pts = center + radius * np.exp(1j * th)
    pts[-1] = pts[0]
    return pts


class TestWinding:
    def test_synthetic_identity(self):
        sweep = spectral.winding_number(lambda g: g, _circle(0.5, 1.0, 32))
        assert sweep.winding == 1
        assert sweep.max_arg_step <= math.pi / 3.0

    def test_zero_free_function(self):
        sweep = spectral.winding_number(lambda g: g - 5.0, _circle(0.5, 1.0, 32))
        assert sweep.winding == 0

    def test_double_zero(self):
        sweep = spectral.winding_number(lambda g: (g - 0.5) ** 2, _circle(0.5, 1.0, 64))
        assert sweep.winding == 2

    def test_refinement_resolves_coarse_contour(self):
        # five points around the circle leave raw steps above pi/3
        sweep = spectral.winding_number(lambda g: g, _circle(0.5, 1.0, 5))
        assert sweep.winding == 1
        assert sweep.max_arg_step <= math.pi / 3.0

    def test_records_evaluations_in_call_order(self):
        # the contour points, then the chord midpoints depth first: chords
        # 1, 2 and 3 step over pi/3, and the halves of chord 2 do too
        contour = _circle(0.5, 1.0, 5)
        sweep = spectral.winding_number(lambda g: g, contour)
        c = contour[:-1]
        m = 0.5 * (c[2] + c[3])
        mids = [0.5 * (c[1] + c[2]), m, 0.5 * (c[2] + m), 0.5 * (m + c[3]), 0.5 * (c[3] + c[4])]
        assert np.array_equal(sweep.gammas[:5], c)
        assert np.array_equal(sweep.gammas[5:], mids)
        assert np.array_equal(sweep.values, sweep.gammas)
        assert sweep.diagnostics is None

    def test_unresolvable_phase(self):
        # a hard sign jump keeps a pi argument step at every bisection depth
        with pytest.raises(ContourResolutionError):
            spectral.winding_number(
                lambda g: np.where(g.imag < 0.25, 1.0, -1.0), _circle(0.5, 1.0, 8)
            )

    def test_wave_contour_is_zero_free(self, setup):
        contour = spectral.contour_of_S(0.1, 10.0, 48)
        sweep = spectral.winding_number(lambda g: spectral.evans(g, setup), contour)
        assert sweep.winding == 0
        assert sweep.max_arg_step <= math.pi / 3.0

    def test_validation(self):
        open_path = _circle(0.5, 1.0, 16)
        open_path[-1] = open_path[-1] + 0.1
        with pytest.raises(DomainError):
            spectral.winding_number(lambda g: g, open_path)
        with pytest.raises(DomainError):
            spectral.winding_number(lambda g: g, np.array([1.0 + 0j, 2.0 + 0j]))

    def test_non_finite_sample_rejected(self):
        with pytest.raises(DomainError):
            spectral.winding_number(
                lambda g: np.full_like(g, math.nan), _circle(0.5, 1.0, 8)
            )

    def test_non_finite_midpoint_rejected(self):
        # finite on the five contour points, NaN at every bisection midpoint
        contour = _circle(0.5, 1.0, 5)
        mid = 0.5 * (contour[1] + contour[2])
        with pytest.raises(DomainError, match=re.escape(f"non-finite Evans sample at gamma = {mid}")):
            spectral.winding_number(
                lambda g: g if g.size > 1 else np.full_like(g, math.nan), contour
            )

    def test_infinite_contour_point_rejected(self):
        contour = _circle(0.5, 1.0, 8)
        contour[3] = complex(math.inf, 0.0)
        with pytest.raises(DomainError, match=r"non-finite Evans sample at gamma = \(inf\+0j\)"):
            spectral.winding_number(lambda g: g, contour)
