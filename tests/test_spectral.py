import cmath
import math
import re
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from branchwaves import analysis, spectral, wave
from branchwaves.errors import ContourResolutionError, DomainError, SplittingError
from branchwaves.model import Params


@pytest.fixture(scope="module")
def setup():
    return spectral.make_setup(wave.shoot_wave(2.0, Params(c=2.0, r=0.0)))


@pytest.fixture(scope="module")
def critical_wave(setup):
    return setup.wave


def expm_reference(A: np.ndarray) -> np.ndarray:
    """Pade-13 scaling and squaring with out-of-place sums over the whole stack.

    The reference `spectral.expm` is held to byte for byte: the same
    arithmetic and matrix products, with each Pade term a fresh complex
    product and the identity terms added over every entry.
    """
    A = np.asarray(A, dtype=complex)
    M = np.ascontiguousarray(A.reshape(-1, 3, 3).transpose(1, 2, 0))
    norm = np.abs(M).sum(axis=0).max(axis=0)
    s = np.zeros(norm.shape, dtype=int)
    big = np.isfinite(norm) & (norm > spectral._THETA13)
    s[big] = np.ceil(np.log2(norm[big] / spectral._THETA13))
    M = M / np.ldexp(1.0, s)
    b = spectral._PADE13
    eye = np.eye(3)[:, :, None]

    def _mul(x, y):
        out = x[:, 0, None] * y[0]
        out += x[:, 1, None] * y[1]
        out += x[:, 2, None] * y[2]
        return out

    M2 = _mul(M, M)
    M4 = _mul(M2, M2)
    M6 = _mul(M4, M2)
    U = _mul(M, _mul(M6, b[13] * M6 + b[11] * M4 + b[9] * M2)
             + b[7] * M6 + b[5] * M4 + b[3] * M2 + b[1] * eye)
    V = (_mul(M6, b[12] * M6 + b[10] * M4 + b[8] * M2)
         + b[6] * M6 + b[4] * M4 + b[2] * M2 + b[0] * eye)
    q = V - U
    adj = np.array([
        [q[1, 1] * q[2, 2] - q[1, 2] * q[2, 1], q[0, 2] * q[2, 1] - q[0, 1] * q[2, 2],
         q[0, 1] * q[1, 2] - q[0, 2] * q[1, 1]],
        [q[1, 2] * q[2, 0] - q[1, 0] * q[2, 2], q[0, 0] * q[2, 2] - q[0, 2] * q[2, 0],
         q[0, 2] * q[1, 0] - q[0, 0] * q[1, 2]],
        [q[1, 0] * q[2, 1] - q[1, 1] * q[2, 0], q[0, 1] * q[2, 0] - q[0, 0] * q[2, 1],
         q[0, 0] * q[1, 1] - q[0, 1] * q[1, 0]],
    ])
    det = q[0, 0] * adj[0, 0] + q[0, 1] * adj[1, 0] + q[0, 2] * adj[2, 0]
    order = np.argsort(s, kind="stable")
    R, s = (_mul(adj, V + U) / det)[:, :, order], s[order]
    for k in range(int(s.max(initial=0))):
        tail = slice(np.searchsorted(s, k, side="right"), None)
        R[:, :, tail] = _mul(R[:, :, tail], R[:, :, tail])
    return R[:, :, np.argsort(order)].transpose(2, 0, 1).reshape(A.shape)


class TestSetup:
    def test_defaults(self, setup):
        assert setup.wave.params.c == 2.0
        assert setup.wave.params.r == 0.0
        assert setup.w_exp == pytest.approx(1.0)

    def test_settled_at_ends(self, setup):
        # the legs start at the ends of the trajectory: the rear end is the
        # seed, SEED_EPS along the a-axis, the front end where the shot stopped,
        # max(|a|, |b|) down to STOP_TOL
        zs = setup.wave.trajectory.zs
        a = setup._spline([zs[0], zs[-1]])[:, 0]
        assert a[0] == pytest.approx(wave.SEED_EPS, rel=1e-12)
        assert abs(a[1]) <= wave.STOP_TOL * (1.0 + 1e-9)

    def test_bad_weight(self, critical_wave):
        for w_exp in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                spectral.make_setup(wave=critical_wave, w_exp=w_exp)


class TestHermite:
    def test_reproduces_a_cubic(self):
        zs = np.array([-2.0, -1.3, -1.25, 0.0, 0.1, 1.7, 3.0])
        zq = np.linspace(zs[0], zs[-1], 101)
        cubic = lambda z: np.stack([1.0 - z + 0.5 * z**3, z * z, 4.0 - z**3], axis=-1)
        slope = lambda z: np.stack([-1.0 + 1.5 * z * z, 2.0 * z, -3.0 * z * z], axis=-1)
        got = spectral._hermite(zs, cubic(zs), slope(zs), zq)
        np.testing.assert_allclose(got, cubic(zq), rtol=0.0, atol=1e-13)

    def test_samples_at_the_knots(self, setup):
        traj = setup.wave.trajectory
        assert np.array_equal(setup._spline(traj.zs), traj.states)

    def test_close_to_the_not_a_knot_spline(self, setup):
        zs = setup.wave.trajectory.zs
        zq = (zs[:-1, None] + np.diff(zs)[:, None] * np.array([0.25, 0.5, 0.75])).ravel()
        spline = CubicSpline(zs, setup.wave.trajectory.states)
        assert np.max(np.abs(setup._spline(zq) - spline(zq))) <= 1e-8


def _continued(setup):
    """`setup._spline` continued past the sampled trajectory by the limits: a = b = 0,
    and i = i_minus_inf behind it and i_plus_inf ahead of it."""
    zs, spline, w = setup.wave.trajectory.zs, setup._spline, setup.wave

    def table(z):
        z = np.asarray(z, dtype=float)[..., None]
        inside = spline(np.clip(z[..., 0], zs[0], zs[-1]))
        return np.where(z < zs[0], (0.0, 0.0, w.i_minus_inf),
                        np.where(z > zs[-1], (0.0, 0.0, w.i_plus_inf), inside))
    return table


def _coefficients(setup, z):
    a, _, i = _continued(setup)(z)
    return a, i


def _far(setup):
    """Two points off the sampled trajectory, (behind, ahead), where the
    coefficients are the limits."""
    zs = setup.wave.trajectory.zs
    return zs[0] - 5.0, zs[-1] + 5.0


def _matrix(setup, z, gamma):
    """Weighted coefficient matrix M(z, gamma) + w_exp * I of the Evans march."""
    a, i = _coefficients(setup, z)
    return spectral._weighted_matrix(a, i, gamma, setup.wave.params, setup.w_exp)


class TestLinearizationMatrix:
    def test_limit_eigenvalues(self, setup):
        g = 0.7 + 0.3j
        w, c = setup.w_exp, setup.wave.params.c
        behind, ahead = _far(setup)
        for z_end, i_lim in (
            (ahead, setup.wave.i_plus_inf),
            (behind, setup.wave.i_minus_inf),
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
        z_behind, z_ahead = _far(setup)
        ahead = np.sort_complex(
            np.linalg.eigvals(_matrix(setup, z_ahead, g))
        )
        assert ahead == pytest.approx(np.array([-2.0, 2.0, 3.0]), abs=1e-6)
        behind = np.sort_complex(
            np.linalg.eigvals(_matrix(setup, z_behind, g))
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
        # unstable plane of M(-inf), so it is an eigenvector of the wedge lift
        # with eigenvalue nu1 + nu2; the front vector is the stable
        # eigenvector of M(+inf).  gamma = 2 is where nu1 = nu2 behind the front.
        w, p = setup.w_exp, setup.wave.params
        behind, ahead = _far(setup)
        for g in (2.5 + 1.5j, 2.0, 4.0):
            nu_m, nu_p = spectral.limit_rates(g, setup)
            V = np.array([0.0, -1.0, -(nu_m[1] - w)], dtype=complex)
            m2 = spectral._wedge_square(_matrix(setup, behind, g))
            assert np.max(np.abs(m2 @ V - (nu_m[0] + nu_m[1]) * V)) < 1e-9
            lam3 = nu_p[2] - w
            X = np.array(
                [1.0, lam3, (setup.wave.i_plus_inf + p.r) / (g - p.c * lam3)],
                dtype=complex,
            )
            m = _matrix(setup, ahead, g)
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

    def test_array_far_field_is_the_scalar_one_bit_for_bit(self):
        # numpy's complex division can land a bit off Python's; entry by entry the
        # far field of an array must not, or batched start data drift from one-gamma ones
        s = spectral.make_setup(wave.shoot_wave(1.5, Params(c=3.0, r=1.0)))
        w, p, K = s.w_exp, s.wave.params, s.wave.i_plus_inf
        angles = np.random.default_rng(37).uniform(-math.pi / 2, math.pi / 2, 300)
        gammas = np.concatenate([np.logspace(-3, 3, 300) * np.exp(1j * angles),
                                 [complex(2.0, -0.0), complex(2.0, 0.0), 1000j, -1000j, 1e-3 - 1e-3j]])
        assert (gammas.imag < 0).sum() > 100

        def bits(*values):
            return np.array(values, dtype=complex).view(np.uint64).tolist()

        mode, grow, decay = analysis.fixed_point_spectrum(K, p.c, gammas, w)
        third = analysis.eigenvector(K, p.c, p.r, decay - w, gammas)[2]
        nu_minus, nu_plus = spectral.limit_rates(gammas, s)
        for k, g in enumerate(gammas.tolist()):
            one = analysis.fixed_point_spectrum(K, p.c, g, w)
            assert bits(mode[k], grow[k], decay[k]) == bits(*one)
            assert bits(third[k]) == bits(analysis.eigenvector(K, p.c, p.r, one[2] - w, g)[2])
            rear = analysis.fixed_point_spectrum(s.wave.i_minus_inf, p.c, g, w)
            assert bits(*(nu[k] for nu in nu_minus + nu_plus)) == bits(*rear, *one)
            assert bits(*sum(spectral.limit_rates(g, s), ())) == bits(*rear, *one)
        assert type(analysis.decay_rate(2.0, 2.0)) is float

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
        # adaptive RK45, on complex states and backward from the front end,
        # both legs started off the trajectory on the limits
        w, p = setup.w_exp, setup.wave.params
        behind, ahead = _far(setup)
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
            tv = solve_ivp(rear, (behind, 0.0), v0, **tols)

            lam3 = nu_p[2] - w
            x0 = np.array(
                [1.0, lam3, (setup.wave.i_plus_inf + p.r) / (g - p.c * lam3)],
                dtype=complex,
            )

            def front(z, x):
                a, i = _coefficients(setup, z)
                m = spectral._weighted_matrix(a, i, g, p, w)
                return (m - nu_p[2] * eye) @ x

            tx = solve_ivp(front, (ahead, 0.0), x0, **tols)
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

    @pytest.mark.parametrize("c, r, i_minus", [(2.0, 0.0, 2.0), (3.0, 1.0, 1.5), (2.0, 1.0, 1.2)])
    def test_march_conjugate_symmetry(self, c, r, i_minus):
        # the identity the fold in `evans` rests on, checked below the fold:
        # both legs marched at gamma and at conj(gamma) give conjugate
        # pairings bit for bit, since every step conjugates exactly
        s = spectral.make_setup(wave.shoot_wave(i_minus, Params(c=c, r=r)))
        rear, front = spectral._legs(s, spectral.DEFAULT_STEP)

        def unfolded(g):
            w, p = s.w_exp, s.wave.params
            nu_minus, nu_plus = spectral.limit_rates(g, s)
            v = (0.0, -1.0, -(nu_minus[1] - w))
            x = analysis.eigenvector(s.wave.i_plus_inf, p.c, p.r, nu_plus[2] - w, g)
            shift_v, shift_x = nu_minus[0] + nu_minus[1], nu_plus[2]
            gs, tally = np.array([g]), Counter()
            V = spectral._march(np.array([v], dtype=complex).T, np.array([shift_v]), gs, rear, tally)
            X = spectral._march(np.array([x], dtype=complex).T, np.array([shift_x]), gs, front, tally)
            return V[0, 0] * X[2, 0] - V[1, 0] * X[1, 0] + V[2, 0] * X[0, 0]

        for g in (3j, 0.3 + 7.0j, 250.0 + 600.0j, 1e-4 + 1e-3j, 40.0 + 1.0j):
            e = unfolded(g)
            assert unfolded(g.conjugate()) == e.conjugate()
            assert abs(spectral.evans(g, s) - e) <= 1e-13 * abs(e)

    @pytest.mark.parametrize("c, r, i_minus, bound", [
        (2.0, 0.0, 2.0, 3e-7), (3.0, 1.0, 1.5, 1.6e-6), (2.0, 1.0, 1.2, 1e-5),
    ])
    def test_seed_truncation(self, monkeypatch, c, r, i_minus, bound):
        # the rear leg starts at the seed, SEED_EPS off the rear limit, so the
        # march leaves out the wave's ramp from the limit up to the seed: a seed
        # 100 times closer moves the values by 1.4e-7, 7.7e-7 and 4.8e-6
        # (relative), bounded here at about twice that
        gammas = np.array([1e-3, 0.5, 4.0, 3j, 30.0 + 30.0j, 1000j])
        p = Params(c=c, r=r)
        e = spectral.evans(gammas, spectral.make_setup(wave.shoot_wave(i_minus, p)))
        monkeypatch.setattr(wave, "SEED_EPS", 1e-9)
        closer = spectral.evans(gammas, spectral.make_setup(wave.shoot_wave(i_minus, p)))
        assert np.max(np.abs(closer - e) / np.abs(closer)) < bound

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


def _stack(matrices: np.ndarray) -> np.ndarray:
    """The (3, 3, n) layout `spectral.expm` takes, of matrices given (n, 3, 3)."""
    return np.ascontiguousarray(np.moveaxis(matrices, 0, -1))


class TestExpm:
    @staticmethod
    def _magnus_stack(setup, z, h):
        """The Gauss-point Magnus exponents of one step at z, for |gamma| 1e-3 to 1e3, (n, 3, 3)."""
        gammas = np.logspace(-3, 3, 25)[:, None] * np.exp(1j * np.linspace(-1.5, 1.5, 7))
        gammas = gammas.reshape(-1)
        p, w = setup.wave.params, setup.w_exp
        offset = math.sqrt(3.0) / 6.0
        nodes = z + h * np.array([0.5 - offset, 0.5 + offset])
        (a1, _, i1), (a2, _, i2) = setup._spline(nodes)
        m1 = spectral._weighted_matrix(a1, i1, gammas, p, w)
        m2 = spectral._weighted_matrix(a2, i2, gammas, p, w)
        return 0.5 * h * (m1 + m2) + math.sqrt(3.0) * h * h / 12.0 * (m2 @ m1 - m1 @ m2)

    @pytest.mark.parametrize("z, h", [(-5.0, 0.2), (0.0, -0.2), (3.0, -0.1)])
    def test_matches_scipy_on_magnus_stacks(self, setup, z, h):
        omega = self._magnus_stack(setup, z, h)
        for stack in (omega, spectral._wedge_square(omega)):
            got = spectral.expm(_stack(stack))
            assert got.shape == (3, 3, stack.shape[0])
            for g, a in zip(got.transpose(2, 0, 1), stack):
                want = scipy.linalg.expm(a)
                assert np.max(np.abs(g - want)) <= 1e-10 * np.max(np.abs(want))

    def test_mul_matches_einsum(self):
        rng = np.random.default_rng(11)
        x, y = (rng.standard_normal((2, 3, 3, 40)) + 1j * rng.standard_normal((2, 3, 3, 40)))
        for a, b in ((x, y), (x[:, :, 17:], y[:, :, 17:]), (x[:, :, 39:], x[:, :, 39:])):
            want = np.einsum("ijg,jkg->ikg", a, b)
            got = spectral._mul(a, b, np.empty_like(a), np.empty_like(a))
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_zero_matrix_is_identity(self):
        assert np.array_equal(spectral.expm(np.zeros((3, 3, 1))), np.eye(3)[:, :, None])
        stack = spectral.expm(np.zeros((3, 3, 8)))
        assert np.array_equal(stack, np.broadcast_to(np.eye(3)[:, :, None], (3, 3, 8)))

    def test_shape_kept_and_powers_per_matrix(self):
        # a small and a large matrix in one stack: each is scaled on its own
        a = np.array([[[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.5]]])
        stack = np.concatenate([1e-3 * a, 40.0 * a])
        got = spectral.expm(_stack(stack))
        assert got.shape == (3, 3, 2)
        for g, m in zip(got.transpose(2, 0, 1), stack):
            want = scipy.linalg.expm(m)
            assert np.max(np.abs(g - want)) <= 1e-10 * np.max(np.abs(want))

    @staticmethod
    def _interleaved_stack():
        """Matrices needing s = 0, 3 and 6 squarings, interleaved in one (3, 3, 9) stack."""
        rng = np.random.default_rng(7)
        base = rng.standard_normal((9, 3, 3)) + 1j * rng.standard_normal((9, 3, 3))
        base /= np.abs(base).sum(axis=1).max(axis=1)[:, None, None]
        return _stack(base * np.tile([1.0, 30.0, 250.0], 3)[:, None, None])

    def test_interleaved_powers_square_as_alone(self):
        stack = self._interleaved_stack()
        norms = np.abs(stack).sum(axis=0).max(axis=0)
        powers = np.maximum(np.ceil(np.log2(norms / spectral._THETA13)), 0.0)
        assert list(powers) == [0.0, 3.0, 6.0] * 3
        got = spectral.expm(stack)
        for k in range(9):
            assert np.array_equal(got[:, :, k:k + 1], spectral.expm(stack[:, :, k:k + 1]))

    @staticmethod
    def _same_bytes(stack):
        # the bytes of the reference on the (n, 3, 3) matrices, with the stack given left as it was
        given = stack.tobytes()
        got = spectral.expm(stack).transpose(2, 0, 1)
        same = got.tobytes() == expm_reference(stack.transpose(2, 0, 1)).tobytes()
        return same and stack.tobytes() == given

    def test_bitwise_against_reference(self):
        # the in-place Pade sums change no bit, signed zeros included
        stack = self._interleaved_stack()
        for a in (np.zeros((3, 3, 1)), np.zeros((3, 3, 8)), stack, stack[:, :, 4:5],
                  np.concatenate([stack[:, :, :4], -stack[:, :, :4]], axis=2), stack[:, :, ::2]):
            assert self._same_bytes(a)

    def test_out_may_be_the_stack(self):
        # `out` is written only after the stack has been read: the march exponentiates in place
        stack = np.concatenate([self._interleaved_stack(), np.zeros((3, 3, 1))], axis=2)
        want = spectral.expm(stack)
        for out in (np.empty_like(stack), stack):
            assert spectral.expm(stack, out=out) is out
            assert out.tobytes() == want.tobytes()

    def test_stack_past_the_block_is_refused(self):
        # 2 _BLOCK + 1 matrices are more than any march builds: a ValueError naming _BLOCK,
        # raised before the stack, `out` or a kept buffer is written, and the kept
        # buffers stay _BLOCK matrices long
        block = spectral._BLOCK
        stack = np.tile(self._interleaved_stack(), 2 * block // 9 + 1)[:, :, :2 * block + 1]
        spectral.expm(stack[:, :, :block])
        given, kept = stack.tobytes(), [x.tobytes() for x in spectral._KEPT]
        with pytest.raises(ValueError, match="_BLOCK"):
            spectral.expm(stack, out=stack)
        assert stack.tobytes() == given and [x.tobytes() for x in spectral._KEPT] == kept
        assert [x.size for x in spectral._KEPT] == [9 * block] * 8

    def test_bitwise_on_magnus_stacks(self, graded_setup, monkeypatch):
        # Gauss-point Magnus exponents, with the wedge lift and without, over
        # |gamma| 1e-3 to 1e3 and real gamma among them; then every stack the
        # march takes in an Evans sweep, a real gamma at each end of the contour
        for z, h in ((-5.0, 0.2), (0.0, -0.2), (3.0, -0.1), (-1.0, 0.05)):
            omega = self._magnus_stack(graded_setup, z, h)
            assert self._same_bytes(_stack(omega))
            assert self._same_bytes(_stack(spectral._wedge_square(omega)))
        expm, same = spectral.expm, []

        def checked(a, out=None):
            want = expm_reference(a.transpose(2, 0, 1))
            got = expm(a, out=out)
            same.append(got.transpose(2, 0, 1).tobytes() == want.tobytes())
            return got

        monkeypatch.setattr(spectral, "expm", checked)
        spectral.evans(spectral.contour_of_S(0.1, 10.0, 32)[:-1], graded_setup)
        assert len(same) > 2 and all(same)

    def test_non_finite_matrices_stay_apart(self):
        # a NaN-filled matrix and one with inf on its diagonal come back
        # non-finite; the finite matrices beside them, one needing 3
        # squarings, are bitwise what they are alone
        rng = np.random.default_rng(5)
        small = 0.1 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        large = 40.0 * small / np.abs(small).sum(axis=0).max()
        assert math.ceil(math.log2(40.0 / spectral._THETA13)) == 3
        stack = _stack(np.array([small, np.full((3, 3), np.nan), np.diag([np.inf, 1.0, 1.0]), large]))
        with np.errstate(invalid="ignore"):
            got = spectral.expm(stack)
        assert not np.isfinite(got[:, :, 1]).any() and not np.isfinite(got[:, :, 2]).any()
        for k, m in ((0, small), (3, large)):
            assert got[:, :, k].tobytes() == spectral.expm(m[:, :, None])[:, :, 0].tobytes()


@pytest.fixture(scope="module", params=[(2.0, 0.0, 2.0), (3.0, 1.0, 1.5), (2.0, 1.0, 1.2)],
                ids=lambda w: "c{}-r{}-i{}".format(*w))
def graded_setup(request):
    c, r, i_minus = request.param
    return spectral.make_setup(wave.shoot_wave(i_minus, Params(c=c, r=r)))


class TestMesh:
    def test_invariants(self, graded_setup):
        zs = graded_setup.wave.trajectory.zs
        for step in (0.4, 0.2, 0.1, 0.0125):
            (rear, _, _), (front, _, _) = spectral._legs(graded_setup, step)
            assert (rear[0], rear[-1], front[0], front[-1]) == (zs[0], 0.0, zs[-1], 0.0)
            assert np.all(np.diff(rear) > 0.0) and np.all(np.diff(front) < 0.0)
            # the steps ending at the peak z = 0, where m = a_max, are `step` exactly
            assert (rear[-2], front[-2]) == (-step, step)

    def test_each_mesh_walked_once(self, setup, monkeypatch):
        # a sweep with bisections, its halving probes and its `steps` count
        # walk the meshes at DEFAULT_STEP and at half of it once each, one
        # np.interp per step, build each leg's P and Q once per step, and
        # hand all of them out read-only
        fresh = spectral.make_setup(setup.wave)
        interp, magnus, walked = np.interp, spectral._magnus, Counter()

        def counted(*args, **kwargs):
            walked["steps"] += 1
            return interp(*args, **kwargs)

        def built(*args):
            walked["legs"] += 1
            return magnus(*args)

        monkeypatch.setattr(np, "interp", counted)
        monkeypatch.setattr(spectral, "_magnus", built)
        contour = np.array([-1000j, 1000, 1000j, 1j, 1e-3, -1j, -1000j])
        assert spectral.evans_winding(fresh, contour).diagnostics["bisections"] > 0
        steps = (spectral.DEFAULT_STEP, spectral.DEFAULT_STEP / 2.0)
        assert set(fresh._legs_by_step) == set(steps)
        legs = [leg for step in steps for leg in spectral._legs(fresh, step)]
        assert walked["steps"] == sum(mesh.size - 1 for mesh, _, _ in legs)
        assert walked["legs"] == len(legs) == 4  # fetching them again above rebuilt none
        for mesh, P, Q in legs:
            assert P.shape == Q.shape == (3, 3, mesh.size - 1)
            assert not (mesh.flags.writeable or P.flags.writeable or Q.flags.writeable)
        for part in legs[0]:
            with pytest.raises(ValueError, match="read-only"):
                part[0] = 0.0

    def test_sweep_leaves_a_later_call_no_magnus_work(self, setup, monkeypatch):
        # the leg records hold every part of the march that does not depend on
        # gamma, so after a sweep a one-gamma call at either step it marched
        # forms no coefficient matrix; a call at a new step forms its own
        fresh = spectral.make_setup(setup.wave)
        spectral.evans_winding(fresh, spectral.contour_of_S(0.1, 10.0, 32))
        weighted, formed = spectral._weighted_matrix, Counter()

        def counted(*args):
            formed["calls"] += 1
            return weighted(*args)

        monkeypatch.setattr(spectral, "_weighted_matrix", counted)
        for step in (spectral.DEFAULT_STEP, spectral.DEFAULT_STEP / 2.0):
            spectral.evans(0.3 + 7.0j, fresh, step)
        assert formed["calls"] == 0
        spectral.evans(0.3 + 7.0j, fresh, 0.3)
        assert formed["calls"] > 0

    def test_fourth_order(self, graded_setup):
        # errors against a step-0.0125 march fall 16x per halving at fourth
        # order; these waves and gammas gave ratios of 15.2 to 21.4, and
        # third or fifth order would give 8 or 32
        gammas = np.array([1e-3j, 3j, 0.3 + 7.0j, 250.0 + 600.0j, 1000.0])
        reference = spectral.evans(gammas, graded_setup, 0.0125)
        errors = [np.abs(spectral.evans(gammas, graded_setup, h) - reference) / np.abs(reference)
                  for h in (0.4, 0.2, 0.1)]
        for coarse, fine in zip(errors, errors[1:]):
            assert np.all((12.0 < coarse / fine) & (coarse / fine < 24.0))


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

    def test_mixed_half_planes_match_one_point_calls(self, setup):
        # conjugate pairs, repeats and a real gamma: each distinct gamma of
        # the upper half is marched once, the lower half gets its conjugate
        gammas = np.array([0.3 - 7.0j, 4.0, 3j, 0.3 + 7.0j, -3j, 3j, 250.0 - 600.0j, 4.0, 1e-3j])
        tally = Counter()
        batch = spectral.evans(gammas, setup, tally=tally)
        assert tally["gammas"] == 5
        for g, value in zip(gammas, batch):
            one = spectral.evans(g, setup)
            assert abs(value - one) <= 1e-13 * abs(one)
        assert batch[0] == batch[3].conjugate() and batch[4] == batch[2].conjugate()
        assert batch[2] == batch[5] and batch[1] == batch[7]

    @pytest.mark.parametrize("bad", [complex("inf"), complex("inf+1j"), complex("nan")])
    def test_non_finite_gamma_rejected(self, setup, bad):
        with pytest.raises(DomainError):
            spectral.evans(bad, setup)
        with pytest.raises(DomainError):
            spectral.evans(np.array([4.0, bad]), setup)

    def test_bad_gamma_in_batch_raises_its_own_error(self, setup, critical_wave):
        narrow = spectral.make_setup(wave=critical_wave, w_exp=0.5)
        # -0.5 is off Re(gamma) >= 0; with weight 0.5, gamma = 0.1 leaves the
        # front growing root stable, and so do 0.1 -+ 0.01i; a lower-half gamma
        # names itself, not the conjugate that is marched
        for s, bad, kind in ((setup, -0.5, DomainError), (narrow, 0.1, SplittingError),
                             (setup, -0.5 - 1j, DomainError),
                             (narrow, 0.1 - 0.01j, SplittingError)):
            with pytest.raises(kind) as one:
                spectral.evans(bad, s)
            with pytest.raises(kind) as batch:
                spectral.evans(np.array([4.0, bad, 3j]), s)
            assert str(batch.value) == str(one.value)
        with pytest.raises(SplittingError, match=re.escape("gamma = (0.1-0.01j)")):
            spectral.evans(0.1 - 0.01j, narrow)
        # the first bad gamma in the order given raises, not the first in sorted order
        with pytest.raises(SplittingError, match=re.escape("gamma = (0.2-0.01j)")):
            spectral.evans(np.array([4.0, 0.2 - 0.01j, 0.1 + 0.01j]), narrow)

    def test_march_skips_constant_tails(self, setup):
        # beyond the sampled trajectory the march is the identity, so each
        # leg runs from its end of the trajectory to exactly 0
        (rear, _, _), (front, _, _) = spectral._legs(setup, spectral.DEFAULT_STEP)
        zs = setup.wave.trajectory.zs
        assert (rear[0], rear[-1], front[0], front[-1]) == (zs[0], 0.0, zs[-1], 0.0)

    def test_tail_skip_matches_full_march(self, setup, monkeypatch):
        # marching on through the limit coefficients beyond the trajectory
        # gives the values of the march that skips those tails
        skip = spectral.evans(self.GAMMAS, setup)
        legs = spectral._legs

        def full_legs(s, step):
            # the graded meshes, continued 15 further out at each end in steps of at most
            # `step`, with their P and Q from the continued coefficients
            return tuple(
                spectral._magnus(s, np.concatenate(
                    [np.linspace(end, mesh[0], math.ceil(abs(end - mesh[0]) / step) + 1), mesh[1:]]
                ), wedge)
                for end, (mesh, _, _), wedge in zip((s.wave.trajectory.zs[0] - 15.0,
                                                     s.wave.trajectory.zs[-1] + 15.0),
                                                    legs(s, step), (True, False))
            )

        monkeypatch.setattr(spectral, "_legs", full_legs)
        monkeypatch.setattr(setup, "_spline", _continued(setup))
        full = spectral.evans(self.GAMMAS, setup)
        assert np.max(np.abs(full - skip) / np.abs(full)) <= 1e-6


class TestEvansWinding:
    @staticmethod
    def _count_expm(monkeypatch):
        counts = {"stacked": 0, "matrices": 0, "gammas": 0, "largest_stack": 0}
        expm, march = spectral.expm, spectral._march

        def counted(a, out=None):
            assert a.ndim == 3 and a.shape[:2] == (3, 3)
            counts["stacked"] += 1
            counts["matrices"] += a.shape[2]
            counts["largest_stack"] = max(counts["largest_stack"], a.shape[2])
            return expm(a, out=out)

        def marched(Y, shift, gammas, *rest):
            # each evans call marches its distinct gammas on two legs
            counts["gammas"] += gammas.size / 2
            return march(Y, shift, gammas, *rest)

        monkeypatch.setattr(spectral, "expm", counted)
        monkeypatch.setattr(spectral, "_march", marched)
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
        # the 72 contour points fold to 37 and the probes add at most 4
        assert 38 <= diag["propagators"]["gammas"] <= 41
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

    @pytest.mark.parametrize("block", [8, 64, 4096])
    @pytest.mark.parametrize("contour", [
        spectral.contour_of_S(0.1, 10.0, 32),
        np.array([-1000j, 1000, 1000j, 1j, 1e-3, -1j, -1000j]),
    ], ids=["annulus", "polygon"])
    def test_block_moves_no_bit(self, setup, monkeypatch, contour, block):
        # the working set changes how the (gamma, step) field is cut into
        # stacks, never a value, and no stack holds more than _BLOCK matrices
        ref = spectral.evans_winding(setup, contour)
        stacks = []
        expm = spectral.expm
        monkeypatch.setattr(spectral, "_BLOCK", block)
        monkeypatch.setattr(spectral, "expm",
                            lambda a, out=None: stacks.append(a.shape[2]) or expm(a, out=out))
        sweep = spectral.evans_winding(setup, contour)
        assert sweep.gammas.tobytes() == ref.gammas.tobytes()
        assert sweep.values.tobytes() == ref.values.tobytes()
        for key in ("min_abs_E", "halving_rel_diff"):
            assert sweep.diagnostics[key].hex() == ref.diagnostics[key].hex()
        props, ref_props = sweep.diagnostics["propagators"], ref.diagnostics["propagators"]
        assert (props["matrices"], props["gammas"]) == (ref_props["matrices"], ref_props["gammas"])
        assert max(stacks) == props["largest_stack"] <= block

    def test_second_sweep_allocates_no_stack(self, setup):
        # expm's working stacks and the march's exponents outlive a call, so once a
        # sweep has run, a second one allocates no block as large as one (3, 3, n)
        # stack of its largest exponential: traced memory grows by less than that
        # from one line event to the next (numpy's own iterator buffers included)
        gammas, tally = spectral.contour_of_S()[:-1], Counter()
        spectral.evans(gammas, setup, tally=tally)
        grown, last = [], [0]

        def trace(frame, event, arg):
            current, peak = tracemalloc.get_traced_memory()
            grown.append(peak - last[0])
            last[0] = current
            tracemalloc.reset_peak()
            return trace

        tracemalloc.start()
        sys.settrace(trace)
        try:
            spectral.evans(gammas, setup)
        finally:
            sys.settrace(None)
            tracemalloc.stop()
        assert tally["largest_stack"] > 1000 and len(grown) > 100
        assert max(grown) < 9 * 16 * tally["largest_stack"]

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

    @staticmethod
    def _unmirrored(r_min, r_max, base_n):
        """The contour as first written: plain linspace angles and two logspaces."""
        n_seg, n_inner = max(base_n // 2, 8), max(base_n // 4, 8)
        outer = r_max * np.exp(1j * np.linspace(-math.pi / 2.0, math.pi / 2.0, base_n + 1))
        outer[0], outer[-1] = complex(0.0, -r_max), complex(0.0, r_max)
        down = 1j * np.logspace(math.log10(r_max), math.log10(r_min), n_seg + 1)[1:]
        inner = r_min * np.exp(1j * np.linspace(math.pi / 2.0, -math.pi / 2.0, n_inner + 1))[1:]
        inner[-1] = complex(0.0, -r_min)
        up = -1j * np.logspace(math.log10(r_min), math.log10(r_max), n_seg + 1)[1:]
        pts = np.concatenate([outer, down, inner, up])
        pts[-1] = pts[0]
        return pts

    @pytest.mark.parametrize("base_n", [16, 17, 64, 200, 201])
    @pytest.mark.parametrize("r_min, r_max", [(1e-3, 1000.0), (0.3, 7.0)])
    def test_closed_under_conjugation(self, base_n, r_min, r_max):
        pts = spectral.contour_of_S(r_min, r_max, base_n)
        body = pts[:-1]
        assert np.array_equal(np.sort_complex(body), np.sort_complex(body.conj()))
        assert pts[-1] == pts[0]
        old = self._unmirrored(r_min, r_max, base_n)
        assert pts.size == old.size
        assert np.max(np.abs(pts - old) / np.abs(old)) <= 5e-15

    def test_validation(self):
        with pytest.raises(DomainError):
            spectral.contour_of_S(10.0, 1.0)
        with pytest.raises(DomainError):
            spectral.contour_of_S(1e-3, math.inf)
        with pytest.raises(DomainError):
            spectral.contour_of_S(base_n=4)
        with pytest.raises(DomainError, match="capped at"):
            spectral.contour_of_S(base_n=spectral.MAX_CONTOUR_N + 1)


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

    def test_vanishing_value(self):
        with pytest.raises(ContourResolutionError, match="vanishing value on the contour"):
            spectral.winding_number(lambda g: np.zeros_like(g), _circle(0.5, 1.0, 8))

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
        with pytest.raises(ContourResolutionError):
            spectral.winding_number(
                lambda g: np.full_like(g, math.nan), _circle(0.5, 1.0, 8)
            )

    def test_non_finite_midpoint_rejected(self):
        # finite on the five contour points, NaN at every bisection midpoint
        contour = _circle(0.5, 1.0, 5)
        mid = 0.5 * (contour[1] + contour[2])
        with pytest.raises(ContourResolutionError,
                           match=re.escape(f"non-finite Evans sample at gamma = {mid}")):
            spectral.winding_number(
                lambda g: g if g.size > 1 else np.full_like(g, math.nan), contour
            )

    def test_infinite_contour_point_rejected(self):
        contour = _circle(0.5, 1.0, 8)
        contour[3] = complex(math.inf, 0.0)
        with pytest.raises(DomainError, match=r"non-finite Evans sample at gamma = \(inf\+0j\)"):
            spectral.winding_number(lambda g: g, contour)
