import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from branchwaves import spectral
from branchwaves.errors import DomainError
from branchwaves.model import (
    GeneralParams,
    Params,
    WaveState,
    denormalize,
    general_wave_predictions,
    laplacian,
    normalize,
    pde_rhs,
    reaction,
    wave_rhs,
)


def jacobian(state, p):
    """Jacobian of wave_rhs in (a, b, i): the Evans matrix at gamma = 0, weight 0."""
    a, _, i = state
    return spectral._weighted_matrix(a, i, 0.0, p, 0.0)


def finite_difference_jacobian(state, p, h=1e-6):
    """Central-difference oracle for the Jacobian of wave_rhs."""
    state = np.asarray(state, dtype=float)
    J = np.empty((3, 3))
    for k in range(3):
        dp = state.copy()
        dm = state.copy()
        dp[k] += h
        dm[k] -= h
        J[:, k] = (np.asarray(wave_rhs(dp, p)) - np.asarray(wave_rhs(dm, p))) / (2 * h)
    return J


class TestParams:
    def test_validation(self):
        Params(c=2.0, r=0.0)
        with pytest.raises(DomainError):
            Params(c=0.0)
        with pytest.raises(DomainError):
            Params(c=-1.0)
        with pytest.raises(DomainError):
            Params(c=2.0, r=-0.5)
        for c, r in [(math.nan, 0.0), (math.inf, 0.0), (2.0, math.nan), (2.0, math.inf)]:
            with pytest.raises(DomainError):
                Params(c=c, r=r)

    def test_numpy_scalars_stored_as_floats(self):
        p = Params(c=np.float64(2.5), r=np.float64(0.5))
        assert type(p.c) is float and type(p.r) is float
        assert (p.c, p.r) == (2.5, 0.5)

    def test_general_validation(self):
        GeneralParams(r_S=1.0, r_A=1.0, r_I=0.0, D=1.0)
        for bad in [
            dict(r_S=0.0, r_A=1.0, r_I=0.0, D=1.0),
            dict(r_S=1.0, r_A=-1.0, r_I=0.0, D=1.0),
            dict(r_S=1.0, r_A=1.0, r_I=-0.1, D=1.0),
            dict(r_S=1.0, r_A=1.0, r_I=0.0, D=0.0),
            # an infinite D would give a normalized speed of 0, an infinite r_I a NaN rate
            dict(r_S=1.0, r_A=1.0, r_I=0.0, D=math.inf),
            dict(r_S=1.0, r_A=1.0, r_I=math.inf, D=1.0),
            dict(r_S=math.inf, r_A=1.0, r_I=0.0, D=1.0),
        ]:
            with pytest.raises(DomainError):
                GeneralParams(**bad)


class TestWaveRhs:
    def test_fixed_point_continuum(self):
        p = Params(c=2.0, r=0.5)
        for K in [0.0, 0.7, 1.0, 2.0]:
            assert wave_rhs(WaveState(0.0, 0.0, K), p) == WaveState(0.0, 0.0, 0.0)

    def test_hand_values(self):
        # direct substitution at (1, 0, 0), c=2, r=0
        out = wave_rhs((1.0, 0.0, 0.0), Params(c=2.0, r=0.0))
        assert out == pytest.approx((0.0, 0.0, -0.5))
        # (0.5, 0.1, 0.5), c=2, r=1
        out = wave_rhs((0.5, 0.1, 0.5), Params(c=2.0, r=1.0))
        assert out == pytest.approx((0.1, -0.2, -0.5))

    def test_inactive_depletion_sign(self):
        # i' <= 0 whenever a, i >= 0
        rng = np.random.default_rng(7)
        p = Params(c=1.5, r=1.0)
        for _ in range(200):
            a, i = rng.uniform(0, 2, size=2)
            b = rng.uniform(-2, 2)
            assert wave_rhs((a, b, i), p)[2] <= 0


class TestWaveJacobian:
    def test_at_fixed_point(self):
        p = Params(c=2.0, r=0.5)
        K = 1.7
        J = jacobian((0.0, 0.0, K), p)
        expected = np.array(
            [
                [0.0, 1.0, 0.0],
                [K - 1.0, -2.0, 0.0],
                [-(K + 0.5) / 2.0, 0.0, 0.0],
            ]
        )
        np.testing.assert_allclose(J, expected)

    def test_middle_row_at_K1(self):
        J = jacobian((0.0, 0.0, 1.0), Params(c=2.0))
        np.testing.assert_allclose(J[1], [0.0, -2.0, 0.0])

    def test_matches_finite_differences(self):
        J = jacobian((0.3, -0.1, 0.7), Params(c=2.0, r=0.0))
        J_fd = finite_difference_jacobian((0.3, -0.1, 0.7), Params(c=2.0, r=0.0))
        np.testing.assert_allclose(J, J_fd, atol=1e-6)

    def test_matches_finite_differences_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            state = rng.uniform(0, 2, size=3)
            p = Params(c=rng.uniform(0.5, 4.0), r=float(rng.integers(0, 2)))
            np.testing.assert_allclose(
                jacobian(state, p),
                finite_difference_jacobian(state, p),
                atol=2e-6,
            )


class TestPdeRhs:
    def test_steady_state_continuum(self):
        x = np.linspace(-1, 1, 11)
        for K in [0.0, 0.5, 2.0]:
            dA, dI = pde_rhs(np.zeros_like(x), np.full_like(x, K), 1.0, dx=0.2)
            np.testing.assert_array_equal(dA, 0.0)
            np.testing.assert_array_equal(dI, 0.0)

    def test_uniform_fields(self):
        A = np.full(8, 0.5)
        I = np.zeros(8)
        dA, dI = pde_rhs(A, I, 0.0, dx=0.1)
        np.testing.assert_allclose(dA, 0.25)
        np.testing.assert_allclose(dI, 0.25)

    def test_interior_spike_stencil(self):
        dA, dI = pde_rhs([0.0, 1.0, 0.0], [0.0, 0.0, 0.0], 0.0, dx=1.0)
        assert dA[1] == pytest.approx(-2.0)
        assert dI[1] == pytest.approx(1.0)

    def test_mirror_ends_conserve_flux(self):
        # with zero-flux ends the discrete Laplacian integrates to zero
        # (trapezoid weights: the boundary nodes carry half cells)
        rng = np.random.default_rng(3)
        A = rng.uniform(0, 1, size=40)
        dA, _ = pde_rhs(A, np.zeros(40), 0.0, dx=0.5)
        lap = dA - A + A * A
        assert abs(np.trapezoid(lap, dx=0.5)) < 1e-12

    def test_matches_plain_expressions_and_fills_out(self):
        rng = np.random.default_rng(5)
        A, I = rng.uniform(0, 2, size=(2, 50))
        dx, r = 0.3, 0.7
        # the stencil form as plain array expressions, summed left to right: the bitwise
        # oracle of the one correlation, the in-place reaction and their sum
        q = 1.0 / (dx * dx)
        lap = np.empty_like(A)
        lap[1:-1] = A[:-2] * q + A[1:-1] * (-2.0 * q) + A[2:] * q
        lap[0] = 2.0 * (A[1] - A[0]) * q
        lap[-1] = 2.0 * (A[-2] - A[-1]) * q
        np.testing.assert_array_equal(laplacian(A, dx), lap)
        react = ((1.0 - (A + I)) * A, ((A + I) + r) * A)  # (A - A(A + I), A(A + I) + r A)
        np.testing.assert_array_equal(reaction(A, I, r), react)
        np.testing.assert_array_equal(pde_rhs(A, I, r, dx), (react[0] + lap, react[1]))
        # the reaction writes into the buffers of `simulate`
        out = np.full((2, 50), np.nan)
        dA, dI = reaction(A, I, r, out=out)
        assert np.shares_memory(dA, out[0]) and np.shares_memory(dI, out[1])
        np.testing.assert_array_equal(out, react)

    @pytest.mark.parametrize("field", ["uniform", "bump"])
    def test_within_a_few_ulp_of_the_three_term_laplacian(self, field):
        # the stencil weights (1/dx^2, 1 - 2/dx^2, 1/dx^2) round apart from
        # (A[:-2] - 2 A[1:-1] + A[2:]) / dx^2 + A, whose partial sums reach
        # 2 max|A| / dx^2, by a few ulp of max|A| / dx^2: measured 3.0 ulp here
        # (5.0 at worst over seeds 0-199) on the uniform field and 1.1 on the bump
        rng = np.random.default_rng(11)
        dx = 0.075  # the reference grid's spacing
        xs = dx * np.arange(-400, 401)
        A = rng.uniform(0, 1, xs.size) if field == "uniform" else 0.5 * np.exp(-xs * xs)
        I = rng.uniform(0, 2, xs.size)
        dA, _ = pde_rhs(A, I, 0.7, dx)
        lap = np.empty_like(A)
        lap[1:-1] = (A[:-2] - 2.0 * A[1:-1] + A[2:]) / dx**2
        lap[0] = 2.0 * (A[1] - A[0]) / dx**2
        lap[-1] = 2.0 * (A[-2] - A[-1]) / dx**2
        gap = np.max(np.abs(dA - (lap + A - A * (A + I))))
        assert gap <= 8.0 * np.spacing(np.max(np.abs(A)) / dx**2)

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            pde_rhs([0.0, 1.0], [0.0, 1.0], 0.0, dx=1.0)
        with pytest.raises(ValueError):
            pde_rhs([0.0, 1.0, 0.0], [0.0, 1.0], 0.0, dx=1.0)
        with pytest.raises(ValueError):
            laplacian(np.zeros((3, 3)), dx=1.0)
        with pytest.raises(ValueError):
            reaction(np.zeros(3), np.zeros(4), 0.0)

    def test_reaction_carries_mass_at_rate_one_plus_r(self):
        # dA + dI = (1 + r) A pointwise: the rate the mass ledger of `simulate` books
        rng = np.random.default_rng(9)
        A, I = rng.uniform(0, 2, size=(2, 30))
        dA, dI = reaction(A, I, 2.5)
        np.testing.assert_allclose(dA + dI, 3.5 * A, rtol=1e-14, atol=1e-14)

    def test_non_positive_spacing(self):
        with pytest.raises(DomainError, match="grid spacing must be positive"):
            laplacian(np.zeros(5), dx=0.0)


class TestRescaling:
    def test_already_normalized(self):
        p, s = normalize(GeneralParams(r_S=1.0, r_A=1.0, r_I=0.0, D=1.0))
        assert p.r == 0.0
        assert (s.time_factor, s.space_factor, s.density_factor) == (1.0, 1.0, 1.0)

    def test_hand_example(self):
        p, s = normalize(GeneralParams(r_S=2.0, r_A=4.0, r_I=2.0, D=1.0))
        assert p.r == pytest.approx(0.5)
        assert s.time_factor == pytest.approx(4.0)
        assert s.space_factor == pytest.approx(0.5)
        assert s.density_factor == pytest.approx(0.5)

    @given(
        r_S=st.floats(0.1, 10),
        r_A=st.floats(0.1, 10),
        r_I=st.floats(0, 10),
        D=st.floats(0.1, 10),
    )
    def test_round_trip(self, r_S, r_A, r_I, D):
        g = GeneralParams(r_S=r_S, r_A=r_A, r_I=r_I, D=D)
        g2 = denormalize(*normalize(g))
        assert g2.r_S == pytest.approx(g.r_S, rel=1e-12)
        assert g2.r_A == pytest.approx(g.r_A, rel=1e-12)
        assert g2.r_I == pytest.approx(g.r_I, rel=1e-12, abs=1e-12)
        assert g2.D == pytest.approx(g.D, rel=1e-12)


class TestGeneralPredictions:
    def test_normalized_critical_speed(self):
        g = GeneralParams(r_S=1.0, r_A=1.0, r_I=0.0, D=1.0)
        pred = general_wave_predictions(g, c=2.0)
        assert pred.i_c == 0.0
        assert pred.limit_sum == pytest.approx(2.0)
        assert pred.c_normalized == pytest.approx(2.0)

    def test_hand_example(self):
        pred = general_wave_predictions(GeneralParams(r_S=2.0, r_A=2.0, r_I=0.0, D=1.0), c=2.0)
        assert pred.i_c == pytest.approx(0.5)
        assert pred.limit_sum == pytest.approx(2.0)

    def test_decay_rate_matches_normalized_formula(self):
        g = GeneralParams(r_S=1.0, r_A=1.0, r_I=0.0, D=1.0)
        pred = general_wave_predictions(g, c=2.0)
        # normalized system: mu = -c/2 + sqrt(c^2/4 + i - 1)
        assert pred.decay_rate(2.0) == pytest.approx(-1.0 + math.sqrt(2.0))
        assert pred.decay_rate(0.0) == pytest.approx(-1.0)
