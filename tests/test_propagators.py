"""Free flow, gauge factor, power map, and exact nonlinear flow checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from nlslab import (
    ComplexField,
    Grid,
    NonlinearityParams,
    PointwiseBlowUp,
    Space,
    blowup_horizon,
    fourier_forward,
    fourier_inverse,
    free_propagate,
    g_p,
    gauge_multiply,
    nonlinear_flow_exact,
)
from nlslab.propagators import coefficient_integral, coefficient_time, remainder
from nlslab.spectral import _back_propagation_phase


def gaussian_field(grid, width=1.0, k0=0.0):
    x2 = grid.abs_x_sq
    mod = np.exp(1j * k0 * grid.x_mesh[0])
    return ComplexField(grid, Space.PHYSICAL, np.exp(-x2 / (2 * width**2)) * mod)


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return ComplexField(grid, Space.PHYSICAL, v)


def apply_multiplier(f, m):
    """F^{-1}[m F f] through the public unitary transform; m is an array on the
    lattice or a function of the frequency meshes."""
    m = m(*f.grid.xi_mesh) if callable(m) else m
    fh = fourier_forward(f)
    return fourier_inverse(ComplexField(f.grid, Space.FREQUENCY, m * fh.values))


def params_for(lam, b, d=1):
    # b = 2*theta/d, so theta = b*d/2
    return NonlinearityParams(lam=lam, theta=b * d / 2.0, d=d)


def remainder_sup(u, t, params):
    """The grid's sup|R| of the physical-space field u."""
    return u.grid.remainder_sup(u.values, t, params)


def lattice_phase_overflows(grid, t):
    """Whether some value of the free multiplier over t is not finite, found by
    building every value on the lattice."""
    with np.errstate(over="ignore", invalid="ignore"):
        return not np.isfinite(_back_propagation_phase(grid, -t)).all()


class TestFreePropagate:
    def test_t0_identity(self):
        g = Grid(1, 64, 8.0)
        f = random_field(g, seed=1)
        out = free_propagate(f, 0.0)
        assert np.array_equal(out.values, f.values)
        assert out.values is not f.values

    def test_free_gaussian_closed_form(self):
        # closed form (1+it)^{-1/2} exp(-x^2/(2(1+it))); cross-checked against
        # direct quadrature of the Schrodinger kernel, e.g. at (t,x)=(1,0.625)
        # the kernel integral gives 0.7297051591590996-0.2217668891439596j
        # (adaptive quad, agrees with the closed form to 6e-17).
        # box wide enough that the dispersed tail stays below the tolerance
        g = Grid(1, 1024, 40.0)
        f = gaussian_field(g)
        for t in (0.5, 1.0, 2.5, 5.0):
            out = free_propagate(f, t)
            expected = (1 + 1j * t) ** -0.5 * np.exp(-g.x_1d**2 / (2 * (1 + 1j * t)))
            assert np.max(np.abs(out.values - expected)) < 1e-8
        # pin the propagated value at the frozen kernel-quadrature point
        out = free_propagate(f, 1.0)
        j = np.argmin(np.abs(g.x_1d - 0.625))
        assert g.x_1d[j] == pytest.approx(0.625, abs=1e-12)
        assert out.values[j] == pytest.approx(0.7297051591590996 - 0.2217668891439596j, abs=1e-10)

    def test_unitarity(self):
        g = Grid(1, 256, 10.0)
        f = random_field(g, seed=7)
        out = free_propagate(f, 3.7)
        n0 = np.linalg.norm(f.values)
        assert abs(np.linalg.norm(out.values) - n0) / n0 < 1e-12

    def test_group_law(self):
        g = Grid(1, 128, 10.0)
        f = random_field(g, seed=8)
        a = free_propagate(free_propagate(f, 1.3), 2.1)
        b = free_propagate(f, 3.4)
        assert np.max(np.abs(a.values - b.values)) / np.max(np.abs(f.values)) < 1e-12

    def test_inverse(self):
        g = Grid(2, 32, 6.0)
        f = random_field(g, seed=9)
        out = free_propagate(free_propagate(f, 2.2), -2.2)
        assert np.max(np.abs(out.values - f.values)) / np.max(np.abs(f.values)) < 1e-12

    def test_commutes_with_transform(self):
        g = Grid(1, 128, 9.0)
        f = random_field(g, seed=10)
        t = 1.9
        a = fourier_forward(free_propagate(f, t))
        b = fourier_forward(f)
        b.values *= np.exp(-0.5j * t * g.abs_xi_sq)
        assert np.max(np.abs(a.values - b.values)) / np.max(np.abs(b.values)) < 1e-12

    @pytest.mark.parametrize("g", [Grid(1, 64, 8.0), Grid(2, 32, 6.0), Grid(3, 16, 5.0)],
                             ids=lambda g: f"d{g.d}")
    @pytest.mark.parametrize("t", [0.005, -1.3, 4.0])
    def test_matches_monotone_order_oracle(self, g, t):
        # F^{-1}[exp(-i t |xi|^2 / 2) F u] through the public unitary transform
        f = random_field(g, seed=g.d)
        f_before = f.values.copy()
        want = apply_multiplier(f, np.exp(-0.5j * t * g.abs_xi_sq)).values
        got = free_propagate(f, t).values
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.array_equal(f.values, f_before)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("t", [0.0, 0.7, -1.3])
    def test_returns_a_new_array_and_keeps_its_input(self, d, t):
        g = Grid(d, 64 if d == 1 else 32, 8.0)
        f = random_field(g, seed=d)
        f_before = f.values.copy()
        out = free_propagate(f, t)
        assert out.grid == g and out.space is Space.PHYSICAL
        assert not np.shares_memory(out.values, f.values)
        assert np.array_equal(f.values, f_before)
        want = out.values.copy()
        # writing into a result reaches neither the input nor the cached multiplier
        out.values[...] = 0.0
        assert np.array_equal(f.values, f_before)
        assert np.array_equal(free_propagate(f, t).values, want)

    @pytest.mark.parametrize("n", [64, 4096])
    @pytest.mark.parametrize("t", [0.005, -1.3, 33.7])
    def test_one_dimensional_path_equals_fftn_path(self, n, t):
        # the 1-D transforms and the 1-D phase factor change no bit
        g = Grid(1, n, 40.0)
        f = random_field(g, seed=n)
        want = np.fft.ifftn(np.exp(-0.5j * t * g.abs_xi_sq) * np.fft.fftn(f.values))
        assert np.array_equal(free_propagate(f, t).values, want)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, 1e308])
    def test_rejects_non_finite_time(self, t):
        f = random_field(Grid(1, 32, 4.0))
        with pytest.raises(ValueError):
            free_propagate(f, t)

    def test_multiplier_values(self):
        g, other_L = Grid(2, 16, 4.0), Grid(2, 16, 5.0)
        m = g.free_multiplier(0.01)
        assert np.array_equal(Grid(2, 16, 4.0).free_multiplier(0.01), m)
        with pytest.raises(ValueError):
            m[0, 0] = 1
        assert not np.array_equal(g.free_multiplier(0.02), m)
        assert not np.array_equal(other_L.free_multiplier(0.01), g.free_multiplier(0.01))

    @pytest.mark.parametrize("g", [Grid(1, 64, 8.0), Grid(2, 16, 4.0), Grid(3, 8, 0.5)])
    def test_multiplier_overflow_edge(self, g):
        # the largest t whose lattice phase is finite, found with the whole-lattice check
        edge = np.finfo(float).max / float(g.xi_1d[g.n // 2]) ** 2 * 2.0
        while lattice_phase_overflows(g, edge):
            edge = np.nextafter(edge, 0.0)
        while not lattice_phase_overflows(g, np.nextafter(edge, np.inf)):
            edge = np.nextafter(edge, np.inf)
        for sign in (1.0, -1.0):
            assert np.isfinite(g.free_multiplier(sign * edge)).all()
            with pytest.raises(ValueError, match="overflows the phase"):
                g.free_multiplier(sign * np.nextafter(edge, np.inf))

    @pytest.mark.parametrize("g", [Grid(1, 64, 8.0), Grid(2, 16, 4.0), Grid(1, 8, 1e-300)])
    def test_multiplier_check_is_the_whole_lattice_check(self, g):
        # the Nyquist angle decides as the finiteness of every lattice value does,
        # for an infinite or NaN t too, and on a grid whose |xi|^2 overflows
        ts = [0.0, *np.geomspace(1e-300, 1.7e308, 400), np.inf, np.nan]
        for t in [*ts, *(-t for t in ts)]:
            overflows = lattice_phase_overflows(g, t)
            try:
                g.free_multiplier(t)
            except ValueError:
                assert overflows, t
            else:
                assert not overflows, t

    def test_back_propagation_leaves_the_multiplier_unchanged(self):
        g = Grid(1, 64, 8.0)
        m = g.free_multiplier(0.005)
        for t in (0.3, 0.7, 1.1):
            g.norms(random_field(g).values, t, 1.0)
        assert np.array_equal(g.free_multiplier(0.005), m)


class TestGauge:
    def test_round_trip(self):
        g = Grid(1, 128, 8.0)
        f = random_field(g, seed=12)
        out = gauge_multiply(gauge_multiply(f, 0.7), 0.7, inverse=True)
        assert np.max(np.abs(out.values - f.values)) < 1e-14

    def test_modulus_preserved(self):
        g = Grid(2, 16, 4.0)
        f = random_field(g, seed=13)
        out = gauge_multiply(f, 1.4)
        assert np.max(np.abs(np.abs(out.values) - np.abs(f.values))) < 1e-14

    @pytest.mark.parametrize("t", [0.0, -1.0])
    def test_requires_positive_time(self, t):
        g = Grid(1, 16, 2.0)
        with pytest.raises(ValueError):
            gauge_multiply(gaussian_field(g), t)

    @pytest.mark.parametrize("s", [1.2, 2.0])
    def test_factorization_identity(self, s):
        # U(t) |x|^s U(t)^{-1} f  ==  M(t) (-t^2 Lap)^{s/2} M(t)^{-1} f.
        # The two sides are built from independent primitives (free flow +
        # pointwise weight vs gauge factor + spectral fractional Laplacian).
        # A modulated Gaussian keeps the field away from the |x|^s kink and
        # its spectrum away from the |xi|^s kink, so the comparison is clean.
        t, k0 = 1.0, 10.0
        g = Grid(1, 2048, 30.0)
        phi = gaussian_field(g, k0=k0)
        back = free_propagate(phi, -t)
        weighted = ComplexField(g, Space.PHYSICAL, np.abs(g.x_1d) ** s * back.values)
        lhs = free_propagate(weighted, t)
        m_inv = gauge_multiply(phi, t, inverse=True)
        frac = apply_multiplier(m_inv, lambda xi: (t * t * xi * xi) ** (s / 2.0))
        rhs = gauge_multiply(frac, t)
        scale = np.max(np.abs(lhs.values))
        assert np.max(np.abs(lhs.values - rhs.values)) / scale < 1e-6


class TestPowerMap:
    def test_zero(self):
        assert g_p(0.0, 1.5) == 0.0
        assert g_p(0.0 + 0.0j, 2.7) == 0.0

    def test_cubic_example(self):
        # p = 3: |1+i|^2 (1+i) = 2 + 2i
        assert g_p(1 + 1j, 3.0) == pytest.approx(2 + 2j)

    def test_requires_p_above_one(self):
        with pytest.raises(ValueError):
            g_p(1.0, 1.0)

    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0])
    def test_lipschitz_bound(self, p):
        # |G_p(z) - G_p(w)| <= p (|z|+|w|)^{p-1} |z-w| on 1e5 random pairs
        rng = np.random.default_rng(hash(p) % 2**32)
        z = rng.standard_normal(100_000) + 1j * rng.standard_normal(100_000)
        w = rng.standard_normal(100_000) + 1j * rng.standard_normal(100_000)
        lhs = np.abs(g_p(z, p) - g_p(w, p))
        rhs = p * (np.abs(z) + np.abs(w)) ** (p - 1) * np.abs(z - w)
        assert np.all(lhs <= rhs * (1 + 1e-12))


class TestNonlinearFlow:
    def test_amplifying_example(self):
        # lam = i, b = 1: |w(dt)| = |z| / (1 - |z| dt), phase frozen
        params = params_for(1j, b=1.0)
        w = nonlinear_flow_exact(1.0 + 0.0j, 0.5, params)
        assert abs(w) == pytest.approx(2.0, rel=1e-14)
        assert np.angle(w) == pytest.approx(0.0, abs=1e-14)

    def test_real_lambda_rotates(self):
        params = params_for(1.0 + 0.0j, b=1.0)
        z = 0.7 * np.exp(0.3j)
        w = nonlinear_flow_exact(z, 2.0, params)
        assert abs(w) == pytest.approx(abs(z), rel=1e-14)
        assert np.angle(w) == pytest.approx(0.3 - abs(z) * 2.0, abs=1e-12)

    def test_blowup_at_denominator_zero(self):
        params = params_for(1j, b=1.0)
        with pytest.raises(PointwiseBlowUp):
            nonlinear_flow_exact(1.0 + 0.0j, 1.0, params)

    def test_horizon(self):
        params = params_for(2j, b=1.0)
        assert blowup_horizon(1.0, params) == pytest.approx(0.5)
        assert blowup_horizon(0.0, params) == np.inf
        assert blowup_horizon(1.0, params_for(-1j, b=1.0)) == np.inf

    @pytest.mark.parametrize("lam, theta, d", [
        (1j, 0.5, 1), (1j, 0.5, 2), (2.5j + 0.3, 0.75, 2), (1j, 1.0, 1), (1j, 0.9, 3),
        (1j, 0.25, 1), (-1j, 0.5, 1), (1.0, 0.5, 1)])
    def test_float_horizon_is_the_zero_d_result(self, lam, theta, d):
        # the run loop's Python-float path and numpy's 0-d path agree bit for bit,
        # also where x**b overflows, underflows or is not finite
        params = NonlinearityParams(lam=lam, theta=theta, d=d)
        rng = np.random.default_rng(7)
        xs = [*rng.uniform(0.0, 5e3, 2000), *10.0 ** rng.uniform(-300.0, 300.0, 2000),
              0.0, -0.0, -3.0, 5e-324, 1.7e308, np.inf, np.nan]
        for x in map(float, xs):
            with np.errstate(over="ignore", invalid="ignore"):
                want = blowup_horizon(np.array(x), params)
            got = blowup_horizon(x, params)
            assert type(got) is float
            assert got == want or (np.isnan(got) and np.isnan(want)), x

    def test_zero_stays_zero(self):
        params = params_for(1j, b=0.8)
        assert nonlinear_flow_exact(0.0 + 0.0j, 5.0, params) == 0.0

    @given(
        st.floats(0.01, 0.39),
        st.floats(0.01, 0.39),
        st.floats(-2.0, 2.0),
        st.floats(0.3, 2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_semigroup(self, f1, f2, re_lam, b):
        params = params_for(complex(re_lam, 1.0), b=b)
        z = 0.9 * np.exp(0.7j)
        # steps are fractions of the pointwise horizon, so no blow-up occurs
        hor = blowup_horizon(z, params)
        dt1, dt2 = f1 * hor, f2 * hor
        w_two = nonlinear_flow_exact(nonlinear_flow_exact(z, dt1, params), dt2, params)
        w_one = nonlinear_flow_exact(z, dt1 + dt2, params)
        assert abs(w_two - w_one) / abs(w_one) < 1e-12

    @given(st.floats(0.05, 0.9), st.floats(0.2, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_modulus_monotone_in_sign_of_mu(self, frac, b):
        z = 1.0 + 0.5j
        dt = frac * blowup_horizon(z, params_for(0.3 + 1j, b=b))
        grow = nonlinear_flow_exact(z, dt, params_for(0.3 + 1j, b=b))
        decay = nonlinear_flow_exact(z, dt, params_for(0.3 - 1j, b=b))
        neutral = nonlinear_flow_exact(z, dt, params_for(0.3 + 0j, b=b))
        assert abs(grow) > abs(z)
        assert abs(decay) < abs(z)
        assert abs(neutral) == pytest.approx(abs(z), rel=1e-14)

    def test_against_adaptive_ode(self):
        # independent oracle: high-order adaptive integration of the pointwise ODE
        rng = np.random.default_rng(42)
        params_draws = []
        for _ in range(20):
            b = rng.uniform(0.2, 2.0)
            lam = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2.0))
            z = rng.uniform(0.2, 1.2) * np.exp(1j * rng.uniform(-np.pi, np.pi))
            params = params_for(lam, b=b)
            dt = 0.5 * blowup_horizon(z, params)
            params_draws.append((z, dt, params))

        for z, dt, params in params_draws:
            def rhs(t, y):
                w = y[0] + 1j * y[1]
                dw = -1j * params.lam * abs(w) ** params.b * w
                return [dw.real, dw.imag]

            sol = solve_ivp(rhs, (0.0, dt), [z.real, z.imag], method="DOP853",
                            rtol=1e-12, atol=1e-14)
            w_ode = sol.y[0, -1] + 1j * sol.y[1, -1]
            w_exact = nonlinear_flow_exact(z, dt, params)
            assert abs(w_ode - w_exact) / abs(w_exact) < 1e-10

    @pytest.mark.parametrize("b", [0.5, 1.0, 4.0 / 3.0])
    @pytest.mark.parametrize("lam", [1j, 0.4j, -1j, 0.3 + 1j, -0.7 - 0.5j, 0.8 + 0j])
    def test_matches_general_closed_form_bit_for_bit(self, b, lam):
        # Re(lam) = 0 skips the phase factor exp(0j) == 1; every other
        # branch is the closed form as written, with the modulus factor
        # denom^(-1/b) taken as (1/denom)^(1/b), and as denom^(-1) at b = 1
        params = params_for(lam, b=b)
        rng = np.random.default_rng(7)
        z = 0.8 * (rng.standard_normal(200) + 1j * rng.standard_normal(200))
        z[:3] = 0.0
        mu, alpha = params.mu, lam.real
        dt = 0.4 / (b * max(abs(mu), 1.0) * np.max(np.abs(z)) ** b)
        az_b = np.abs(z) ** b
        if mu == 0.0:
            want = z * np.exp(-1j * alpha * az_b * dt)
        else:
            denom = 1.0 - b * mu * az_b * dt
            modulus = denom**-1.0 if b == 1.0 else (1.0 / denom) ** (1.0 / b)
            want = z * modulus * np.exp(1j * (alpha / (b * mu)) * np.log(denom))
        assert np.array_equal(nonlinear_flow_exact(z, dt, params), want)

    def test_vectorized_matches_scalar(self):
        params = params_for(0.5 + 1j, b=1.2)
        rng = np.random.default_rng(3)
        z = rng.standard_normal(40) * 0.3 + 1j * rng.standard_normal(40) * 0.3
        dt = 0.2
        vec = nonlinear_flow_exact(z, dt, params)
        for j in range(0, 40, 7):
            assert vec[j] == pytest.approx(nonlinear_flow_exact(complex(z[j]), dt, params), rel=1e-14)

    @pytest.mark.parametrize("lam", [1j, 0.8 + 0j, 0.3 + 1j],
                             ids=["re-lam-zero", "im-lam-zero", "both-nonzero"])
    def test_dt_array_broadcasts_against_z(self, lam):
        params = params_for(lam, b=0.8)
        z = np.array([[0.4 + 0.1j], [0.0], [-0.3j]])
        dts = np.linspace(0.0, 0.5, 7)
        grid_vals = nonlinear_flow_exact(z, dts, params)
        assert grid_vals.shape == (3, 7)
        for i in range(3):
            for k in range(7):
                want = nonlinear_flow_exact(complex(z[i, 0]), float(dts[k]), params)
                assert grid_vals[i, k] == pytest.approx(want, rel=1e-14, abs=1e-300)
        scalar_z = nonlinear_flow_exact(0.4 + 0.1j, dts, params)
        assert scalar_z == pytest.approx(grid_vals[0], rel=1e-14, abs=0.0)

    def test_negative_dt_rejected_as_float_or_array(self):
        params = params_for(1j, b=1.0)
        with pytest.raises(ValueError, match="substep length"):
            nonlinear_flow_exact(0.5, -0.1, params)
        with pytest.raises(ValueError, match="substep length"):
            nonlinear_flow_exact(0.5, np.array([0.1, -0.1]), params)

    def test_dt_array_blowup_carries_the_horizon(self):
        # |z| = 1, b = 1, Im lam = 1: the horizon is 1, past the last dt
        params = params_for(1j, b=1.0)
        with pytest.raises(PointwiseBlowUp) as info:
            nonlinear_flow_exact(1.0, np.array([0.5, 1.5]), params)
        assert info.value.earliest == 1.0


class TestCoefficientClock:
    @pytest.mark.parametrize("a", [0.25, 0.5, 0.75, 1.5])
    def test_closed_form_and_inverse(self, a):
        t0, t1 = 0.7, np.array([1.3, 9.0])
        tau = coefficient_integral(t0, t1, a)
        assert tau == pytest.approx((t1 ** (1 - a) - t0 ** (1 - a)) / (1 - a), rel=1e-14)
        assert coefficient_time(t0, tau, a) == pytest.approx(t1, rel=1e-14)

    @pytest.mark.parametrize("a", [0.3, 0.5, 1.0])
    def test_sign_and_small_intervals(self, a):
        # exactly 0 at t1 = t0 and negative below it, on any array length; a
        # substep of 1e-12 keeps its relative accuracy (no power cancellation)
        t0 = 1.7
        for n in (1, 3, 17, 100):
            assert np.all(coefficient_integral(t0, np.full(n, t0), a) == 0.0)
            assert np.all(coefficient_integral(t0, np.full(n, np.nextafter(t0, 0.0)), a) < 0.0)
        t1 = t0 + 1e-12
        dt = t1 - t0  # exact
        tau = dt * t0**-a * (1.0 - 0.5 * a * dt / t0)
        assert coefficient_integral(t0, t1, a) == pytest.approx(tau, rel=1e-14, abs=0.0)
        assert coefficient_time(t0, tau, a) == pytest.approx(t1, rel=1e-15, abs=0.0)

    def test_critical_clock_is_the_logarithm(self):
        assert coefficient_integral(2.0, 2.0 * np.e**3, 1.0) == pytest.approx(3.0, rel=1e-15)
        assert coefficient_time(2.0, 3.0, 1.0) == pytest.approx(2.0 * np.e**3, rel=1e-15)

    def test_clock_from_zero(self):
        # tau = t^(1-a)/(1-a) from 0, and the inverse starts at 0 as well
        assert coefficient_integral(0.0, 4.0, 0.5) == 4.0
        assert coefficient_time(0.0, 4.0, 0.5) == 4.0
        assert coefficient_time(0.0, np.inf, 0.5) == np.inf

    def test_flow_on_the_clock_solves_the_time_dependent_ode(self):
        # i w' = lam t^(-a) |w|^b w from t0: the pointwise flow over tau(t0, t)
        a, t0, t1 = 0.4, 0.5, 3.0
        params = params_for(0.6 + 0.8j, b=0.9)
        z = 0.5 * np.exp(0.3j)

        def rhs(t, y):
            w = y[0] + 1j * y[1]
            dw = -1j * params.lam * t ** (-a) * abs(w) ** params.b * w
            return [dw.real, dw.imag]

        sol = solve_ivp(rhs, (t0, t1), [z.real, z.imag], method="DOP853",
                        rtol=1e-12, atol=1e-14)
        w_ode = sol.y[0, -1] + 1j * sol.y[1, -1]
        w_clock = nonlinear_flow_exact(z, coefficient_integral(t0, t1, a), params)
        assert abs(w_ode - w_clock) / abs(w_clock) < 1e-10


# the three branches of the exact flow: no phase, no gain, and both
LAMBDA_BRANCHES = [1j, 0.8 + 0j, 0.3 + 1j]
LAMBDA_IDS = ["re-lam-zero", "im-lam-zero", "both-nonzero"]


class TestBufferedForms:
    """The out= forms give the out-of-place values bit for bit, into a separate
    buffer or in place, and leave a separate input untouched."""

    @staticmethod
    def field_and_step(d, lam):
        grid = Grid(d, 64 if d == 1 else 32, 8.0)
        params = NonlinearityParams(lam=lam, theta=0.5, d=d)
        z = 0.5 * random_field(grid, seed=d).values
        z[(0,) * d] = 0.0
        # a step inside every pointwise horizon: b |Im lam| |z|^b dt <= 0.3 b < 1
        return grid, params, z, 0.3 / np.max(np.abs(z)) ** params.b

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("lam", LAMBDA_BRANCHES, ids=LAMBDA_IDS)
    def test_nonlinear_flow_out_matches_out_of_place(self, d, lam):
        _, params, z, dt = self.field_and_step(d, lam)
        want = nonlinear_flow_exact(z, dt, params)
        z_before = z.copy()
        out, scratch = np.empty_like(z), np.empty(z.shape)
        assert nonlinear_flow_exact(z, dt, params, out=out, scratch=scratch) is out
        assert np.array_equal(out, want)
        assert np.array_equal(z, z_before)
        w = z.copy()
        assert nonlinear_flow_exact(w, dt, params, out=w, scratch=scratch) is w
        assert np.array_equal(w, want)
        # a shared |z|^b gives the same values and is only read
        abs_b = np.abs(z) ** params.b
        abs_b_before = abs_b.copy()
        got = nonlinear_flow_exact(z, dt, params, out=out, scratch=scratch, abs_b=abs_b)
        assert np.array_equal(got, want)
        assert np.array_equal(abs_b, abs_b_before)

    def test_blowup_check_passes_over_nan_and_empty_input(self):
        params = params_for(1j, b=1.0)
        # a NaN sample blows up nowhere, but it does not hide one that does
        w = nonlinear_flow_exact(np.array([np.nan, 0.5]), 1.0, params)
        assert np.isnan(w[0]) and w[1] == 1.0
        with pytest.raises(PointwiseBlowUp):
            nonlinear_flow_exact(np.array([np.nan, 2.0]), 1.0, params)
        assert nonlinear_flow_exact(np.array([], dtype=complex), 1.0, params).shape == (0,)

    @pytest.mark.parametrize("d", [1, 2])
    def test_blowup_leaves_the_input_untouched(self, d):
        _, params, z, dt = self.field_and_step(d, 1j)
        z_before = z.copy()
        scratch = np.empty(z.shape)
        # 10 dt is past the horizon 1 / (b |z|^b) of the largest sample
        with pytest.raises(PointwiseBlowUp):
            nonlinear_flow_exact(z, 10.0 * dt, params, out=z, scratch=scratch)
        assert np.array_equal(z, z_before)


class TestParams:
    def test_derived_exponents(self):
        p = NonlinearityParams(lam=1j, theta=0.5, d=1)
        assert p.b == pytest.approx(1.0)
        assert p.p == pytest.approx(2.0)
        q = NonlinearityParams(lam=1j, theta=1.0, d=2)
        assert q.b == pytest.approx(1.0)

    @pytest.mark.parametrize("theta,d", [(0.0, 1), (1.5, 1), (0.5, 4)])
    def test_rejects_out_of_range(self, theta, d):
        with pytest.raises(ValueError):
            NonlinearityParams(lam=1j, theta=theta, d=d)

    @pytest.mark.parametrize("lam", [complex(0.0, np.inf), complex(np.nan, 1.0), np.inf])
    def test_rejects_non_finite_lam(self, lam):
        with pytest.raises(ValueError, match="lam must be finite"):
            NonlinearityParams(lam=lam, theta=0.5, d=1)


REMAINDER_GRIDS = {1: Grid(1, 256, 20.0), 2: Grid(2, 32, 8.0), 3: Grid(3, 16, 6.0)}


class TestRemainderSup:
    """remainder_sup is sup|R| of the complex remainder with its unit-modulus factors
    (the back-propagation phase, the sign vector and lam's phase) taken out."""

    @pytest.mark.parametrize("theta", [0.25, 0.5, 0.75, 1.0])
    @pytest.mark.parametrize("lam", [1j, -3 + 1j, 3 + 1j, 1.0], ids=["i", "-3+i", "3+i", "1"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_equals_the_sup_of_the_remainder(self, d, lam, theta):
        grid = REMAINDER_GRIDS[d]
        params = NonlinearityParams(lam=lam, theta=theta, d=d)
        # a moving Gaussian plus noise: every mode of R is nonzero
        u = ComplexField(grid, Space.PHYSICAL, 0.5 * gaussian_field(grid, k0=0.7).values
                         + 0.05 * random_field(grid, seed=d).values)
        for t in (0.3, 2.5, 40.0):
            want = grid.modulus(remainder(u, t, params).values)[1]
            assert want > 0
            assert remainder_sup(u, t, params) == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_zero_field_gives_zero_without_a_warning(self, d):
        # tier-1 turns a RuntimeWarning into an error: 0^b and the max raise none
        grid = REMAINDER_GRIDS[d]
        zero = ComplexField(grid, Space.PHYSICAL, np.zeros(grid.shape, dtype=complex))
        assert remainder_sup(zero, 1.0, NonlinearityParams(lam=1j, theta=0.5, d=d)) == 0.0

    @pytest.mark.parametrize("t", [0.0, -1.0, np.nan])
    def test_requires_positive_time(self, t):
        grid = REMAINDER_GRIDS[1]
        params = NonlinearityParams(lam=1j, theta=0.5, d=1)
        for fn in (remainder, remainder_sup):
            with pytest.raises(ValueError, match="remainder requires t > 0"):
                fn(gaussian_field(grid), t, params)

    def test_reads_its_field_without_writing_it(self):
        grid = REMAINDER_GRIDS[2]
        u = gaussian_field(grid, k0=0.7)
        u.values.flags.writeable = False
        before = u.values.copy()
        remainder_sup(u, 2.0, NonlinearityParams(lam=1j, theta=0.5, d=2))
        assert np.array_equal(u.values, before)
