"""Grid, transform convention, and weighted-norm checks."""

import ast
from pathlib import Path

import numpy as np
import pytest

from nlslab import spectral
from nlslab.initial_data import gaussian
from nlslab import (
    ComplexField,
    Grid,
    NormReport,
    Space,
    fourier_forward,
    fourier_inverse,
)


PACKAGE = Path(spectral.__file__).parent


def read_names(node):
    """The names that `node` reads or defines: an attribute, a name, the modules and
    names of an import, or the name of a function or class."""
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.ImportFrom):
        return [node.module or "", *(a.name for a in node.names)]
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    return []


def gaussian_field(grid, width=1.0):
    r2 = grid.abs_x_sq
    return ComplexField(grid, Space.PHYSICAL, np.exp(-r2 / (2.0 * width**2)))


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return ComplexField(grid, Space.PHYSICAL, v)


class TestGrid:
    def test_invariants(self):
        g = Grid(1, 64, 10.0)
        assert g.h == pytest.approx(20.0 / 64)
        assert len(g.x_1d) == g.n and len(g.xi_1d) == g.n
        assert g.num_points == 64
        # Nyquist frequency pi/h is the largest |xi| on the lattice
        assert np.max(np.abs(g.xi_1d)) == pytest.approx(np.pi / g.h, rel=1e-14)

    def test_lattice_sizes_multi_d(self):
        g = Grid(2, 16, 5.0)
        assert g.shape == (16, 16)
        # the meshes are sparse: each holds its axis and broadcasts to the grid's shape
        assert [x.shape for x in g.x_mesh] == [(16, 1), (1, 16)]
        assert np.broadcast_shapes(*(x.shape for x in g.x_mesh)) == g.shape
        assert g.num_points == 256

    @pytest.mark.parametrize("g", [Grid(1, 32, 3.0), Grid(2, 16, 4.0), Grid(3, 8, 2.5)],
                             ids=lambda g: f"d{g.d}")
    def test_sparse_meshes_give_the_full_meshgrid_values_bit_for_bit(self, g):
        # every value built on the broadcast meshes and the per-axis sign equals the
        # one built on full meshgrid arrays and a grid-sized (-1)^(k_1+...+k_d)
        x = np.meshgrid(*[g.x_1d] * g.d, indexing="ij")
        xi = np.meshgrid(*[g.xi_1d] * g.d, indexing="ij")
        k = np.meshgrid(*[np.arange(g.n)] * g.d, indexing="ij")
        sign = (-1.0) ** sum(k)

        def same(got, want):
            return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()

        assert same(g.abs_x_sq, sum(c**2 for c in x))
        assert same(g.abs_xi_sq, sum(c**2 for c in xi))
        tail, shell = np.zeros(g.shape, dtype=bool), np.zeros(g.shape, dtype=bool)
        for c, ci in zip(x, xi):
            tail |= np.abs(ci) > (2.0 / 3.0) * np.pi / g.h
            shell |= np.abs(c) >= 0.9 * g.L
        assert same(g._tail_mask, tail) and same(g._shell_mask, shell)
        f = random_field(g, seed=g.d)
        scale = g.h**g.d / (2.0 * np.pi) ** (g.d / 2.0)
        assert same(fourier_forward(f).values, scale * sign * np.fft.fftn(f.values))
        fh = ComplexField(g, Space.FREQUENCY, f.values)
        inverse_scale = (2.0 * np.pi) ** (g.d / 2.0) / g.h**g.d
        assert same(fourier_inverse(fh).values, inverse_scale * np.fft.ifftn(sign * fh.values))
        center, k0, width = 0.4, [0.7, -0.3, 1.1][:g.d], 1.3
        env = 1.0 * np.exp(-sum((c - center) ** 2 for c in x) / (2.0 * width**2))
        want = env * np.exp(1j * sum(kc * c for kc, c in zip(k0, x)))
        assert same(gaussian(g, width, center=center, modulation=k0).values, want)

    @pytest.mark.parametrize("bad", [(0, 64, 10.0), (4, 64, 10.0), (1, 48, 10.0), (1, 4, 10.0), (1, 64, 0.0),
                                     (1, 2**25, 1.0), (2, 8192, 1.0), (3, 512, 1.0), (1, 2**40, 1.0),
                                     (1, 2**1100, 1.0), (1, 64, float("inf"))])
    def test_rejects_bad_parameters(self, bad):
        with pytest.raises(ValueError):
            Grid(*bad)

    @pytest.mark.parametrize("d, n", [(1, 2**24), (2, 4096), (3, 256)])
    def test_admits_2_to_the_24_points(self, d, n):
        assert Grid(d, n, 1.0).num_points == 2**24

    def test_field_shape_mismatch(self):
        g = Grid(1, 16, 2.0)
        with pytest.raises(ValueError):
            ComplexField(g, Space.PHYSICAL, np.zeros(8, dtype=complex))


class TestFourier:
    def test_gaussian_self_reciprocal(self):
        # e^{-|x|^2/2} is a fixed point of the unitary transform
        g = Grid(1, 128, 10.0)
        fh = fourier_forward(gaussian_field(g))
        assert np.max(np.abs(fh.values - np.exp(-g.xi_1d**2 / 2))) < 1e-10

    def test_gaussian_self_reciprocal_2d(self):
        g = Grid(2, 64, 10.0)
        fh = fourier_forward(gaussian_field(g))
        expected = np.exp(-g.abs_xi_sq / 2)
        assert np.max(np.abs(fh.values - expected)) < 1e-10

    def test_shift_theorem(self):
        g = Grid(1, 128, 10.0)
        f = gaussian_field(g)
        shift_cells = 7
        a = shift_cells * g.h
        shifted = ComplexField(g, Space.PHYSICAL, np.roll(f.values, shift_cells))
        lhs = fourier_forward(shifted).values
        rhs = np.exp(-1j * a * g.xi_1d) * fourier_forward(f).values
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    @pytest.mark.parametrize("d", [2, 3])
    def test_modulated_gaussian_matches_analytic_transform(self, d):
        # F[e^{-|x|^2/2 + i k0.x}](xi) = e^{-|xi - k0|^2/2}; k0 breaks every
        # symmetry of the lattice, so a misplaced frequency shows
        g = Grid(d, 64, 8.0)
        k0 = [1.0, -0.5, 0.75][:d]
        phase = sum(k * x for k, x in zip(k0, g.x_mesh))
        f = ComplexField(g, Space.PHYSICAL, np.exp(-g.abs_x_sq / 2 + 1j * phase))
        want = np.exp(-sum((xi - k) ** 2 for k, xi in zip(k0, g.xi_mesh)) / 2)
        assert np.max(np.abs(fourier_forward(f).values - want)) < 1e-10

    @pytest.mark.parametrize("d,n,L", [(1, 64, 7.0), (1, 1024, 40.0), (2, 32, 5.0), (3, 16, 3.0)])
    def test_round_trip_and_parseval_random(self, d, n, L):
        g = Grid(d, n, L)
        f = random_field(g, seed=d * 100 + n)
        fh = fourier_forward(f)
        back = fourier_inverse(fh)
        scale = np.max(np.abs(f.values))
        assert np.max(np.abs(back.values - f.values)) / scale < 1e-12
        # Parseval: the quadrature weights are h^d and dxi^d
        l2 = np.sqrt(g.h**d * np.sum(np.abs(f.values) ** 2))
        l2_hat = np.sqrt(g.dxi**d * np.sum(np.abs(fh.values) ** 2))
        assert abs(l2_hat - l2) / l2 < 1e-12

    @pytest.mark.parametrize("d,n", [(1, 64), (1, 4096), (2, 32), (2, 128), (3, 16)])
    def test_dft_is_fftn(self, d, n):
        # into a fresh array, a caller's buffer or in place: the bits of numpy's own call
        v = random_field(Grid(d, n, 5.0), seed=n).values
        for transform, numpy_transform in ((spectral.dft, np.fft.fftn), (spectral.idft, np.fft.ifftn)):
            want = numpy_transform(v)
            assert np.array_equal(transform(v), want)
            assert np.array_equal(transform(v, out=np.empty_like(v)), want)
            in_place = v.copy()
            assert transform(in_place, out=in_place) is in_place
            assert np.array_equal(in_place, want)

    def test_no_other_module_calls_np_fft(self):
        # the buffer rule lives in dft/idft alone: any other transform would bypass it;
        # and the FFT index order too: no other module indexes the xi lattice
        callers = {path.name for path in PACKAGE.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text()))
                   if any(name.split(".")[-1] == "fft" for name in read_names(node))}
        assert callers == {"spectral.py"}
        indexers = {path.name for path in PACKAGE.glob("*.py")
                    for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Subscript) and read_names(node.value) == ["xi_1d"]}
        assert indexers == {"spectral.py"}

    def test_no_other_module_reads_the_lattice(self):
        # the run loop, the convergence study and the tests' fixed steps reach the grid
        # through Grid's methods alone: no other module reads the spacing h, the
        # unitary scale, the frequency lattice a multiplier or phase is built from, a
        # phase builder, a mask or the transforms, and the functions that moved into
        # Grid are defined nowhere else
        lattice = {"_unitary_scale", "dxi", "xi_1d", "xi_mesh", "abs_xi_sq", "_sign",
                   "_flip_signs", "_mirror_index", "_back_propagation_phase",
                   "_phase_overflows", "_free_multiplier", "_multiply_spectrum", "_modulus",
                   "_tail_mask", "_shell_mask", "_xi_weight", "_x_weight", "_abs_sq", "dft",
                   "idft"}
        paths = [*PACKAGE.glob("*.py"), Path(__file__).with_name("stepping.py")]
        readers = {}
        for path in paths:
            for node in ast.walk(ast.parse(path.read_text())):
                read = set(read_names(node)) & lattice
                if isinstance(node, ast.Attribute) and node.attr == "h":
                    read.add("h")
                if read:
                    readers.setdefault(path.name, set()).update(read)
        assert readers.keys() == {"spectral.py"}
        # the scan sees each kind of read
        probe = ("from .spectral import dft\nfrom nlslab import spectral\n"
                 "w = grid.h * spectral._back_propagation_phase(grid, t)\n"
                 "def _modulus(u): return u[grid._shell_mask]\n")
        seen = {name for node in ast.walk(ast.parse(probe)) for name in read_names(node)}
        assert {"dft", "_back_propagation_phase", "_modulus", "_shell_mask", "h"} <= seen

    def test_wrong_space_rejected(self):
        g = Grid(1, 16, 2.0)
        f = gaussian_field(g)
        fh = fourier_forward(f)
        with pytest.raises(ValueError):
            fourier_forward(fh)
        with pytest.raises(ValueError):
            fourier_inverse(f)


class TestNorms:
    def test_s0_reduces_to_l2(self):
        g = Grid(1, 128, 10.0)
        f = random_field(g, seed=11)
        rep = g.norms(f.values, t=0.0, s=0.0)
        assert rep.h_s0 == pytest.approx(rep.l2, rel=1e-12)
        assert rep.h_0s == pytest.approx(rep.l2, rel=1e-12)
        assert rep.sigma_s == pytest.approx(2 * rep.l2, rel=1e-12)

    def test_gaussian_s1_quadrature_oracle(self):
        # Frozen oracle: ||(1+x^2)^{1/2} e^{-x^2/2}||_2 = sqrt(1.5*sqrt(pi)),
        # confirmed by adaptive quadrature of (1+x^2) e^{-x^2} (rel err < 3e-8);
        # the transform side is identical because the Gaussian is self-reciprocal.
        expected = np.sqrt(1.5 * np.sqrt(np.pi))
        g = Grid(1, 256, 12.0)
        rep = g.norms(gaussian_field(g).values, t=0.0, s=1.0)
        assert rep.h_s0 == pytest.approx(expected, rel=1e-8)
        assert rep.h_0s == pytest.approx(expected, rel=1e-8)

    def test_homogeneity(self):
        g = Grid(1, 64, 8.0)
        f = random_field(g, seed=5)
        c = 2.7 - 0.3j
        r1 = g.norms(f.values, t=0.5, s=1.2)
        r2 = g.norms(c * f.values, t=0.5, s=1.2)
        for name in ("l2", "l_inf", "h_s0", "h_0s", "sigma_s"):
            assert getattr(r2, name) == pytest.approx(abs(c) * getattr(r1, name), rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone_in_s(self, seed):
        g = Grid(1, 64, 8.0)
        f = random_field(g, seed=seed)
        svals = sorted(np.random.default_rng(seed + 50).uniform(0.0, 2.0, size=3))
        reports = [g.norms(f.values, t=0.3, s=s) for s in svals]
        for lo, hi in zip(reports, reports[1:]):
            assert lo.h_s0 <= hi.h_s0 * (1 + 1e-12)
            assert lo.h_0s <= hi.h_0s * (1 + 1e-12)

    def test_l2_below_weighted(self):
        g = Grid(2, 32, 6.0)
        f = random_field(g, seed=9)
        rep = g.norms(f.values, t=0.0, s=0.7)
        assert rep.l2 <= rep.h_s0 * (1 + 1e-12)
        assert rep.l2 <= rep.h_0s * (1 + 1e-12)

    def test_t0_direct_quadrature(self):
        # at t = 0 the back-propagation is the identity, so h_0s is the
        # plain weighted quadrature of f itself
        g = Grid(1, 128, 9.0)
        f = random_field(g, seed=21)
        s = 0.8
        rep = g.norms(f.values, t=0.0, s=s)
        direct = np.sqrt(g.h * np.sum((1 + g.x_1d**2) ** s * np.abs(f.values) ** 2))
        assert rep.h_0s == pytest.approx(direct, rel=1e-12)

    def test_blown_up_field_flagged(self):
        g = Grid(1, 16, 2.0)
        vals = np.zeros(16, dtype=complex)
        vals[3] = np.inf
        rep = g.norms(vals, t=0.0, s=1.0)
        assert rep == NormReport(*[np.inf] * 5)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_time(self, t):
        g = Grid(1, 32, 4.0)
        with pytest.raises(ValueError, match="finite"):
            g.norms(random_field(g).values, t, 1.0)


class TestBackPropagationPhase:
    # t = 34.2 is about T_eps of the long 1-D benchmark run
    TIMES = (0.0, 0.7, 3.1, 34.2)

    @pytest.mark.parametrize("g", [Grid(1, 64, 8.0), Grid(1, 4096, 160.0)], ids=["n64", "n4096"])
    @pytest.mark.parametrize("t", TIMES)
    def test_d1_is_the_lattice_exponential(self, g, t):
        want = np.exp(0.5j * t * g.abs_xi_sq)
        assert np.array_equal(spectral._back_propagation_phase(g, t), want)

    @pytest.mark.parametrize("g", [Grid(2, 32, 6.0), Grid(2, 64, 4.0),
                                   Grid(3, 16, 5.0), Grid(3, 16, 1.5)],
                             ids=lambda g: f"d{g.d}-L{g.L}")
    @pytest.mark.parametrize("t", TIMES)
    def test_outer_product_matches_lattice_exponential(self, g, t):
        arg = 0.5 * t * g.abs_xi_sq
        want = np.exp(1j * arg)
        got = spectral._back_propagation_phase(g, t)
        assert got.shape == g.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        # pointwise, both sides round an angle of size arg: a few ulps of it
        assert np.all(np.abs(got - want) <= 1e-15 * (1.0 + arg))

    def test_large_phase_case_is_covered(self):
        # the L = 4 and L = 1.5 grids above reach phases beyond 1e4 rad at t = 34.2
        for g in (Grid(2, 64, 4.0), Grid(3, 16, 1.5)):
            assert 0.5 * 34.2 * g.abs_xi_sq.max() > 1e4

    def test_mirror_index_is_cached_read_only(self):
        g = Grid(2, 16, 3.0)
        idx = g._mirror_index
        assert idx is g._mirror_index
        assert list(idx) == [0, 1, 2, 3, 4, 5, 6, 7, 8, 7, 6, 5, 4, 3, 2, 1]
        with pytest.raises(ValueError):
            idx[0] = 1


class TestResample:
    @pytest.mark.parametrize("d", [1, 2])
    def test_band_limited_polynomial_reproduced_on_fine_grid(self, d):
        # modes up to the Nyquist wavenumber -n/2 of the coarse grid
        n, L = 16, 3.0
        rng = np.random.default_rng(d)
        modes = rng.integers(-n // 2, n // 2, size=(6, d))
        modes[0] = -n // 2
        coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)

        def poly(grid):
            return sum(c * np.exp(1j * np.pi / L * sum(k * x for k, x in zip(ks, grid.x_mesh)))
                       for c, ks in zip(coeffs, modes))

        coarse, fine = Grid(d, n, L), Grid(d, 2 * n, L)
        got = spectral._resample(ComplexField(coarse, Space.PHYSICAL, poly(coarse)), fine)
        assert got.grid == fine and got.space is Space.PHYSICAL
        want = poly(fine)
        assert np.max(np.abs(got.values - want)) < 1e-12 * np.max(np.abs(want))


class TestSupModulus:
    def test_gaussian_peak(self):
        g = Grid(1, 128, 10.0)
        fh = fourier_forward(gaussian_field(g))
        assert g.modulus(fh.values)[1] == pytest.approx(1.0, abs=1e-10)

    def test_homogeneity(self):
        g = Grid(1, 32, 4.0)
        f = random_field(g, seed=2)
        c = -3.5 + 1.2j
        scaled = ComplexField(g, Space.PHYSICAL, c * f.values)
        assert g.modulus(scaled.values)[1] == pytest.approx(abs(c) * g.modulus(f.values)[1],
                                                            rel=1e-14)

    def test_translated_bump(self):
        g = Grid(1, 128, 10.0)
        xi0 = g.xi_1d[len(g.xi_1d) // 2 + 10]  # on-lattice center
        vals = np.exp(-((g.xi_1d - xi0) ** 2))
        f = ComplexField(g, Space.FREQUENCY, vals)
        assert g.modulus(f.values)[1] == pytest.approx(1.0, abs=1e-14)


def tail_fraction(g, values):
    """:meth:`Grid.tail_fraction` of the field `values`, from its |dft|^2."""
    return g.tail_fraction(np.abs(np.fft.fftn(values)) ** 2)


def shell_fraction(g, values):
    """:meth:`Grid.shell_fraction` of the field `values`, from its |values|^2."""
    return g.shell_fraction(np.abs(values) ** 2)


class TestMonitors:
    def test_tail_fraction_smooth_vs_rough(self):
        g = Grid(1, 128, 10.0)
        smooth = gaussian_field(g).values
        assert tail_fraction(g, smooth) < 1e-12
        rng = np.random.default_rng(1)
        rough = rng.standard_normal(128) + 0j
        assert tail_fraction(g, rough) > 1e-3

    def test_shell_fraction(self):
        g = Grid(1, 128, 10.0)
        centered = gaussian_field(g).values
        assert shell_fraction(g, centered) < 1e-12
        edge = np.zeros(128, dtype=complex)
        edge[0] = 1.0  # x = -L sits in the outer shell
        assert shell_fraction(g, edge) == pytest.approx(1.0)

    def test_zero_field(self):
        g = Grid(1, 16, 2.0)
        z = np.zeros(16, dtype=complex)
        assert tail_fraction(g, z) == 0.0
        assert shell_fraction(g, z) == 0.0


# The formulas through the public unitary transform and the xi meshes, kept as
# oracles for the hot path's unscaled fftn and cached weights and masks.
def oracle_norms(f, t, s):
    g = f.grid
    fhat = fourier_forward(f)
    h_s0 = np.sqrt(g.dxi**g.d * np.sum((1.0 + g.abs_xi_sq) ** s * np.abs(fhat.values) ** 2))
    back = fourier_inverse(
        ComplexField(g, Space.FREQUENCY, np.exp(0.5j * t * g.abs_xi_sq) * fhat.values))
    h_0s = np.sqrt(g.h**g.d * np.sum((1.0 + g.abs_x_sq) ** s * np.abs(back.values) ** 2))
    l2 = np.sqrt(g.h**g.d * np.sum(np.abs(f.values) ** 2))
    return l2, h_s0, h_0s


def oracle_tail_fraction(f):
    g = f.grid
    fhat = fourier_forward(f)
    mask = np.zeros(g.shape, dtype=bool)
    for xi in g.xi_mesh:
        mask |= np.abs(xi) > (2.0 / 3.0) * np.pi / g.h
    return np.sum(np.abs(fhat.values[mask]) ** 2) / np.sum(np.abs(fhat.values) ** 2)


def oracle_shell_fraction(f):
    g = f.grid
    mask = np.zeros(g.shape, dtype=bool)
    for x in g.x_mesh:
        mask |= np.abs(x) >= 0.9 * g.L
    return np.sum(np.abs(f.values[mask]) ** 2) / np.sum(np.abs(f.values) ** 2)


ORACLE_GRIDS = [Grid(1, 64, 8.0), Grid(2, 32, 6.0), Grid(3, 16, 5.0)]


def wide_random_field(grid, seed=0):
    # a random field under a wide envelope, so every monitor sees mass
    env = np.exp(-grid.abs_x_sq / (0.5 * grid.L**2))
    return ComplexField(grid, Space.PHYSICAL, env * random_field(grid, seed).values)


class TestFftOrderOracles:
    @pytest.mark.parametrize("g", ORACLE_GRIDS, ids=lambda g: f"d{g.d}")
    @pytest.mark.parametrize("t, s", [(0.0, 1.0), (0.7, 1.2), (3.1, 0.6)])
    def test_norms(self, g, t, s):
        f = wide_random_field(g, seed=g.d)
        rep = g.norms(f.values, t, s)
        for got, want in zip((rep.l2, rep.h_s0, rep.h_0s), oracle_norms(f, t, s)):
            assert got == pytest.approx(want, rel=1e-13)
        assert rep.sigma_s == rep.h_s0 + rep.h_0s

    @pytest.mark.parametrize("g", ORACLE_GRIDS, ids=lambda g: f"d{g.d}")
    def test_monitors(self, g):
        f = wide_random_field(g, seed=10 + g.d)
        want = oracle_tail_fraction(f)
        assert want > 0.01
        assert tail_fraction(g, f.values) == pytest.approx(want, rel=1e-13)
        want = oracle_shell_fraction(f)
        assert want > 1e-6
        # same mask and summation order as the oracle: bit-identical
        assert shell_fraction(g, f.values) == want

    def test_shared_spectrum_is_exact(self):
        g = ORACLE_GRIDS[1]
        f = wide_random_field(g)
        spectrum = np.fft.fftn(f.values)
        spectral_power = np.abs(spectrum) ** 2
        want = g.norms(f.values, 0.9, 1.1)
        assert g.norms(f.values, 0.9, 1.1, spectrum=spectrum) == want
        assert (g.sample_norms(f.values, 0.9, 1.1, l2=want.l2, sup=g.modulus(f.values)[1])
                == (want, g.tail_fraction(spectral_power)))

    @pytest.mark.parametrize("g", ORACLE_GRIDS, ids=lambda g: f"d{g.d}")
    def test_shared_moduli_are_exact(self, g):
        f = wide_random_field(g)
        spectrum = np.fft.fftn(f.values)
        power = np.abs(f.values) ** 2
        l2 = float(np.sqrt(g.h**g.d * np.sum(power)))
        assert g.norms(f.values, 0.9, 1.1, spectrum=spectrum,
                       spectral_power=np.abs(spectrum) ** 2,
                       l2=l2, sup=g.modulus(f.values)[1]) == g.norms(f.values, 0.9, 1.1)
        assert np.sqrt(g.integral(power)) == l2


class TestGridCaches:
    def weights(self, g, s):
        return [spectral._xi_weight(g, s), spectral._x_weight(g, s)]

    def test_read_only(self):
        g = Grid(2, 16, 4.0)
        for arr in [g.abs_xi_sq, g._tail_mask, g._shell_mask] + self.weights(g, 0.3):
            with pytest.raises(ValueError):
                arr[(0,) * g.d] = 1

    def test_a_grid_keeps_two_weights_and_two_masks_after_init(self):
        # a run reads the tail and shell masks and the (grid, s) weights at every
        # sample; nothing else of the grid's size stays.  The meshes, |x|^2, |xi|^2
        # and the sign kept 9 more float arrays (n^d each) until they became
        # broadcast axes and values built on access
        import gc
        import tracemalloc

        from nlslab import NonlinearityParams
        from nlslab.solver import SolverConfig, init

        def start(g):
            cfg = SolverConfig(grid=g, params=NonlinearityParams(1j, 0.9, 3), eps=0.4, s=1.55)
            u = init(cfg, gaussian(g)).u
            fourier_inverse(fourier_forward(ComplexField(g, Space.PHYSICAL, u)))

        start(Grid(3, 8, 6.0))  # the lazy imports (numpy.fft among them) are not the grid's
        spectral._xi_weight.cache_clear()
        spectral._x_weight.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            g = Grid(3, 32, 6.0)
            start(g)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        floats, masks = 2 * 8 * g.num_points, 2 * g.num_points
        # the 1-D axes, the sparse meshes and sign vectors and the objects come to a few KiB
        assert floats + masks <= kept <= floats + masks + 16 * 1024

    def test_masks_are_built_once_per_grid(self):
        g = Grid(2, 16, 4.0)
        assert g._tail_mask is g._tail_mask and g._shell_mask is g._shell_mask

    def test_equal_grids_share_an_entry(self):
        a, b = self.weights(Grid(1, 64, 8.0), 0.4), self.weights(Grid(1, 64, 8.0), 0.4)
        assert all(x is y for x, y in zip(a, b))

    def test_grids_differing_in_L_do_not_share(self):
        a, b = self.weights(Grid(1, 64, 8.0), 0.4), self.weights(Grid(1, 64, 9.0), 0.4)
        assert all(not np.array_equal(x, y) for x, y in zip(a, b))

    def test_parameter_values_do_not_share(self):
        g = Grid(1, 64, 8.0)
        a, b = self.weights(g, 0.4), self.weights(g, 0.45)
        assert all(not np.array_equal(x, y) for x, y in zip(a, b))

    def test_caches_are_bounded(self):
        g = Grid(1, 32, 3.0)
        for fn in (spectral._xi_weight, spectral._x_weight):
            for k in range(10):
                fn(g, 0.1 + 0.05 * k)
            info = fn.cache_info()
            assert info.currsize <= info.maxsize <= 8