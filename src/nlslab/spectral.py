"""Periodic grids, the unitary Fourier transform, and weighted norms and monitors.

The whole-space problem is truncated to the periodic box [-L, L)^d.  The
frequency lattice is xi_k = pi*k/L for integer k in [-n/2, n/2), so the
Nyquist frequency pi/h is the largest |xi| component on the grid.  Every
frequency-space array (field values, the xi lattice, |xi|^2, weights, masks)
is stored in ``np.fft.fftn`` index order, k = 0, ..., n/2-1, -n/2, ..., -1
along each axis; no other module knows that layout.  The hot path (free
propagation, norms, monitors) works on the unscaled transform :func:`dft`;
only this module chooses the numpy transform behind it.

A :class:`Grid` is the basis of a run: it owns every lattice fact the run
reads.  Its methods are the free multiplier over a span and the propagation by
it, the |u| pass with its sup, the quadrature of the step error and of the
samples, the shell and tail monitors, and the transforms of a sample (norms and
tail) and of a row (norms, profile and the remainder's sup).  The solver and the
convergence study reach the lattice through these alone; the module's field
functions (:func:`norms` and the monitors) are their forms on a ComplexField.

A :class:`Grid` keeps no array of its full size but the tail and shell masks,
which every sample reads.  Its meshes and the (-1)^k sign are one axis each,
broadcast against one another; |x|^2 and |xi|^2 are built on each access.  The
weights (1+|xi|^2)^s and (1+|x|^2)^s are cached read-only per (grid, s).  At
256^3 a grid and one s so keep two float arrays and two masks, 288 MiB.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np


def _real_fields(obj, *names):
    """Make each named field of the frozen dataclass `obj` a Python float, so 80, 80.0
    and a numpy 80.0 state one experiment, with one experiment block (which json can
    write) and the same bytes; refuse a field that is no real number, such as a string
    or a bool, rather than convert it."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise TypeError(f"{type(obj).__name__}.{name} must be a real number, got {value!r}")
        if type(value) is not float:
            object.__setattr__(obj, name, float(value))


def _int_fields(obj, *names):
    """Refuse each named field of the dataclass `obj` that is no integer, such as a
    float, a string or a bool, rather than convert it: 1.0 or True would state the
    d = 1 or record_every = 1 experiment in another experiment block and other bytes,
    and 2.5 would pass for no experiment at all.  A numpy integer becomes its int."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise TypeError(f"{type(obj).__name__}.{name} must be an integer, got {value!r}")
        object.__setattr__(obj, name, int(value))


class Space(Enum):
    PHYSICAL = "physical"
    FREQUENCY = "frequency"


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L)^d with centered frequency lattice, and the
    basis of a run: its methods from :meth:`free_multiplier` on are every lattice
    fact that a run reads.

    Attributes:
        d: spatial dimension, 1 to 3.
        n: points per axis, a power of two >= 8, with at most 2**24 points in all
            (1024^2 and 256^3 fit).
        L: half-width of the box; spacing is h = 2L/n.
    """

    d: int
    n: int
    L: float

    def __post_init__(self):
        _int_fields(self, "d", "n")
        _real_fields(self, "L")
        if self.d not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.d}")
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"points per axis must be a power of two >= 8, got {self.n}")
        if self.num_points > 2**24:
            raise ValueError(f"a grid holds at most 2**24 points, got n = "
                             f"2**{int(self.n).bit_length() - 1} per axis in d = {self.d}")
        if not 0 < self.L < math.inf:
            raise ValueError(f"box half-width must be finite and positive, got {self.L}")

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.n

    @property
    def dxi(self) -> float:
        return np.pi / self.L

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.d

    @property
    def num_points(self) -> int:
        return self.n**self.d

    @cached_property
    def x_1d(self) -> np.ndarray:
        return -self.L + self.h * np.arange(self.n)

    @cached_property
    def xi_1d(self) -> np.ndarray:
        """The lattice pi*k/L in FFT index order: xi = 0 first, -Nyquist at n/2."""
        return self.dxi * np.fft.fftfreq(self.n, 1.0 / self.n)

    @cached_property
    def x_mesh(self) -> tuple:
        """The d coordinate arrays x_i, of length n along axis i and 1 along the
        others: they broadcast against one another to the grid's shape, and hold
        d n values, not d n^d."""
        return _sparse_mesh(self.x_1d, self.d)

    @cached_property
    def xi_mesh(self) -> tuple:
        """The d frequency arrays xi_i in FFT order, broadcastable as ``x_mesh``."""
        return _sparse_mesh(self.xi_1d, self.d)

    @property
    def abs_x_sq(self) -> np.ndarray:
        """|x|^2, a fresh array on each access."""
        return sum(x**2 for x in self.x_mesh)

    @property
    def abs_xi_sq(self) -> np.ndarray:
        """|xi|^2, a fresh read-only array on each access."""
        return _read_only(sum(xi**2 for xi in self.xi_mesh))

    @cached_property
    def _sign(self) -> tuple:
        """(-1)^k along each axis, broadcastable as ``x_mesh``: their product
        (-1)^(k_1 + ... + k_d) relates samples on [-L, L) to the DFT's [0, 2L)
        convention; n is even, so the array index and the wavenumber k have one
        parity."""
        return _sparse_mesh((-1.0) ** np.arange(self.n), self.d)

    @cached_property
    def _mirror_index(self) -> np.ndarray:
        """|k| at each FFT-order index: the rows of a k = 0..n/2 table that fill an axis."""
        j = np.arange(self.n)
        return _read_only(np.minimum(j, self.n - j))

    @cached_property
    def _tail_mask(self) -> np.ndarray:
        """max_i |xi_i| > 2/3 of Nyquist: the band of :meth:`tail_fraction`."""
        cutoff = (2.0 / 3.0) * np.pi / self.h
        mask = np.zeros(self.shape, dtype=bool)
        for xi in self.xi_mesh:
            mask |= np.abs(xi) > cutoff
        return _read_only(mask)

    @cached_property
    def _shell_mask(self) -> np.ndarray:
        """max_i |x_i| >= 0.9 L: the outer tenth of :meth:`shell_fraction`."""
        cutoff = 0.9 * self.L
        mask = np.zeros(self.shape, dtype=bool)
        for x in self.x_mesh:
            mask |= np.abs(x) >= cutoff
        return _read_only(mask)

    @cached_property
    def _unitary_scale(self) -> float:
        """h^d/(2*pi)^{d/2}, the factor of :func:`fourier_forward` over the DFT."""
        return self.h**self.d / (2.0 * np.pi) ** (self.d / 2.0)

    # The basis: every lattice fact that the run loop and the convergence study read.
    # Fields are arrays of the grid's shape; a spectrum is what :meth:`transform` gives.

    def free_multiplier(self, t: float) -> np.ndarray:
        """exp(-i t |xi|^2 / 2), the free flow's multiplier over t, read-only.

        Propagation over t is back-propagation over -t, so the values come from
        the same 1-D factor: in d = 1 they equal ``np.exp(-0.5j * t *
        self.abs_xi_sq)`` bit for bit, and every span costs n/2 + 1 complex
        exponentials, however large the grid.  ValueError where a value overflows.
        """
        if _phase_overflows(self, -t):
            raise ValueError(f"free propagation over t={t!r} overflows the phase on the lattice")
        return _read_only(_back_propagation_phase(self, -t))

    def propagate(self, values: np.ndarray, m: np.ndarray, out: np.ndarray) -> np.ndarray:
        """idft(m * dft(values)) into `out`, which holds the spectrum in between; it may be
        `values`.  With m = :meth:`free_multiplier` over t this is the free flow over t."""
        spectrum = dft(values, out=out)
        # m first: numpy's SIMD complex multiply rounds the two operand orders differently
        np.multiply(m, spectrum, out=spectrum)
        return idft(spectrum, out=out)

    def modulus(self, values: np.ndarray) -> tuple:
        """One pass of |values| over the lattice: (|values|, sup|values|), whose sup is not
        finite where a value is not."""
        absu = np.abs(values)
        return absu, float(np.max(absu))

    def integral(self, density: np.ndarray) -> float:
        """The quadrature h^d sum(density) of a physical-space density, such as |u|^2."""
        return float(self.h**self.d * np.sum(density))

    def norm_ratio(self, a: np.ndarray, b: np.ndarray) -> float:
        """||a||_2 / ||b||_2; 0 where both vanish, NaN where b alone does.  The weights
        are equal and cancel, and each squared norm is numpy's own sum of products of
        the real and imaginary parts (einsum calls no BLAS), so the ratio does not
        depend on the BLAS thread count."""
        flat_a, flat_b = a.ravel().view(np.float64), b.ravel().view(np.float64)
        num, den = float(np.einsum("i,i", flat_a, flat_a)), float(np.einsum("i,i", flat_b, flat_b))
        if den > 0:
            return math.sqrt(num / den)
        return 0.0 if num == 0 else math.nan

    def _band_fraction(self, power: np.ndarray, mask: np.ndarray) -> float:
        """Fraction of the sum of `power` on the band `mask`; 0 where the sum vanishes."""
        total = np.sum(power)
        if total == 0.0:
            return 0.0
        return float(np.sum(power[mask]) / total)

    def shell_fraction(self, power: np.ndarray) -> float:
        """Fraction of the mass of the squared modulus `power` in the outer tenth of the
        box, max_i |x_i| >= 0.9 L: the boundary monitor."""
        return self._band_fraction(power, self._shell_mask)

    def tail_fraction(self, spectral_power: np.ndarray) -> float:
        """Fraction of the energy of ``|transform(u)|^2`` = `spectral_power` carried by
        the modes with max_i |xi_i| above 2/3 of Nyquist: the resolution monitor."""
        return self._band_fraction(spectral_power, self._tail_mask)

    def transform(self, values: np.ndarray) -> np.ndarray:
        """The spectrum of the field `values`, which the `spectrum` keyword of
        :meth:`norms`, :meth:`profile` and :meth:`remainder_sup` takes: the unscaled
        :func:`dft`, in a fresh array."""
        return dft(values)

    def _forward(self, values: np.ndarray, spectrum: np.ndarray | None = None) -> np.ndarray:
        """The values of :func:`fourier_forward`: the signed DFT times the unitary scale.
        `spectrum` is only read; without it the transform is scaled in place."""
        out = None
        if spectrum is None:
            spectrum = out = dft(values)
        values = _flip_signs(self, spectrum, out)
        values *= self._unitary_scale
        return values

    def profile(self, values: np.ndarray, t: float, *,
                spectrum: np.ndarray | None = None) -> np.ndarray:
        """The scattering profile A(t) = F[U(t)^{-1} u(t)] of the field `values`, on the
        frequency lattice.  `spectrum` is :meth:`transform` of values when the caller
        already has it; it is only read."""
        vals = self._forward(values, spectrum)
        return np.multiply(_back_propagation_phase(self, t), vals, out=vals)

    def remainder_sup(self, values: np.ndarray, t: float, params, *,
                      spectrum: np.ndarray | None = None) -> float:
        """sup_xi |R(t, xi)| of :func:`nlslab.propagators.remainder` at the field `values`
        and the nonlinearity `params`, without building R.  Defined for t > 0.

        R is lam c (phase) (sign) [dft(G(u)) - t^(-theta) c^b G(dft(u))], with G(z) =
        |z|^b z, c the unitary scale, `phase` the back-propagation phase and `sign`
        the (-1)^k vector; the last two and lam's phase have modulus 1, and G
        commutes with them.  So sup|R| = c |lam| max|dft(G(u)) - t^(-theta) c^b
        G(dft(u))|: two transforms and no phase, equal to the sup of R to roundoff.
        `spectrum` is :meth:`transform` of values when the caller already has it;
        it is only read.  G(u) is transformed in place, and a spectrum of its own is
        overwritten, so the remainder takes two complex arrays and one float.
        """
        if not (t > 0):
            raise ValueError(f"remainder requires t > 0, got {t}")
        scale, b = self._unitary_scale, params.b
        mod = np.abs(values)
        if b != 1.0:  # numpy spends a pass on the exponent 1
            mod **= b
        diff = np.multiply(mod, values)
        diff = dft(diff, out=diff)
        own = spectrum is None
        if own:
            spectrum = dft(values)
        mod = np.abs(spectrum, out=mod)
        if b != 1.0:
            mod **= b
        mod *= t ** (-params.theta) * scale**b
        diff -= np.multiply(spectrum, mod, out=spectrum if own else None)
        return scale * abs(params.lam) * float(np.max(np.abs(diff, out=mod)))

    def norms(self, values: np.ndarray, t: float, s: float, *,
              spectrum: np.ndarray | None = None, spectral_power: np.ndarray | None = None,
              l2: float | None = None, sup: float | None = None) -> NormReport:
        """Weighted norms of the field `values` at time t.

        h_s0 is the H^{s,0} norm computed spectrally with the (1+|xi|^2)^{s/2}
        multiplier.  h_0s is the weighted L2 norm of the back-propagated field
        U(t)^{-1} u with weight (1+|x|^2)^{s/2}, i.e. the decay norm tracked by
        the solver diagnostics; at t = 0 it reduces to the plain weighted norm
        of u.  A non-finite field yields an all-infinite report.
        The keywords pass what the caller already has: `spectrum` is
        :meth:`transform` of values, `spectral_power` is ``np.abs(spectrum) ** 2``,
        and `l2` and `sup` are the report's ``l2`` and ``l_inf``.
        """
        if s < 0:
            raise ValueError(f"Sobolev index must be >= 0, got {s}")
        if not np.isfinite(t):
            raise ValueError(f"time must be finite, got {t}")
        if t < 0:
            raise ValueError(f"time must be >= 0, got {t}")
        if sup is None:
            sup = self.modulus(values)[1]
        # a non-finite value has a non-finite modulus, so only then is the field scanned
        if not np.isfinite(sup) and not np.isfinite(values).all():
            inf = float("inf")
            return NormReport(inf, inf, inf, inf, inf)
        if spectrum is None:
            spectrum = dft(values)
        wx = self.h**self.d
        if spectral_power is None:
            spectral_power = _abs_sq(spectrum)
        # the unitary transform's |scale|^2 times the dxi^d quadrature weight is h^d / n^d
        h_s0 = float(np.sqrt(wx / self.num_points * np.sum(_xi_weight(self, s) * spectral_power)))
        # U(t)^{-1} u back-propagated inside the fresh phase array
        back = _back_propagation_phase(self, t)
        back = idft(np.multiply(back, spectrum, out=back), out=back)
        back_power = _abs_sq(back)
        h_0s = float(np.sqrt(wx * np.sum(np.multiply(_x_weight(self, s), back_power,
                                                     out=back_power))))
        if l2 is None:
            l2 = float(np.sqrt(wx * np.sum(_abs_sq(values))))
        return NormReport(l2=l2, l_inf=sup, h_s0=h_s0, h_0s=h_0s, sigma_s=h_s0 + h_0s)

    def sample_norms(self, values: np.ndarray, t: float, s: float, *, l2: float,
                     sup: float) -> tuple:
        """(:meth:`norms`, :meth:`tail_fraction`) of the field `values` at t, whose l2 and
        sup the caller has: one forward transform and its |spectrum|^2 serve both."""
        spectrum = dft(values)
        spectral_power = _abs_sq(spectrum)
        return (self.norms(values, t, s, spectrum=spectrum, spectral_power=spectral_power,
                           l2=l2, sup=sup), self.tail_fraction(spectral_power))


@dataclass
class ComplexField:
    """Complex samples on a Grid, tagged physical- or frequency-space.

    `values` has shape grid.shape (row-major); frequency-space values are in
    FFT index order, matching ``grid.xi_mesh``.
    """

    grid: Grid
    space: Space
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"field shape {self.values.shape} does not match grid shape {self.grid.shape}"
            )

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.values).all())

    def copy(self) -> "ComplexField":
        return ComplexField(self.grid, self.space, self.values.copy())


@dataclass(frozen=True)
class NormReport:
    """Weighted-norm snapshot: L2, sup, H^{s,0}, back-propagated H^{0,s}, and their Sigma^s sum."""

    l2: float
    l_inf: float
    h_s0: float
    h_0s: float
    sigma_s: float

    def is_finite(self) -> bool:
        return all(np.isfinite(v) for v in (self.l2, self.l_inf, self.h_s0, self.h_0s))


def _require_space(f: ComplexField, space: Space, op: str):
    if f.space is not space:
        raise ValueError(f"{op} expects a {space.value}-space field, got {f.space.value}")


def dft(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Unscaled forward DFT over every axis, in FFT order: ``np.fft.fftn(values)``.

    A 1-D array takes ``np.fft.fft``, which gives the same values bit for bit
    at a lower call cost.  `out` receives the result; it may be `values`, and
    is a fresh array when not given: ``fftn`` without `out` allocates an array
    for every axis, and at 128^2 takes about twice as long for the same bits.
    """
    if out is None:
        out = np.empty(values.shape, dtype=np.complex128)
    return np.fft.fft(values, out=out) if values.ndim == 1 else np.fft.fftn(values, out=out)


def idft(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of :func:`dft`: ``np.fft.ifftn(values)``, by ``np.fft.ifft`` in 1-D,
    into `out` as :func:`dft` does."""
    if out is None:
        out = np.empty(values.shape, dtype=np.complex128)
    return np.fft.ifft(values, out=out) if values.ndim == 1 else np.fft.ifftn(values, out=out)


def _flip_signs(grid: Grid, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(-1)^(k_1 + ... + k_d) values into `out`, a fresh array when not given; it may
    be `values`.  Each axis's sign vector broadcasts in turn, and a sign flip is
    exact, so no grid-sized sign array is built."""
    for sign in grid._sign:
        values = out = np.multiply(values, sign, out=out)
    return values


def fourier_forward(f: ComplexField, *, spectrum: np.ndarray | None = None) -> ComplexField:
    """Unitary continuous-convention transform: DFT scaled by h^d/(2*pi)^{d/2}.

    Output frequencies are on the xi_k = pi*k/L lattice of ``grid.xi_mesh``.
    `spectrum` is ``dft(f.values)`` when the caller already has it; it is only
    read.  Otherwise the transform is scaled in place.
    """
    _require_space(f, Space.PHYSICAL, "fourier_forward")
    return ComplexField(f.grid, Space.FREQUENCY, f.grid._forward(f.values, spectrum))


def fourier_inverse(f: ComplexField) -> ComplexField:
    """Inverse of :func:`fourier_forward`; exact round trip up to roundoff."""
    _require_space(f, Space.FREQUENCY, "fourier_inverse")
    g = f.grid
    scale = (2.0 * np.pi) ** (g.d / 2.0) / g.h**g.d
    values = _flip_signs(g, f.values)
    values = idft(values, out=values)
    values *= scale
    return ComplexField(g, Space.PHYSICAL, values)


def _abs_sq(values: np.ndarray) -> np.ndarray:
    """|values|^2 in one float array: ``np.abs(values) ** 2``, squared in place."""
    power = np.abs(values)
    return np.square(power, out=power)


def sup_modulus(f: ComplexField) -> float:
    """Max of |values| over the lattice (either space)."""
    return float(np.max(np.abs(f.values)))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _sparse_mesh(axis: np.ndarray, d: int) -> tuple:
    """``np.meshgrid`` of d copies of `axis` with indexing="ij", sparse and
    read-only: the i-th array holds the axis along dimension i."""
    return tuple(_read_only(a) for a in np.meshgrid(*([axis] * d), indexing="ij", sparse=True))


def _weight(mesh: tuple, s: float) -> np.ndarray:
    """(1 + |y|^2)^s on the grid of the broadcast axes `mesh`, built in one
    array: the values of ``(1.0 + |y|^2) ** s`` bit for bit."""
    w = sum(y**2 for y in mesh)
    w += 1.0
    w **= s
    return _read_only(w)


# Sobolev weights of the hot path, bounded caches keyed by (grid, s).
@lru_cache(maxsize=4)
def _xi_weight(grid: Grid, s: float) -> np.ndarray:
    """(1 + |xi|^2)^s."""
    return _weight(grid.xi_mesh, s)


@lru_cache(maxsize=4)
def _x_weight(grid: Grid, s: float) -> np.ndarray:
    """(1 + |x|^2)^s on the physical grid."""
    return _weight(grid.x_mesh, s)


def _back_propagation_phase(grid: Grid, t: float) -> np.ndarray:
    """exp(i t |xi|^2 / 2) on the lattice, in FFT order.

    The phase is a product over the axes of one 1-D factor, even in k, so the
    phase is taken on k = 0..n/2 only, as the cosine and sine of the real
    angle (numpy's complex exp computes the same two).  In d = 1 the values are
    those of ``np.exp(0.5j * t * grid.abs_xi_sq)`` bit for bit; in d >= 2 the
    outer product differs from it by roundoff.
    """
    n = grid.n
    angle = (0.5 * t) * grid.xi_1d[: n // 2 + 1] ** 2
    factor = np.empty(angle.shape, dtype=np.complex128)
    factor.real = np.cos(angle)
    factor.imag = np.sin(angle)
    factor = factor[grid._mirror_index]
    out = factor
    for _ in range(grid.d - 1):
        out = np.multiply.outer(out, factor)
    return out


def _phase_overflows(grid: Grid, t: float) -> bool:
    """Whether :func:`_back_propagation_phase` over t has a non-finite value.  Its angle
    grows with |xi|, so its values are all finite exactly when its angle at the
    Nyquist frequency, index n/2 in FFT order, is."""
    nyquist = float(grid.xi_1d[grid.n // 2])
    return not math.isfinite((0.5 * float(t)) * (nyquist * nyquist))  # Python floats: no warning


def norms(f: ComplexField, t: float, s: float) -> NormReport:
    """:meth:`Grid.norms` of the physical-space field f at time t."""
    _require_space(f, Space.PHYSICAL, "norms")
    return f.grid.norms(f.values, t, s)


def spectral_tail_fraction(f: ComplexField) -> float:
    """:meth:`Grid.tail_fraction` of the physical-space field f."""
    _require_space(f, Space.PHYSICAL, "spectral_tail_fraction")
    return f.grid.tail_fraction(_abs_sq(dft(f.values)))


def boundary_shell_fraction(f: ComplexField) -> float:
    """:meth:`Grid.shell_fraction` of the physical-space field f."""
    _require_space(f, Space.PHYSICAL, "boundary_shell_fraction")
    return f.grid.shell_fraction(_abs_sq(f.values))


def _resample(phi: ComplexField, grid: Grid) -> ComplexField:
    """Zero-padded trigonometric interpolation of a field onto a finer grid of the same box."""
    n = phi.grid.n
    if n == grid.n:
        return ComplexField(grid, Space.PHYSICAL, phi.values.copy())
    # wavenumbers 0..n/2-1 and -n/2..-1 keep their offsets from the two ends of each axis
    kept = np.r_[: n // 2, grid.n - n // 2 : grid.n]
    padded = np.zeros(grid.shape, dtype=np.complex128)
    padded[np.ix_(*[kept] * grid.d)] = fourier_forward(phi).values
    return fourier_inverse(ComplexField(grid, Space.FREQUENCY, padded))
