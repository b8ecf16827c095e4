"""Periodic grids, the unitary Fourier transform, and weighted norms and monitors.

The whole-space problem is truncated to the periodic box [-L, L)^d.  The
frequency lattice is xi_k = pi*k/L for integer k in [-n/2, n/2), so the
Nyquist frequency pi/h is the largest |xi| component on the grid.  Every
frequency-space array (field values, the xi lattice, |xi|^2, weights, masks)
is stored in ``np.fft.fftn`` index order, k = 0, ..., n/2-1, -n/2, ..., -1
along each axis; no other module knows that layout.  The hot path (free
propagation, norms, monitors) works on the unscaled transform :func:`dft`
with the grid's frequency weights and masks cached read-only; only this
module chooses the numpy transform behind it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np


def _real_fields(obj, *names):
    """Make each named integer field of the frozen dataclass `obj` its float, so 80 and
    80.0 state one experiment with one fingerprint; refuse a field that is no real
    number, such as a string or a bool, rather than convert it."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise TypeError(f"{type(obj).__name__}.{name} must be a real number, got {value!r}")
        if isinstance(value, numbers.Integral):
            object.__setattr__(obj, name, float(value))


class Space(Enum):
    PHYSICAL = "physical"
    FREQUENCY = "frequency"


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L)^d with centered frequency lattice.

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
        _real_fields(self, "L")
        if self.d not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.d}")
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"points per axis must be a power of two >= 8, got {self.n}")
        if self.num_points > 2**24:
            raise ValueError(f"a grid holds at most 2**24 points, got n = "
                             f"2**{int(self.n).bit_length() - 1} per axis in d = {self.d}")
        if not (self.L > 0):
            raise ValueError(f"box half-width must be positive, got {self.L}")

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
        return np.meshgrid(*([self.x_1d] * self.d), indexing="ij")

    @cached_property
    def xi_mesh(self) -> tuple:
        return np.meshgrid(*([self.xi_1d] * self.d), indexing="ij")

    @cached_property
    def abs_x_sq(self) -> np.ndarray:
        return sum(x**2 for x in self.x_mesh)

    @cached_property
    def abs_xi_sq(self) -> np.ndarray:
        """|xi|^2, read-only."""
        return _read_only(sum(xi**2 for xi in self.xi_mesh))

    @cached_property
    def _sign(self) -> np.ndarray:
        # (-1)^k relates samples on [-L, L) to the DFT's [0, 2L) convention;
        # n is even, so the array index and the wavenumber k have one parity.
        s1 = (-1.0) ** np.arange(self.n)
        out = s1
        for _ in range(self.d - 1):
            out = np.multiply.outer(out, s1)
        return out

    @cached_property
    def _mirror_index(self) -> np.ndarray:
        """|k| at each FFT-order index: the rows of a k = 0..n/2 table that fill an axis."""
        j = np.arange(self.n)
        return _read_only(np.minimum(j, self.n - j))

    @cached_property
    def _tail_mask(self) -> np.ndarray:
        """max_i |xi_i| > 2/3 of Nyquist: the band of :func:`spectral_tail_fraction`."""
        cutoff = (2.0 / 3.0) * np.pi / self.h
        mask = np.zeros(self.shape, dtype=bool)
        for xi in self.xi_mesh:
            mask |= np.abs(xi) > cutoff
        return _read_only(mask)

    @cached_property
    def _shell_mask(self) -> np.ndarray:
        """max_i |x_i| >= 0.9 L: the outer tenth of :func:`boundary_shell_fraction`."""
        cutoff = 0.9 * self.L
        mask = np.zeros(self.shape, dtype=bool)
        for x in self.x_mesh:
            mask |= np.abs(x) >= cutoff
        return _read_only(mask)


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


def fourier_forward(f: ComplexField) -> ComplexField:
    """Unitary continuous-convention transform: DFT scaled by h^d/(2*pi)^{d/2}.

    Output frequencies are on the xi_k = pi*k/L lattice of ``grid.xi_mesh``.
    """
    _require_space(f, Space.PHYSICAL, "fourier_forward")
    g = f.grid
    scale = g.h**g.d / (2.0 * np.pi) ** (g.d / 2.0)
    return ComplexField(g, Space.FREQUENCY, scale * g._sign * dft(f.values))


def fourier_inverse(f: ComplexField) -> ComplexField:
    """Inverse of :func:`fourier_forward`; exact round trip up to roundoff."""
    _require_space(f, Space.FREQUENCY, "fourier_inverse")
    g = f.grid
    scale = (2.0 * np.pi) ** (g.d / 2.0) / g.h**g.d
    return ComplexField(g, Space.PHYSICAL, scale * idft(g._sign * f.values))


def sup_modulus(f: ComplexField) -> float:
    """Max of |values| over the lattice (either space)."""
    return float(np.max(np.abs(f.values)))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# Sobolev weights of the hot path, bounded caches keyed by (grid, s).
@lru_cache(maxsize=4)
def _xi_weight(grid: Grid, s: float) -> np.ndarray:
    """(1 + |xi|^2)^s."""
    return _read_only((1.0 + grid.abs_xi_sq) ** s)


@lru_cache(maxsize=4)
def _x_weight(grid: Grid, s: float) -> np.ndarray:
    """(1 + |x|^2)^s on the physical grid."""
    return _read_only((1.0 + grid.abs_x_sq) ** s)


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


def norms(f: ComplexField, t: float, s: float, *, spectrum: np.ndarray | None = None,
          spectral_power: np.ndarray | None = None, l2: float | None = None,
          sup: float | None = None) -> NormReport:
    """Weighted norms of f at time t.

    h_s0 is the H^{s,0} norm computed spectrally with the (1+|xi|^2)^{s/2}
    multiplier.  h_0s is the weighted L2 norm of the back-propagated field
    U(t)^{-1} f with weight (1+|x|^2)^{s/2}, i.e. the decay norm tracked by
    the solver diagnostics; at t = 0 it reduces to the plain weighted norm
    of f.  A non-finite field yields an all-infinite report.
    The keywords pass what the caller already has: `spectrum` is
    ``dft(f.values)``, `spectral_power` is ``np.abs(spectrum) ** 2``,
    and `l2` and `sup` are the report's ``l2`` and ``l_inf``.
    """
    _require_space(f, Space.PHYSICAL, "norms")
    if s < 0:
        raise ValueError(f"Sobolev index must be >= 0, got {s}")
    if not np.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    if sup is None:
        sup = sup_modulus(f)
    # a non-finite value has a non-finite modulus, so only then is the field scanned
    if not np.isfinite(sup) and not f.is_finite():
        inf = float("inf")
        return NormReport(inf, inf, inf, inf, inf)
    g = f.grid
    if spectrum is None:
        spectrum = dft(f.values)
    wx = g.h**g.d
    if spectral_power is None:
        spectral_power = np.abs(spectrum) ** 2
    # the unitary transform's |scale|^2 times the dxi^d quadrature weight is h^d / n^d
    h_s0 = float(np.sqrt(wx / g.num_points * np.sum(_xi_weight(g, s) * spectral_power)))
    back = idft(_back_propagation_phase(g, t) * spectrum)
    h_0s = float(np.sqrt(wx * np.sum(_x_weight(g, s) * np.abs(back) ** 2)))
    if l2 is None:
        l2 = float(np.sqrt(wx * np.sum(np.abs(f.values) ** 2)))
    return NormReport(
        l2=l2,
        l_inf=sup,
        h_s0=h_s0,
        h_0s=h_0s,
        sigma_s=h_s0 + h_0s,
    )


def spectral_tail_fraction(f: ComplexField, *, spectral_power: np.ndarray | None = None) -> float:
    """Fraction of spectral energy carried by modes with max_i |xi_i| above 2/3 of Nyquist.

    The resolution-adequacy monitor: well-resolved fields keep this tiny.
    `spectral_power` is ``np.abs(dft(f.values)) ** 2`` when the caller
    already has it.
    """
    _require_space(f, Space.PHYSICAL, "spectral_tail_fraction")
    if spectral_power is None:
        spectral_power = np.abs(dft(f.values)) ** 2
    total = np.sum(spectral_power)
    if total == 0.0:
        return 0.0
    return float(np.sum(spectral_power[f.grid._tail_mask]) / total)


def boundary_shell_fraction(f: ComplexField, *, power: np.ndarray | None = None) -> float:
    """Fraction of L2 mass in the outer tenth of the box, max_i |x_i| >= 0.9 L.

    `power` is ``np.abs(f.values) ** 2`` when the caller already has it.
    """
    _require_space(f, Space.PHYSICAL, "boundary_shell_fraction")
    if power is None:
        power = np.abs(f.values) ** 2
    total = np.sum(power)
    if total == 0.0:
        return 0.0
    return float(np.sum(power[f.grid._shell_mask]) / total)


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
