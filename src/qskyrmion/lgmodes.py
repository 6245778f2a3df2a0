"""Laguerre-Gaussian modes and position-basis coefficients of the hybrid state.

Photon A's OAM kets expand over position as amplitude-times-vortex-phase,
|LG_ell(r)| e^{i ell phi}; the hybrid state's position-conditioned
polarization coefficients a(r), b(r) are the two envelopes normalized
pointwise so that |a|^2 + |b|^2 = 1 at every grid point.

All lengths are measured in units of the beam waist (w = 1 by default); the
textures and their topology are scale invariant so no physical length scale
is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from . import _workspace
from .biphoton import HybridStateSpec

# log of the smallest positive double; below this eta, in waist units, underflows
_LOG_TINY = math.log(5e-324)
# largest |ell| whose factorial, and so whose envelope normalization, is a finite double
MAX_CHARGE = 170
# log of the normalization constant of LG_ell at unit waist, by |ell|
_LOG_NORM = [0.5 * math.log(2.0 / (math.pi * math.factorial(la))) for la in range(MAX_CHARGE + 1)]


@dataclass(frozen=True)
class ModeSpec:
    """One Laguerre-Gaussian donut mode (radial index 0): charge ell, waist w."""

    ell: int
    waist: float = 1.0

    def __post_init__(self):
        if int(self.ell) != self.ell:
            raise ValueError("topological charge must be an integer")
        check_waist(self.waist)


@dataclass(frozen=True)
class GridSpec:
    """Square uniform grid centered at the origin.

    Points run over ``linspace(-half_width, half_width, samples_per_axis)``, made exactly
    antisymmetric (:meth:`axis`), along both axes; arrays are indexed [i, j] <-> (x_i, y_j).
    A spacing outside [2^-511, 2^511] raises ValueError.
    """

    half_width: float
    samples_per_axis: int = 256

    def __post_init__(self):
        if not (math.isfinite(self.half_width) and self.half_width > 0):
            raise ValueError(f"half_width must be positive, got {self.half_width}")
        if not isinstance(self.samples_per_axis, Integral):
            raise ValueError(f"samples_per_axis must be an integer, got {self.samples_per_axis!r}")
        if self.samples_per_axis < 16:
            raise ValueError("samples_per_axis must be at least 16")
        if not 2.0**-511 <= self.spacing <= 2.0**511:  # h^2 and 1/h^2, normal doubles
            raise ValueError(f"grid spacing {self.spacing:g} lies outside [2^-511, 2^511]: "
                             "its square would not be a normal double")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.samples_per_axis - 1)

    def axis(self) -> np.ndarray:
        """linspace's points x >= 0 and their negatives: x[n-1-i] = -x[i], centre 0."""
        n = self.samples_per_axis
        upper = np.linspace(-self.half_width, self.half_width, n)[n // 2 :]
        upper[: n % 2] = 0.0  # the centre of an odd n
        return np.concatenate([-upper[n % 2 :][::-1], upper])

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        x = self.axis()
        return np.meshgrid(x, x, indexing="ij")

    def polar(self) -> tuple[np.ndarray, np.ndarray]:
        X, Y = self.mesh()
        return np.hypot(X, Y), np.arctan2(Y, X)


@dataclass
class CoeffField:
    """Pointwise-normalized coefficients a(r), b(r) over a grid (:func:`coeff_field`).

    ``mask`` is True where the joint envelope eta(r), in waist units,
    underflows double precision; those points must not enter integrals.

    ``coords`` holds, for every grid point in C order, the homogeneous
    coordinates h = (|a|^2, |b|^2, n_x, n_y) of photon A's OAM Bloch vector
    n = (2 Re(a b*), 2 Im(a b*), |a|^2 - |b|^2), shape (n^2, 4), with masked
    rows zero; every Stokes field is linear in h.  n_z and 1 are kept apart
    as (1 +- n_z)/2: with n_z stored as one number, n_z K_z + K_1 cancels
    where |S| is small (a unit texture with |S| down to 6.8e-4 came out
    9.9e-12 from a long-double reference, 7.3e-15 with the split).  ``coords``
    is a view of four contiguous (n, n) planes: readers must not assume
    interleaved rows.  ``a`` and ``b`` are computed over the grid on each read.
    """

    mask: np.ndarray
    coords: np.ndarray = field(repr=False)
    grid: GridSpec
    state: HybridStateSpec
    waist: float

    @property
    def a(self) -> np.ndarray:
        """a(r) = |LG_ell1|/eta, real and non-negative, as a complex (n, n) array."""
        a2, _, _, _ = _envelope_pair(self.state, self.grid.polar()[0], self.waist)
        return np.sqrt(a2).astype(complex)

    @property
    def b(self) -> np.ndarray:
        """b(r) = e^{i dl phi}|LG_ell2|/eta as a complex (n, n) array."""
        r, phi = self.grid.polar()
        _, b2, _, _ = _envelope_pair(self.state, r, self.waist)
        return np.sqrt(b2) * np.exp(1j * self.state.delta_ell * phi)


def lg_amplitude(r, phi, mode: ModeSpec):
    """Laguerre-Gaussian amplitude LG_ell(r, phi) at the waist plane.

    This is C (sqrt(2) r / w)^{|ell|} exp(-r^2/w^2) exp(i ell phi) with C
    chosen so the mode is L2-normalized over the plane, evaluated as the
    exponential of :func:`_log_envelopes`.  Scalars or broadcastable arrays
    are accepted; |ell| above ``MAX_CHARGE`` raises ValueError.

    Parameters
    ----------
    r : float or ndarray
        Radius, >= 0.
    phi : float or ndarray
        Azimuthal angle in radians.
    mode : ModeSpec

    Returns
    -------
    complex or ndarray
        Complex mode amplitude.
    """
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(phi))):
        raise ValueError("r and phi must be finite")
    if np.any(r < 0):
        raise ValueError("radius must be non-negative")
    out = np.exp(_log_envelopes(r, mode.waist, mode.ell)[1]) * np.exp(1j * mode.ell * phi)
    return out.item() if out.ndim == 0 else out


def check_charge(ell: int) -> int:
    """|ell|, or ValueError when its envelope cannot be normalized in doubles."""
    la = abs(ell)
    if la > MAX_CHARGE:
        raise ValueError(f"|ell| = {la} exceeds {MAX_CHARGE}: the Laguerre-Gaussian "
                         "normalization needs |ell|! as a finite double")
    return la


def _log_envelopes(r: np.ndarray, waist: float, *ells: int, out=None) -> tuple[np.ndarray, ...]:
    """lr = log(sqrt(2) r / waist), -inf at r = 0, then log |LG_ell(r)| of each
    of ``ells`` from that one log of r, stable far beyond underflow, written
    into ``out`` (one array of r's shape each) when it is given."""
    las = [check_charge(ell) for ell in ells]
    lr, *logs = [np.empty(r.shape) for _ in range(len(ells) + 1)] if out is None else out
    with np.errstate(divide="ignore"):
        np.log(np.divide(np.multiply(np.sqrt(2.0), r, out=lr), waist, out=lr), out=lr)
    with _workspace.frame() as take:
        gauss = take(r.shape)
        np.square(np.divide(r, waist, out=gauss), out=gauss)
        for la, log in zip(las, logs):
            base = _LOG_NORM[la] - math.log(waist)
            if la:
                np.add(base, np.multiply(la, lr, out=log), out=log)
                np.subtract(log, gauss, out=log)
            else:
                np.subtract(base, gauss, out=log)
    return lr, *logs


def check_waist(waist: float) -> None:
    """ValueError unless the beam waist is positive and finite."""
    if not (math.isfinite(waist) and waist > 0):
        raise ValueError(f"waist must be positive and finite, got {waist}")


def _envelope_pair(state: HybridStateSpec, r: np.ndarray, waist: float, out=None):
    """|a|^2, |b|^2, 2|a||b| and the underflow mask at radii ``r``, written
    into ``out`` (three float arrays and a boolean one, of r's shape) when it
    is given; the intermediates are work arrays (:mod:`._workspace`).

    All three come from d = log(|LG_ell1|/|LG_ell2|) = (c1 - c2) + (|ell1| - |ell2|) lr, with
    lr = log(sqrt(2) r/w) and c the normalization constants, in which the Gaussian cancels
    exactly: with t = exp(-2|d|) the larger weight is 1/(1 + t), the smaller t/(1 + t) and
    2|a||b| = 2 sqrt(t)/(1 + t), so |a|^2 + |b|^2 = 1 to an ulp at any radius.  Equal |ell|
    give d = 0; otherwise d = +-inf at r = 0 gives the limit along r, (1, 0) or (0, 1).  The
    mask is True where eta w underflows, as at r = 0 between two vortex charges: log w sits
    on the threshold's side, so the mask, like the weights, depends on r/w alone.
    """
    if out is None:
        out = np.empty(r.shape), np.empty(r.shape), np.empty(r.shape), np.empty(r.shape, bool)
    a2, b2, ab, mask = out
    la1, la2 = abs(state.ell1), abs(state.ell2)
    with _workspace.frame() as take:
        d, l1, l2, big = (take(r.shape) for _ in range(4))
        first = take(r.shape, bool)
        _log_envelopes(r, waist, state.ell1, state.ell2, out=(d, l1, l2))
        if la1 != la2:  # d from lr in place
            np.add(_LOG_NORM[la1] - _LOG_NORM[la2], np.multiply(la1 - la2, d, out=d), out=d)
        else:
            d.fill(0.0)
        np.greater_equal(d, 0, out=first)
        t = np.exp(np.multiply(-2.0, np.abs(d, out=d), out=d), out=d)
        np.maximum(l1, l2, out=l1)
        np.add(l1, np.multiply(0.5, np.log1p(t, out=l2), out=l2), out=l1)
        np.logical_not(np.greater_equal(l1, _LOG_TINY - math.log(waist), out=mask), out=mask)
        small = np.divide(t, np.add(1.0, t, out=big), out=l1)
        np.divide(1.0, big, out=big)
        np.multiply(np.multiply(2.0, np.sqrt(t, out=l2), out=l2), big, out=ab)
        for weight, at_first, elsewhere in ((a2, big, small), (b2, small, big)):
            np.copyto(weight, elsewhere)
            np.copyto(weight, at_first, where=first)
    return a2, b2, ab, mask


def coeff_field(
    state: HybridStateSpec,
    grid: GridSpec,
    *,
    waist: float = 1.0,
) -> CoeffField:
    """Bloch coordinates of a(r) = |LG_ell1|/eta and b(r) = e^{i dl phi}|LG_ell2|/eta.

    eta(r) = sqrt(|LG_ell1|^2 + |LG_ell2|^2) normalizes the pair pointwise.
    |a|^2 and |b|^2 come from one log ratio of the two envelopes
    (:func:`_envelope_pair`), so they sum to 1 to an ulp arbitrarily far into
    the Gaussian tail; points where eta w itself underflows double precision
    are masked rather than divided through.  These are the position overlaps
    of the two OAM kets (up to a common phase); the state's relative phase
    delta is not part of them, it enters the texture once, through the
    density matrix.  On 216 grids (12 charge pairs up to (0, 170), 16^2 to
    256^2, windows 3 to 30) |a|^2 + |b|^2 - 1 is at most 2.2e-16 and
    |n|^2 - 1 at most 6.7e-16 on every unmasked point; against a long-double
    evaluation the coordinates are within 3.1e-15 for |ell| <= 12, and within
    2.3e-14 and 3.7e-14 for (100, -1) and (0, 170), where the rounding of r,
    log r and c1 - c2 enters the log ratio times ||ell1| - |ell2||.  The
    coordinates are :func:`_coords_block` over the whole grid.

    Parameters
    ----------
    state : HybridStateSpec
    grid : GridSpec
    waist : float
        Common beam waist of both modes.

    Returns
    -------
    CoeffField
    """
    coords, mask = _coords_block(state, grid, waist, grid.samples_per_axis // 2)
    return CoeffField(mask=mask, coords=coords.reshape(4, -1).T, grid=grid,
                      state=state, waist=waist)


def _coords_block(state: HybridStateSpec, grid: GridSpec, waist: float, halo: int, out=None):
    """The planes ``[:, lo:, lo:]``, lo = n//2 - ``halo``, of the homogeneous
    coordinates :func:`coeff_field` writes, and the whole (n, n) mask.

    The block is the quadrant x, y >= 0 (the centre row and column included
    when n is odd), evaluated once in real arithmetic as h = (|a|^2, |b|^2,
    2|a||b| cos(dl phi), -2|a||b| sin(dl phi)) from :func:`_envelope_pair`,
    and the ``halo`` rows and columns before it, its reflections times
    :func:`_reflection_signs` at the exact mirror images that the
    antisymmetric :meth:`GridSpec.axis` holds; ``halo = n//2`` is the whole
    grid.  So a smaller block holds the same bits as that part of the whole
    grid's planes, and the rest of the grid is never formed.  The block is
    written into ``out`` when it is given, else into a new array; the mask
    is always new.  The quadrant's radii, angles and envelope intermediates
    are work arrays (:mod:`._workspace`), of which none is returned.
    """
    check_waist(waist)
    n = grid.samples_per_axis
    q = grid.axis()[n // 2 :]
    qx, qy = q[:, None], q[None, :]
    size, shape = len(q) + halo, (len(q), len(q))
    block = np.empty((4, size, size)) if out is None else out
    quadrant = block[:, halo:, halo:]
    with _workspace.frame() as take:
        angle, qmask = take(shape), take(shape, bool)
        # 2|a||b| goes to the n_x plane, which then takes its product with the cosine
        ab = quadrant[2]
        _envelope_pair(state, np.hypot(qx, qy, out=angle), waist,
                       out=(quadrant[0], quadrant[1], ab, qmask))
        np.multiply(state.delta_ell, np.arctan2(qy, qx, out=angle), out=angle)
        cos = np.cos(angle, out=take(shape))
        np.negative(np.multiply(ab, np.sin(angle, out=angle), out=angle), out=quadrant[3])
        np.multiply(ab, cos, out=ab)
        for plane, sign_x, sign_y in zip(block, *_reflection_signs(state)):
            quarter = plane[halo:, halo:]
            quarter[qmask] = 0.0
            _unfold(quarter, plane, sign_x, sign_y, odd=n % 2)
        mask = np.empty((n, n), dtype=bool)
        _unfold(qmask, mask)
    return block, mask


def _reflection_signs(state: HybridStateSpec) -> tuple[tuple, tuple]:
    """The signs by which x -> -x and y -> -y multiply each of the homogeneous
    coordinates (|a|^2, |b|^2, n_x, n_y) of ``state``: the magnitudes depend on
    |x| and |y| alone, x -> -x takes phi to pi - phi, which multiplies the
    cosine of dl phi by (-1)^dl and its sine by -(-1)^dl, and y -> -y flips the sine."""
    parity = -1.0 if state.delta_ell % 2 else 1.0
    return (1.0, 1.0, parity, -parity), (1.0, 1.0, 1.0, -1.0)


def _unfold(quadrant: np.ndarray, out: np.ndarray, sign_x: float = 1.0,
            sign_y: float = 1.0, odd: int | None = None) -> None:
    """Fill ``out`` from ``quadrant``, the points x, y >= 0 of an (n, n) grid
    (its first row and column are x = 0 and y = 0 when n is odd), which go
    to the last rows and columns of ``out``: the whole grid, or a block of
    its last rows and columns with ``odd`` = n % 2.  ``quadrant`` may be that
    part of ``out`` itself.  Each column before the quadrant is the column of
    its mirror image y -> -y times ``sign_y``, then each row before it the
    row of its mirror image x -> -x times ``sign_x``; whole rows are copied
    last, as they need no temporary copy of memory that they overwrite.  A
    sign flip is 0 - x, so masked zeros stay +0.0."""
    odd = out.shape[0] % 2 if odd is None else odd
    half = out.shape[0] - quadrant.shape[0]
    lower = out[half:]
    lower[:, half:] = quadrant
    lower[:, :half] = quadrant[:, odd : odd + half][:, ::-1]
    if sign_y < 0:
        np.subtract(0.0, lower[:, :half], out=lower[:, :half])
    out[:half] = out[half + odd : 2 * half + odd][::-1]
    if sign_x < 0:
        np.subtract(0.0, out[:half], out=out[:half])
