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

from .biphoton import HybridStateSpec

# log of the smallest positive double; below this eta underflows
_LOG_TINY = math.log(5e-324)
# largest |ell| whose factorial, and so whose envelope normalization, is a finite double
MAX_CHARGE = 170


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

    Points run over ``linspace(-half_width, half_width, samples_per_axis)``
    along both axes; arrays are indexed [i, j] <-> (x_i, y_j).
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

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.samples_per_axis - 1)

    def axis(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.samples_per_axis)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        x = self.axis()
        return np.meshgrid(x, x, indexing="ij")

    def polar(self) -> tuple[np.ndarray, np.ndarray]:
        X, Y = self.mesh()
        return np.hypot(X, Y), np.arctan2(Y, X)


@dataclass
class CoeffField:
    """Pointwise-normalized coefficients a(r), b(r) over a grid.

    ``mask`` is True where the joint envelope eta(r) underflows double
    precision (both envelopes effectively zero); values there are the
    analytic limits of the ratio and must not enter integrals.

    ``features`` holds, for every grid point in C order, the four real
    quantities every Stokes field is linear in: (|a|^2, |b|^2, Re(a b*),
    Im(a b*)), shape (n^2, 4), with masked rows zero.  :func:`coeff_field`
    builds them once, from one quadrant of the grid and without complex
    arithmetic.  The complex fields ``a`` and ``b`` themselves are not
    stored: each read computes them over the whole grid.
    """

    mask: np.ndarray
    features: np.ndarray = field(repr=False)
    grid: GridSpec
    state: HybridStateSpec
    waist: float

    @property
    def a(self) -> np.ndarray:
        """a(r) = |LG_ell1|/eta, real and non-negative, as a complex (n, n) array."""
        amag, _, _ = _envelope_pair(self.state, self.grid.polar()[0], self.waist)
        return amag.astype(complex)

    @property
    def b(self) -> np.ndarray:
        """b(r) = e^{i dl phi}|LG_ell2|/eta as a complex (n, n) array."""
        r, phi = self.grid.polar()
        _, bmag, _ = _envelope_pair(self.state, r, self.waist)
        return bmag * np.exp(1j * self.state.delta_ell * phi)

    @property
    def masked_fraction(self) -> float:
        return float(self.mask.mean())


def lg_amplitude(r, phi, mode: ModeSpec):
    """Laguerre-Gaussian amplitude LG_ell(r, phi) at the waist plane.

    This is C (sqrt(2) r / w)^{|ell|} exp(-r^2/w^2) exp(i ell phi) with C
    chosen so the mode is L2-normalized over the plane, evaluated as the
    exponential of :func:`_log_envelope`.  Scalars or broadcastable arrays
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
    out = np.exp(_log_envelope(r, mode.ell, mode.waist)) * np.exp(1j * mode.ell * phi)
    return out.item() if out.ndim == 0 else out


def check_charge(ell: int) -> int:
    """|ell|, or ValueError when its envelope cannot be normalized in doubles."""
    la = abs(ell)
    if la > MAX_CHARGE:
        raise ValueError(f"|ell| = {la} exceeds {MAX_CHARGE}: the Laguerre-Gaussian "
                         "normalization needs |ell|! as a finite double")
    return la


def _log_envelope(r: np.ndarray, ell: int, waist: float) -> np.ndarray:
    """log |LG_ell(r)|, stable far beyond underflow."""
    la = check_charge(ell)
    lc = 0.5 * math.log(2.0 / (math.pi * math.factorial(la))) - math.log(waist)
    if la == 0:
        return lc - (r / waist) ** 2
    with np.errstate(divide="ignore"):
        lr = np.where(r > 0, np.log(np.sqrt(2.0) * np.maximum(r, 1e-300) / waist), -np.inf)
    return lc + la * lr - (r / waist) ** 2


def check_waist(waist: float) -> None:
    """ValueError unless the beam waist is positive and finite."""
    if not (math.isfinite(waist) and waist > 0):
        raise ValueError(f"waist must be positive and finite, got {waist}")


def _envelope_pair(state: HybridStateSpec, r: np.ndarray, waist: float):
    """|a|, |b| and the underflow mask at radii ``r``.

    |a| = |LG_ell1|/eta and |b| = |LG_ell2|/eta with
    eta = sqrt(|LG_ell1|^2 + |LG_ell2|^2), the ratio taken in log space so it
    stays accurate arbitrarily far into the Gaussian tail; the mask is True
    where eta itself underflows double precision.
    """
    l1 = _log_envelope(r, state.ell1, waist)
    l2 = _log_envelope(r, state.ell2, waist)
    top = np.maximum(l1, l2)
    with np.errstate(invalid="ignore", over="ignore"):
        leta = top + 0.5 * np.log1p(np.exp(-2.0 * np.abs(l1 - l2)))
        amag = np.exp(l1 - leta)
        bmag = np.exp(l2 - leta)
    # the only point where both envelopes are exactly zero is r = 0 with
    # two nonzero charges; the limit along r is (1,0) or (0,1) by which
    # charge has the smaller magnitude
    degenerate = np.isinf(l1) & np.isinf(l2)
    if np.any(degenerate):
        if abs(state.ell1) < abs(state.ell2):
            lim_a, lim_b = 1.0, 0.0
        elif abs(state.ell1) > abs(state.ell2):
            lim_a, lim_b = 0.0, 1.0
        else:
            lim_a = lim_b = 1.0 / math.sqrt(2.0)  # equal charges: any point on the circle
        amag = np.where(degenerate, lim_a, amag)
        bmag = np.where(degenerate, lim_b, bmag)
    # NaN (eta exactly zero) fails the comparison and is masked too
    return amag, bmag, ~(leta >= _LOG_TINY)


def coeff_field(
    state: HybridStateSpec,
    grid: GridSpec,
    *,
    waist: float = 1.0,
) -> CoeffField:
    """Features of a(r) = |LG_ell1|/eta and b(r) = e^{i dl phi}|LG_ell2|/eta.

    eta(r) = sqrt(|LG_ell1|^2 + |LG_ell2|^2) normalizes the pair pointwise.
    The ratio of the two envelopes is evaluated in log space, so the field
    is accurate arbitrarily far into the Gaussian tail; points where eta
    itself underflows double precision are masked rather than divided
    through.  These are the position overlaps of the two OAM kets (up to a
    common phase); the state's relative phase delta is not part of them, it
    enters the texture once, through the density matrix.

    Every quantity is evaluated on the quadrant x, y >= 0 of the grid only
    (the centre row and column included when the sample count is odd), in
    real arithmetic: (|a|^2, |b|^2, |a||b| cos(dl phi), -|a||b| sin(dl phi)).
    The magnitudes depend on |x| and |y| alone, and the angle terms change
    sign by reflection: x -> -x takes phi to pi - phi, which multiplies the
    cosine by (-1)^dl and the sine by -(-1)^dl, and y -> -y flips the sine.
    The other three quadrants are written from it by index.

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
    check_waist(waist)
    n = grid.samples_per_axis
    q = grid.axis()[n // 2 :]
    qx, qy = q[:, None], q[None, :]
    amag, bmag, qmask = _envelope_pair(state, np.hypot(qx, qy), waist)
    angle = state.delta_ell * np.arctan2(qy, qx)
    ab = amag * bmag
    planes = (amag * amag, bmag * bmag, ab * np.cos(angle), -(ab * np.sin(angle)))
    parity = -1.0 if state.delta_ell % 2 else 1.0
    # x -> -x takes phi to pi - phi, y -> -y takes it to -phi
    features = np.empty((n, n, 4))
    for plane, out, sign_x, sign_y in zip(planes, np.moveaxis(features, -1, 0),
                                          (1.0, 1.0, parity, -parity), (1.0, 1.0, 1.0, -1.0)):
        plane[qmask] = 0.0
        _unfold(plane, out, sign_x, sign_y)
    mask = np.empty((n, n), dtype=bool)
    _unfold(qmask, mask)
    return CoeffField(mask=mask, features=features.reshape(-1, 4), grid=grid,
                      state=state, waist=waist)


def _unfold(quadrant: np.ndarray, out: np.ndarray, sign_x: float = 1.0,
            sign_y: float = 1.0) -> None:
    """Fill the (n, n) ``out`` from its quadrant x, y >= 0: rows x < 0 are
    the rows x > 0 times ``sign_x``, then columns y < 0 the columns y > 0
    times ``sign_y``.  A sign flip is 0 - x, so masked zeros stay +0.0."""
    half = out.shape[0] // 2
    out[half:, half:] = quadrant
    out[:half, half:] = quadrant[: -half - 1 : -1]
    if sign_x < 0:
        np.subtract(0.0, out[:half, half:], out=out[:half, half:])
    out[:, :half] = out[:, : -half - 1 : -1]
    if sign_y < 0:
        np.subtract(0.0, out[:, :half], out=out[:, :half])
