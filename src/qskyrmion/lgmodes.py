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

NORMALIZATION_TOL = 1e-12
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
        if not (math.isfinite(self.waist) and self.waist > 0):
            raise ValueError(f"waist must be positive, got {self.waist}")


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
    Im(a b*)), shape (n^2, 4).  It is computed once, when the field is built,
    and its masked rows are zero.
    """

    a: np.ndarray
    b: np.ndarray
    mask: np.ndarray
    grid: GridSpec
    state: HybridStateSpec
    waist: float = 1.0
    features: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ab = self.a * self.b.conj()
        feats = np.stack([np.abs(self.a) ** 2, np.abs(self.b) ** 2, ab.real, ab.imag], axis=-1)
        feats[self.mask] = 0.0
        self.features = feats.reshape(-1, 4)

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


def coeff_field(
    state: HybridStateSpec,
    grid: GridSpec,
    *,
    waist: float = 1.0,
) -> CoeffField:
    """Evaluate a(r) = |LG_ell1|/eta and b(r) = e^{i dl phi}|LG_ell2|/eta.

    eta(r) = sqrt(|LG_ell1|^2 + |LG_ell2|^2) normalizes the pair pointwise.
    The ratio of the two envelopes is evaluated in log space, so the field
    is accurate arbitrarily far into the Gaussian tail; points where eta
    itself underflows double precision are masked rather than divided
    through.  These are the position overlaps of the two OAM kets (up to a
    common phase); the state's relative phase delta is not part of them, it
    enters the texture once, through the density matrix.

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
    if not (math.isfinite(waist) and waist > 0):
        raise ValueError(f"waist must be positive and finite, got {waist}")
    r, phi = grid.polar()
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
    mask = ~(leta >= _LOG_TINY)

    a = amag.astype(complex)
    b = bmag * np.exp(1j * state.delta_ell * phi)
    return CoeffField(a=a, b=b, mask=mask, grid=grid, state=state, waist=waist)
