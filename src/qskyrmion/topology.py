"""Skyrmion density and Skyrmion number of unit-vector textures.

The density is the Jacobian of the sphere map,
sigma(x, y) = S . (dS/dx x dS/dy), evaluated with central finite
differences on the uniform grid; the Skyrmion number is its trapezoidal
integral over the plane divided by 4*pi.  Quantization of the result gives
a built-in error gauge, reported as ``residual``.

Sign convention: with P1 on the +z pole and (S1, S2, S3) following
(sigma_x, sigma_y, sigma_z), the hybrid state (ell1, ell2) carries
N = sign(|ell2| - |ell1|) * (ell2 - ell1).  The number is symmetric under
swapping the two charges and flips sign when the charge difference flips.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .biphoton import HybridStateSpec, apply_isotropic_noise, pure_state
from .lgmodes import CoeffField, GridSpec, check_charge, check_waist, coeff_field
from .stokesfield import DEGENERACY_EPS, UnitVectorField, normalize_stokes, stokes_field

# one-sided weights of symmetric central-difference stencils by order
_CENTRAL_WEIGHTS = {
    2: (1 / 2,),
    4: (2 / 3, -1 / 12),
    6: (3 / 4, -3 / 20, 1 / 60),
    8: (4 / 5, -1 / 5, 4 / 105, -1 / 280),
}
STENCIL_ORDER = 8

# default window sizing: shrink tails below this share of |N| where the
# window permits, within the clamp below
_TAIL_BUDGET = 5e-5
_MIN_HALF_WIDTH = 5.0
_MAX_HALF_WIDTH = 24.0


@dataclass
class SkyrmionResult:
    """Skyrmion number with its quantization diagnostics.

    ``rounded`` is advisory; ``residual`` = |number - rounded| is the error
    gauge and is reported, never silently absorbed.
    """

    number: float
    density: np.ndarray
    rounded: int
    residual: float
    field: UnitVectorField  # the texture whose density this is
    masked_fraction: float

    @property
    def grid(self) -> GridSpec:
        return self.field.grid

    @property
    def resolution(self) -> int:
        return self.grid.samples_per_axis


@dataclass
class ConvergenceRow:
    resolution: int
    number: float
    residual: float


def _diff(f: np.ndarray, spacing: float) -> np.ndarray:
    """Central differences of STENCIL_ORDER along axis 0, narrowing the
    stencil toward the edges and finishing with one-sided second-order
    differences at the boundary rows themselves."""
    n = f.shape[0]
    half = STENCIL_ORDER // 2
    if n < 2 * half + 1:
        raise ValueError(f"grid too small for stencil order {STENCIL_ORDER}")
    out = np.empty_like(f)
    weights = np.asarray(_CENTRAL_WEIGHTS[STENCIL_ORDER])
    stencil = np.concatenate([-weights[::-1], [0.0], weights])
    np.einsum(
        "i...k,k->i...", sliding_window_view(f, 2 * half + 1, axis=0),
        stencil / spacing, out=out[half : n - half],
    )
    for i in list(range(1, half)) + list(range(n - half, n - 1)):
        reach = min(i, n - 1 - i)
        sub = _CENTRAL_WEIGHTS[2 * min(reach, 4)]
        s = np.zeros_like(f[i])
        for k, w in enumerate(sub[:reach], start=1):
            s += w * (f[i + k] - f[i - k])
        out[i] = s / spacing
    out[0] = (-3 * f[0] + 4 * f[1] - f[2]) / (2 * spacing)
    out[-1] = (3 * f[-1] - 4 * f[-2] + f[-3]) / (2 * spacing)
    return out


def skyrmion_density(field: UnitVectorField) -> np.ndarray:
    """Topological charge density S . (dS/dx x dS/dy) over the grid.

    Masked points and every point whose difference stencil touches one
    contribute zero, so envelope-underflow tails never inject noise.

    Parameters
    ----------
    field : UnitVectorField
        Its vectors must have the shape (n, n, 3) of its grid.

    Returns
    -------
    (n, n) ndarray
    """
    grid = field.grid
    n = grid.samples_per_axis
    vectors = field.vectors
    if vectors.shape != (n, n, 3):
        raise ValueError(
            f"field shape {vectors.shape} does not match grid ({n}, {n}, 3)"
        )
    h = grid.spacing
    ax, ay, az = np.moveaxis(_diff(vectors, h), -1, 0)
    # _diff runs along axis 0: y derivatives come from a contiguous transposed copy
    transposed = np.ascontiguousarray(vectors.transpose(1, 0, 2))
    bx, by, bz = np.moveaxis(_diff(transposed, h).transpose(1, 0, 2), -1, 0)
    sx, sy, sz = np.moveaxis(vectors, -1, 0)
    density = sx * (ay * bz - az * by)
    density += sy * (az * bx - ax * bz)
    density += sz * (ax * by - ay * bx)
    density[_stencil_footprint(field.mask)] = 0.0
    return density


def _stencil_footprint(mask: np.ndarray) -> np.ndarray:
    """The points of ``mask`` and every point whose difference stencil
    (reaching STENCIL_ORDER // 2 points along each axis) touches one."""
    bad = mask.copy()
    for shift in range(1, STENCIL_ORDER // 2 + 1):
        bad[shift:, :] |= mask[:-shift, :]
        bad[:-shift, :] |= mask[shift:, :]
        bad[:, shift:] |= mask[:, :-shift]
        bad[:, :-shift] |= mask[:, shift:]
    return bad


def skyrmion_number(field: UnitVectorField) -> SkyrmionResult:
    """Skyrmion number of a unit-vector texture by grid quadrature.

    Trapezoidal integral of :func:`skyrmion_density` over the window,
    divided by 4*pi.  A fully masked (collapsed) field short-circuits to
    exactly 0: the texture has contracted to a point and carries no
    topology.  Poor convergence shows up in ``residual``; nothing raises.
    """
    grid = field.grid
    masked_fraction = field.masked_fraction
    if masked_fraction == 1.0:
        n = grid.samples_per_axis
        number, density = 0.0, np.zeros((n, n))
    else:
        density = skyrmion_density(field)
        h = grid.spacing
        total = np.trapezoid(np.trapezoid(density, dx=h, axis=1), dx=h, axis=0)
        number = float(total / (4.0 * math.pi))
    rounded = int(round(number))
    return SkyrmionResult(
        number=number, density=density, rounded=rounded,
        residual=abs(number - rounded), field=field, masked_fraction=masked_fraction,
    )


def channel_skyrmion_numbers(rho, coeffs: CoeffField, weights) -> Iterator[SkyrmionResult]:
    """Skyrmion numbers of the isotropic-channel outputs of ``rho``, one per weight.

    The Stokes map of I/4 feeds S0 alone, so at weight p the vector
    (S1, S2, S3) of p rho + (1 - p) I/4 is exactly p times that of ``rho``.
    The unit texture is therefore the same at every p > 0; only the
    degenerate set p |S| < DEGENERACY_EPS grows as p falls.  The texture and
    its density are built once, on the call.  The numbers match the
    per-point chain ``skyrmion_number(normalize_stokes(stokes_field(
    apply_isotropic_noise(rho, p), coeffs)))`` up to the rounding of that
    chain's mixed state, including the exact N = 0 of a fully masked
    texture at p = 0.

    Parameters
    ----------
    rho : DensityMatrix4 or (4, 4) array
        The channel input, whose texture is that of p = 1.
    coeffs : CoeffField
    weights : iterable of float
        Channel weights in [0, 1], in any order; repeats are allowed.  They
        are checked on the call, before any result is requested.

    Returns
    -------
    iterator of SkyrmionResult
        One per weight, in the order given, each built only when it is
        requested, with its texture as ``field``.  Every weight whose
        degenerate set is that of p = 1 gets the same result: the p = 1
        texture and a read-only density.  Any other weight gets
        :func:`skyrmion_number` of a texture with its set zeroed (a
        read-only zero view once every point is masked).
    """
    weights = [float(p) for p in weights]
    for p in weights:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"noise weight p must lie in [0, 1], got {p}")
    raw = stokes_field(rho, coeffs)
    norm, field = raw.vector_norm(), normalize_stokes(raw)
    del raw  # the (n, n, 4) Stokes array is not held through the density's temporaries
    result = skyrmion_number(field)
    result.density.flags.writeable = False
    base_count = np.count_nonzero(field.mask)

    def outputs():
        for p in weights:
            degenerate = (p * norm < DEGENERACY_EPS) | field.mask
            if np.count_nonzero(degenerate) == base_count:  # sets only grow as p falls: p = 1's
                yield result
                continue
            vectors = (np.broadcast_to(0.0, field.vectors.shape)  # read-only, no memory
                       if degenerate.all() else np.where(degenerate[..., None], 0.0, field.vectors))
            yield skyrmion_number(UnitVectorField(vectors, degenerate, field.grid))

    return outputs()


def skyrmion_number_analytic(spec: HybridStateSpec) -> int:
    """Closed-form Skyrmion number of the hybrid state.

    Returns sign(|ell2| - |ell1|) * (ell2 - ell1), the winding the numeric
    pipeline converges to under this package's Pauli/Stokes conventions.
    States with |ell1| = |ell2| have no well-defined wrapping and raise.
    """
    if abs(spec.ell1) == abs(spec.ell2):
        raise ValueError(
            "skyrmion number is defined only for |ell1| != |ell2|; "
            f"got ({spec.ell1}, {spec.ell2})"
        )
    m = 1 if abs(spec.ell2) > abs(spec.ell1) else -1
    return m * spec.delta_ell


def suggested_grid(
    spec: HybridStateSpec,
    samples: int = 256,
    *,
    waist: float = 1.0,
) -> GridSpec:
    """Grid whose window truncates the texture's polynomial tail safely.

    The texture approaches its asymptotic pole only polynomially, at a rate
    set by ||ell2| - |ell1||; this picks the half-width at which the
    estimated missing winding mass drops below ``_TAIL_BUDGET`` (clamped to
    [5w, 24w]: below 5w the envelopes are not contained, beyond ~27w the
    envelope itself underflows double precision, so larger windows only
    cost resolution).  A waist that is not positive and finite raises
    ValueError before any window is formed.
    """
    check_waist(waist)
    la1, la2 = check_charge(spec.ell1), check_charge(spec.ell2)
    da = la2 - la1
    dl = abs(spec.delta_ell)
    if da == 0 or dl == 0:
        return GridSpec(_MIN_HALF_WIDTH * waist, samples)
    chat = math.sqrt(math.factorial(la1) / math.factorial(la2))
    if da < 0:
        chat, da = 1.0 / chat, -da
    g_needed = math.sqrt(dl / _TAIL_BUDGET)
    half_width = (waist / math.sqrt(2.0)) * (g_needed / chat) ** (1.0 / da)
    half_width = min(max(half_width, _MIN_HALF_WIDTH * waist), _MAX_HALF_WIDTH * waist)
    return GridSpec(half_width, samples)


def _window_grid(
    spec: HybridStateSpec, samples: int, half_width: float | None, *, waist: float = 1.0
) -> GridSpec:
    """The tail-safe :func:`suggested_grid` when ``half_width`` is None,
    else the fixed window of that half-width (absolute length units)."""
    if half_width is None:
        return suggested_grid(spec, samples, waist=waist)
    return GridSpec(half_width, samples)


def texture_for_state(
    spec: HybridStateSpec,
    p: float = 1.0,
    grid: GridSpec | None = None,
    *,
    waist: float = 1.0,
    samples: int = 256,
) -> UnitVectorField:
    """Full pipeline from a state spec to its normalized Stokes texture.

    Builds the pure state, applies the isotropic channel at weight ``p``,
    conditions on position, and normalizes the Stokes vectors.
    """
    if grid is None:
        grid = suggested_grid(spec, samples, waist=waist)
    rho = apply_isotropic_noise(pure_state(spec), p)
    coeffs = coeff_field(spec, grid, waist=waist)
    return normalize_stokes(stokes_field(rho, coeffs))


def convergence_scan(
    spec: HybridStateSpec,
    p: float,
    resolutions,
    *,
    half_width: float | None = None,
    waist: float = 1.0,
) -> list[ConvergenceRow]:
    """Skyrmion number and residual across grid resolutions.

    The residual is expected to fall monotonically for the well-behaved
    (0, ell) state family; the table is the evidence artifact, no check is
    enforced here.

    Parameters
    ----------
    spec : HybridStateSpec
    p : float
        Channel weight applied before the texture is normalized.
    resolutions : iterable of int
        At least one samples-per-axis value.
    half_width : float, optional
        Window half-width; defaults to the suggested tail-safe window.
    """
    resolutions = list(resolutions)
    if not resolutions:
        raise ValueError("at least one resolution is required")
    rows = []
    for n in resolutions:
        grid = _window_grid(spec, int(n), half_width, waist=waist)
        fld = texture_for_state(spec, p, grid, waist=waist)
        res = skyrmion_number(fld)
        rows.append(ConvergenceRow(resolution=int(n), number=res.number, residual=res.residual))
    return rows
