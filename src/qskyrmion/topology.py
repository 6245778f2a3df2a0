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

from .biphoton import HybridStateSpec, _check_weight, apply_isotropic_noise, pure_state
from .lgmodes import (
    CoeffField,
    GridSpec,
    _coords_block,
    _unfold,
    check_charge,
    check_waist,
    coeff_field,
)
from .stokesfield import (
    DEGENERACY_EPS,
    UnitVectorField,
    _F,
    _T,
    _stokes_map,
    _unit_planes,
    _vector_norm,
    normalize_stokes,
    stokes_field,
)

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
    gauge and is reported, never silently absorbed.  ``field`` is the texture
    that the producing function documents (None from :func:`_sweep_results`).
    """

    number: float
    density: np.ndarray
    rounded: int
    residual: float
    field: UnitVectorField | None
    masked_fraction: float


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
    out = np.empty_like(f)
    weights = np.asarray(_CENTRAL_WEIGHTS[STENCIL_ORDER])
    stencil = np.concatenate([-weights[::-1], [0.0], weights])
    np.einsum(
        "i...k,k->i...", sliding_window_view(f, 2 * half + 1, axis=0),
        stencil / spacing, out=out[half : n - half],
    )
    for i in list(range(1, half)) + list(range(n - half, n - 1)):
        reach = min(i, n - 1 - i)
        s = np.zeros_like(f[i])
        for k, w in enumerate(_CENTRAL_WEIGHTS[2 * reach], start=1):
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
    n = field.grid.samples_per_axis
    if field.vectors.shape != (n, n, 3):
        raise ValueError(
            f"field shape {field.vectors.shape} does not match grid ({n}, {n}, 3)"
        )
    return _density(np.moveaxis(field.vectors, -1, 0), field.mask, field.grid.spacing)


def _density(planes: np.ndarray, mask: np.ndarray, h: float) -> np.ndarray:
    """S . (dS/dx x dS/dy) over the grid or block of ``mask``, zeroed on its
    stencil footprint, from a texture's (3, m, m) component planes at spacing
    ``h``.  Each derivative is one sliding-window contraction (:func:`_diff`),
    and the triple product is written out over the planes, without np.cross."""
    sx, sy, sz = planes
    # _diff runs along axis 0: x derivatives through a view with x first (its output
    # has the planes' layout), y derivatives on a transposed copy, copied back to planes
    ax, ay, az = _diff(planes.transpose(1, 0, 2), h).transpose(1, 0, 2)
    bx, by, bz = np.ascontiguousarray(
        _diff(np.ascontiguousarray(planes.transpose(2, 0, 1)), h).transpose(1, 2, 0))
    density = sx * (ay * bz - az * by)
    density += sy * (az * bx - ax * bz)
    density += sz * (ax * by - ay * bx)
    del ax, ay, az, bx, by, bz  # not held through the footprint's temporaries
    density[_stencil_footprint(mask)] = 0.0
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
    density = None if field.collapsed else skyrmion_density(field)
    return _result(density, field.mask, field.mask, field.grid.spacing, field)


def _result(density, degenerate, mask, h: float,
            field: UnitVectorField | None = None) -> SkyrmionResult:
    """The result of a ``density`` that is zero on the stencil footprint of
    ``mask``, under the degenerate set ``degenerate`` that holds ``mask``:
    exactly 0 if the set covers every point, else the trapezoidal integral
    over 4*pi of the density, zeroed (in a new array) on the footprint of a
    set grown beyond ``mask``.  The integral is ``w @ density @ w``, with
    ``w`` the trapezoid weights of an axis: spacing ``h``, halved at either
    end, which agrees with nested np.trapezoid to the rounding of the sums.
    Every Skyrmion number of the package ends here.  ``field`` is the texture
    the result carries."""
    count = np.count_nonzero(degenerate)
    if count == degenerate.size:
        number, density = 0.0, np.zeros(degenerate.shape)
    else:
        if count > np.count_nonzero(mask):
            density = np.where(_stencil_footprint(degenerate), 0.0, density)
        w = np.full(degenerate.shape[0], h)
        w[[0, -1]] *= 0.5
        number = float(w @ density @ w / (4.0 * math.pi))
    rounded = int(round(number))
    return SkyrmionResult(
        number=number, density=density, rounded=rounded, residual=abs(number - rounded),
        field=field, masked_fraction=count / degenerate.size,
    )


def channel_skyrmion_numbers(rho, coeffs: CoeffField, weights) -> Iterator[SkyrmionResult]:
    """Skyrmion numbers of the isotropic-channel outputs of ``rho``, one per weight.

    The Stokes map of I/4 feeds S0 alone, so at weight p the vector
    (S1, S2, S3) of p rho + (1 - p) I/4 is exactly p times that of ``rho``.
    The unit texture is therefore the same at every p > 0; only the
    degenerate set p |S| < DEGENERACY_EPS grows as p falls.  The texture and
    its result are built once, on the call: the p = 1 result is
    ``skyrmion_number(normalize_stokes(stokes_field(rho, coeffs)))`` bit for
    bit.  The numbers match the per-point chain ``skyrmion_number(
    normalize_stokes(stokes_field(apply_isotropic_noise(rho, p), coeffs)))``
    up to the rounding of that chain's mixed state, including the exact
    N = 0 of a fully masked texture at p = 0.

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
        texture and a read-only density.  Any other weight gets the p = 1
        texture with its set zeroed (a read-only zero view once every point
        is masked) and the p = 1 density zeroed on the set's stencil
        footprint, which is what the stencil gives on that texture.
    """
    weights = [float(p) for p in weights]
    for p in weights:
        _check_weight(p)
    raw = stokes_field(rho, coeffs)
    field, norm = normalize_stokes(raw), raw.vector_norm()  # one norm held at a time
    del raw  # the Stokes planes are not held through the density's temporaries
    result = skyrmion_number(field)
    result.density.flags.writeable = False
    # p |S| >= p low at every unmasked point, rounding being monotone: p's set grows
    # beyond p = 1's exactly when p low < DEGENERACY_EPS (never, with no such point)
    low = float(norm.min(initial=math.inf, where=~field.mask))

    def outputs():
        for p in weights:
            if not p * low < DEGENERACY_EPS:
                yield result
                continue
            degenerate = (p * norm < DEGENERACY_EPS) | field.mask
            vectors = (np.broadcast_to(0.0, field.vectors.shape)  # read-only, no memory
                       if degenerate.all() else np.where(degenerate[..., None], 0.0, field.vectors))
            yield _result(result.density, degenerate, field.mask, field.grid.spacing,
                          UnitVectorField(vectors, degenerate, field.grid))

    return outputs()


def _sweep_results(spec: HybridStateSpec, grid: GridSpec, weights, *,
                   waist: float) -> Iterator[SkyrmionResult]:
    """The numbers, residuals and masked fractions of ``channel_skyrmion_numbers(
    pure_state(spec), coeff_field(spec, grid, waist=waist), weights)``.

    A pure state's K feeds |a|^2, |b|^2 into S3 alone and (n_x, n_y) into
    (S1, S2) alone, by a scaled rotation or reflection, so the reflections
    x -> -x and y -> -y map S to R S, R orthogonal with det R = -1: the
    density is even in x and in y.  The texture and stencil run on the
    quadrant x, y >= 0 (the centre row and column, as coeff_field rounds
    them, when n is odd) and its STENCIL_ORDER // 2 halo alone
    (:func:`lgmodes._coords_block`), which at 256^2 skips 6 MiB of fields and
    ~3/4 of the stencil, and the quadrant's density is reflected into the
    other three.  It differs from the whole grid's by that stencil's own
    rounding asymmetry: up to 7.6e-15 of its peak and 9e-16 in N (6 states
    at 64^2 to 256^2, 11 charge pairs at 17^2 to 257^2, masked windows too).
    Weight p's degenerate set is the quadrant's p |S| < DEGENERACY_EPS,
    reflected, with the envelope mask: a weight whose set is that mask
    shares the p = 1 result, any other gets the p = 1 density zeroed on its
    set's stencil footprint (exactly 0 at p = 0).  At p = DEGENERACY_EPS
    rounding decides the set, so mirror images may round apart from the
    channel's (equal in 99 of 198 odd-grid cases, N within 1.2e-20).
    ``weights`` are already checked; no result carries a texture.
    """
    half, h = STENCIL_ORDER // 2, grid.spacing
    coords, mask = _coords_block(spec, grid, waist, half)
    block_mask = mask[-coords.shape[1]:, -coords.shape[1]:]
    _, *s = (_stokes_map(pure_state(spec)).T @ coords.reshape(4, -1)).reshape(coords.shape)
    norm = _vector_norm(*s)
    planes, _ = _unit_planes(s, norm, block_mask)
    density = np.empty(mask.shape)
    _unfold(_density(planes, block_mask, h)[half:, half:], density)
    texture = _result(density, mask, mask, h)
    texture.density.flags.writeable = False
    quadrant = norm[half:, half:]
    low = float(quadrant.min(initial=math.inf, where=~block_mask[half:, half:]))

    def result(p: float) -> SkyrmionResult:
        if p * low >= DEGENERACY_EPS:
            return texture
        grown = np.empty(mask.shape, dtype=bool)
        _unfold(p * quadrant < DEGENERACY_EPS, grown)
        return _result(texture.density, grown | mask, mask, h)

    return map(result, weights)


def pullback_skyrmion_number(rho, coeffs: CoeffField, bloch: SkyrmionResult) -> SkyrmionResult:
    """Skyrmion number of the texture of ``rho``, pulled back from the Bloch texture's.

    Over the grid of ``coeffs``, the Stokes vectors of any state are S = h K
    on its homogeneous coordinates h (as :func:`stokes_field` reads them) and
    S = M n + c on the OAM Bloch vectors n (``stokesfield.bloch_texture``),
    so the unit texture S/|S| is a map of n.  Its density is the density of
    n times the area Jacobian J(n) = (cof(M) n) . S / |S|^3, which is
    (det M + n . adj(M) c) / |S|^3 for unit n; the cofactors, not the
    inverse, keep det M = 0 free of a branch.  The difference stencil runs
    once, on n, in ``bloch``; each state then costs one product
    [K^T; cof(M) T] h^T, of S and cof(M) n, and a few (n, n) products.  S is
    read from h, not formed as M n + c, which would carry the cancellation
    that :class:`CoeffField` keeps n_z and 1 apart to avoid, divided by |S|^3.

    The degenerate set (|S| < DEGENERACY_EPS, with the envelope mask) is
    applied as :func:`skyrmion_number` applies it to
    ``normalize_stokes(stokes_field(rho, coeffs))``: the density is zero on
    the set's stencil footprint, and a set covering every point gives
    exactly 0.  Where the grid resolves the texture, the number differs
    from that chain's by the error of the finite differences.  Near a
    topology flip, where the texture passes close to the origin of the
    Stokes ball (|S| small next to M), J peaks between grid points and
    neither number is resolved; this one can then read far beyond
    |ell2 - ell1|, while the chain's density stays bounded by its unit
    vectors.

    Parameters
    ----------
    rho : DensityMatrix4 or (4, 4) array
    coeffs : CoeffField
    bloch : SkyrmionResult
        ``skyrmion_number(bloch_texture(coeffs))``, of which the density,
        mask and grid are read; one on another grid raises.

    Returns
    -------
    SkyrmionResult
        The number, density, residual and masked fraction of ``rho``, with
        the Bloch texture of ``bloch`` as ``field``.
    """
    field = bloch.field
    if field.grid != coeffs.grid:
        raise ValueError("bloch must be the Bloch texture's result on the grid of coeffs")
    shape = field.mask.shape
    k = _stokes_map(rho)[:, 1:]
    m = k.T @ _F
    i, j = [1, 2, 0], [2, 0, 1]
    cofactors = m[i][:, i] * m[j][:, j] - m[i][:, j] * m[j][:, i]
    # rows S1..S3, then cof(M) n = cof(M) T h: one product, one large array
    rows = np.vstack([k.T, cofactors @ _T]) @ coeffs.coords.T
    rows[3:] *= rows[:3]
    density = rows[3:].sum(axis=0).reshape(shape)
    rows[:3] *= rows[:3]
    norm2 = rows[:3].sum(axis=0).reshape(shape)
    del rows  # the (6, n^2) block is not held through the density's temporaries
    norm = np.sqrt(norm2)
    degenerate = (norm < DEGENERACY_EPS) | field.mask
    norm[degenerate] = norm2[degenerate] = 1.0
    density /= norm2 * norm
    density *= bloch.density
    return _result(density, degenerate, field.mask, field.grid.spacing, field)


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
    return _convergence_rows(spec, p, _convergence_grids(spec, resolutions, half_width, waist),
                             waist)


def _convergence_rows(spec: HybridStateSpec, p: float, grids: list[GridSpec],
                      waist: float) -> list[ConvergenceRow]:
    """The :func:`convergence_scan` row of each of the checked ``grids``."""
    rows = []
    for grid in grids:
        res = skyrmion_number(texture_for_state(spec, p, grid, waist=waist))
        rows.append(ConvergenceRow(resolution=grid.samples_per_axis, number=res.number,
                                   residual=res.residual))
    return rows


def _convergence_grids(spec: HybridStateSpec, resolutions, half_width: float | None,
                       waist: float) -> list[GridSpec]:
    """The window of each resolution of a :func:`convergence_scan`, so the
    waist, every window and every sample count are checked before any
    texture is formed; ValueError if there is no resolution."""
    check_waist(waist)
    grids = [_window_grid(spec, int(n), half_width, waist=waist) for n in resolutions]
    if not grids:
        raise ValueError("at least one resolution is required")
    return grids
