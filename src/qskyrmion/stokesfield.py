"""Position-conditioned states of photon B and quantum Stokes fields.

Conditioning the joint density matrix on photon A being found at position r
leaves a 2x2 operator on photon B's polarization space; its Pauli
expectation values form the Stokes texture whose topology the rest of the
package measures.  Convention: P1 is the +1 eigenstate of sigma_3, and
(S1, S2, S3) follow (sigma_x, sigma_y, sigma_z) in the (P1, P2) basis.

The texture is linear in rho and in photon A's OAM Bloch vector
n = (2 Re(a b*), 2 Im(a b*), |a|^2 - |b|^2).  With M_ik the 2x2 blocks of
rho over photon A's OAM kets, the conditional operator is
C(r) = sum_k h_k(r) N_k over the homogeneous coordinates
h = (|a|^2, |b|^2, n_x, n_y) of :attr:`CoeffField.coords` and
N = (2 M_00, 2 M_11, M_01 + M_10, i(M_01 - M_10)).  So S_mu = sum_k h_k K_k,mu
with K_k,mu = Re Tr(sigma_mu N_k): one (4, 4) x (4, n^2) product K^T h^T per
state writes the four Stokes planes.  Grid fields are stored as contiguous
component planes, of which the (n^2, 4) and (n, n, 3) shapes are views; only
their producers choose that layout, and every reader gives the same bits for
a field stored interleaved.  Since |a|^2 = (1 + n_z)/2 and |b|^2 = (1 - n_z)/2,
h and n are related by n = T h and h = F n + d on unmasked points, the
constants _T, _F and _D, so every texture is an affine image of n,
(S1, S2, S3) = M n + c with (M, c) = (K^T F, K^T d) over columns 1..3 of K
(:func:`bloch_texture`, :func:`_stokes_affine`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _workspace
from .biphoton import DensityMatrix4, _as_matrix
from .lgmodes import CoeffField, GridSpec

DEGENERACY_EPS = 1e-6

SIGMA = {
    1: np.array([[0, 1], [1, 0]], dtype=complex),
    2: np.array([[0, -1j], [1j, 0]], dtype=complex),
    3: np.array([[1, 0], [0, -1]], dtype=complex),
}
_PAULI = np.stack([np.eye(2, dtype=complex), SIGMA[1], SIGMA[2], SIGMA[3]])  # sigma_0..3

# the one map between h and n: n = T h, and h = F n + d where |a|^2 + |b|^2 = 1
_T = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0], [1.0, -1.0, 0.0, 0.0]])
_F = np.array([[0.0, 0.0, 0.5], [0.0, 0.0, -0.5], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
_D = np.array([0.5, 0.5, 0.0, 0.0])


@dataclass
class StokesField:
    """Grid-sampled Stokes parameters (S0, S1, S2, S3) of photon B.

    ``mask`` marks points excluded upstream (envelope underflow); Stokes
    values there are zeroed.  Each field is a contiguous (n, n) plane.
    """

    s0: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    s3: np.ndarray
    mask: np.ndarray
    grid: GridSpec

    def vector_norm(self) -> np.ndarray:
        return _vector_norm(self.s1, self.s2, self.s3)


@dataclass
class UnitVectorField:
    """Unit 3-vector field over a grid, with a mask for degenerate points.

    The package writes ``vectors``, shape (n, n, 3), as a view of three
    contiguous (n, n) planes: readers must not assume interleaved rows.
    """

    vectors: np.ndarray
    mask: np.ndarray
    grid: GridSpec

    @property
    def collapsed(self) -> bool:
        """Every point is degenerate (zero vector): the maximally mixed limit,
        in which the texture contracts to a single point."""
        return bool(self.mask.all())

    @property
    def masked_fraction(self) -> float:
        return float(self.mask.mean())


def _stokes_map(rho) -> np.ndarray:
    """Real (4, 4) map K with S_mu(r) = sum_k h_k(r) K[k, mu] (module docstring)."""
    m = _as_matrix(rho)
    m01, m10 = m[:2, 2:], m[2:, :2]
    blocks = np.stack([2.0 * m[:2, :2], 2.0 * m[2:, 2:], m01 + m10, 1j * (m01 - m10)])
    return np.einsum("kjl,mlj->km", blocks, _PAULI).real


def _stokes_affine(rho) -> tuple[np.ndarray, np.ndarray]:
    """(M, c) with (S1, S2, S3)(r) = M n(r) + c over the OAM Bloch vector n."""
    k = _stokes_map(rho)[:, 1:]
    return k.T @ _F, k.T @ _D


def bloch_texture(coeffs: CoeffField) -> UnitVectorField:
    """The OAM Bloch vectors n = T h = (2 Re(a b*), 2 Im(a b*), |a|^2 - |b|^2).

    Unit vectors wherever ``coeffs`` is unmasked, zero where it is masked,
    with the mask of ``coeffs``.  Every state's texture over this grid is
    M n + c (:func:`_stokes_affine`).
    """
    planes = (_T @ coeffs.coords.T).reshape((3,) + coeffs.mask.shape)
    return UnitVectorField(np.moveaxis(planes, 0, -1), coeffs.mask, coeffs.grid)


def conditional_state(rho, coeffs: CoeffField, point: tuple[int, int]) -> np.ndarray:
    """Conditional 2x2 state of photon B at one grid point.

    For an isotropic-channel output at weight p this equals
    p |chi(r)><chi(r)| + (1-p)/2 * I_2 with
    |chi(r)> = a(r)|P1> + e^{i delta} b(r)|P2>: the relative phase delta
    comes from the density matrix, the vortex phase dl*phi from b(r).
    Built from the full 4x4 matrix, so reconstructed density matrices flow
    through the identical path as analytic ones; it is (S0 I + S.sigma)/2
    of the point's Stokes values.

    Parameters
    ----------
    rho : DensityMatrix4 or (4, 4) array
    coeffs : CoeffField
    point : (int, int)
        Grid indices (i, j).

    Returns
    -------
    (2, 2) complex ndarray
    """
    i, j = point
    if coeffs.mask[i, j]:
        raise ValueError(f"grid point {point} is masked (envelope underflow)")
    stokes = coeffs.coords.reshape(coeffs.mask.shape + (4,))[i, j] @ _stokes_map(rho)
    return 0.5 * np.einsum("m,mjl->jl", stokes, _PAULI)


def stokes_field(rho, coeffs: CoeffField) -> StokesField:
    """Quantum Stokes fields S_i(r) = Tr(sigma_i <r|rho|r>) over the grid.

    S0 is the trace of the conditional operator (1 for channel outputs).
    Masked coefficient points produce zeroed, masked Stokes values.

    Parameters
    ----------
    rho : DensityMatrix4 or (4, 4) array
    coeffs : CoeffField
    """
    planes = (_stokes_map(rho).T @ coeffs.coords.T).reshape((4,) + coeffs.mask.shape)
    return StokesField(*planes, mask=coeffs.mask.copy(), grid=coeffs.grid)


def projection_pair(rho, coeffs: CoeffField, point: tuple[int, int], axis: int):
    """Intensities of the +/- projector pair for one Pauli axis at a point.

    Returns ``(i_plus, i_minus, noise_share)`` where
    i_pm = Tr(P_i^pm <r|rho|r>) and ``noise_share`` = (1-p)/2 is the common
    additive contribution the isotropic noise makes to both projections;
    their difference i_plus - i_minus is the Stokes component S_i(r).

    Requires a density matrix carrying its channel ``noise_weight``.
    """
    if axis not in (1, 2, 3):
        raise ValueError(f"axis must be 1, 2 or 3, got {axis}")
    if not isinstance(rho, DensityMatrix4) or rho.noise_weight is None:
        raise ValueError("projection_pair needs a channel output with a recorded noise weight")
    cond = conditional_state(rho, coeffs, point)
    p_plus = 0.5 * (np.eye(2) + SIGMA[axis])
    p_minus = 0.5 * (np.eye(2) - SIGMA[axis])
    i_plus = float(np.trace(p_plus @ cond).real)
    i_minus = float(np.trace(p_minus @ cond).real)
    noise_share = 0.5 * (1.0 - rho.noise_weight)
    return i_plus, i_minus, noise_share


def normalize_stokes(field: StokesField) -> UnitVectorField:
    """Map the Stokes vector field onto the unit sphere.

    Each (S1, S2, S3) is divided by its Euclidean norm; points with norm
    below ``DEGENERACY_EPS`` are masked as degenerate.  A field whose every
    point is degenerate (the p = 0 maximally mixed limit) comes back fully
    masked, ``collapsed``, instead of raising.
    """
    planes, degenerate = _unit_planes((field.s1, field.s2, field.s3), field.vector_norm(),
                                      field.mask)
    return UnitVectorField(np.moveaxis(planes, 0, -1), degenerate, field.grid)


def _vector_norm(s1, s2, s3) -> np.ndarray:
    """sqrt(s1^2 + s2^2 + s3^2) in a new array, the squares summed in that
    order; the second term of each sum is a work array (:mod:`._workspace`)."""
    norm = np.square(s1)
    with _workspace.frame() as take:
        term = take(norm.shape)
        np.add(norm, np.square(s2, out=term), out=norm)
        np.add(norm, np.square(s3, out=term), out=norm)
    return np.sqrt(norm, out=norm)


def _unit_planes(components, norm: np.ndarray, mask: np.ndarray, out=None):
    """The (3, ...) planes of (S1, S2, S3) / ``norm``, zero on the degenerate
    set (``norm`` < DEGENERACY_EPS, or ``mask``), and that set.  The planes
    are written into ``out`` when it is given, which may be ``components``
    itself, else into a new array."""
    degenerate = (norm < DEGENERACY_EPS) | mask
    planes = np.empty((3,) + norm.shape) if out is None else out
    keep = ~degenerate
    for component, plane in zip(components, planes):
        np.divide(component, norm, out=plane, where=keep)
        np.copyto(plane, 0.0, where=degenerate)
    return planes, degenerate
