"""Hybrid biphoton states, the isotropic noise channel, and contrast relations.

The two-photon state couples a two-dimensional orbital-angular-momentum
subspace of photon A (charges ell1, ell2) to the polarization of photon B
(labels P1, P2).  Density matrices use the fixed product-basis ordering

    {|ell1,P1>, |ell1,P2>, |ell2,P1>, |ell2,P2>}

throughout the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
PURITY_TOL = 1e-8
# d of the closed-form contrast and purity relations: each photon is a qubit
_D = 2


@dataclass(frozen=True)
class HybridStateSpec:
    """Specification of the pure hybrid state.

    The state is (|ell1,P1> + exp(i*delta)|ell2,P2>)/sqrt(2): equal-weight
    superposition of two OAM charges on photon A, each tagged with one of
    two orthogonal polarizations on photon B, with relative phase delta.
    """

    ell1: int
    ell2: int
    delta: float = 0.0

    def __post_init__(self):
        try:  # math.isfinite would overflow on integers beyond float range
            integral = int(self.ell1) == self.ell1 and int(self.ell2) == self.ell2
        except (OverflowError, ValueError):  # int() of inf or nan
            raise ValueError("topological charges must be finite integers") from None
        if not integral:
            raise ValueError("topological charges must be integers")
        if not math.isfinite(self.delta):
            raise ValueError("relative phase must be finite")

    @property
    def delta_ell(self) -> int:
        return self.ell2 - self.ell1


@dataclass
class DensityMatrix4:
    """A 4x4 density matrix on the ell-subspace (x) polarization space.

    ``noise_weight`` records the isotropic channel weight p when the matrix
    was produced by :func:`pure_state` (p = 1) or
    :func:`apply_isotropic_noise`; it is ``None`` for reconstructed matrices.

    Hermiticity and unit trace are always enforced.  The eigenvalue floor is
    only enforced when ``require_physical`` is set, since linear-inversion
    tomography legitimately produces slightly negative eigenvalues.
    """

    matrix: np.ndarray
    noise_weight: float | None = None
    require_physical: bool = True
    min_eigenvalue: float = field(init=False)

    def __post_init__(self):
        m = _as_matrix(self.matrix)
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > TRACE_TOL:
            raise ValueError("density matrix trace must be 1")
        self.matrix = m
        self.min_eigenvalue = float(np.linalg.eigvalsh(m)[0])
        if self.require_physical and self.min_eigenvalue < EIGENVALUE_FLOOR:
            raise ValueError(
                f"density matrix has a negative eigenvalue ({self.min_eigenvalue:.3e})"
            )


def _as_matrix(rho) -> np.ndarray:
    """The complex 4x4 array of ``rho``, which must have finite entries."""
    if isinstance(rho, DensityMatrix4):
        return rho.matrix
    m = np.asarray(rho, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("density matrix entries must be finite")
    return m


def _check_weight(p: float) -> None:
    """Raise ValueError unless the channel weight ``p`` lies in [0, 1] (NaN does not)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"noise weight p must lie in [0, 1], got {p}")


def pure_state(spec: HybridStateSpec) -> DensityMatrix4:
    """Rank-1 projector onto (|ell1,P1> + exp(i*delta)|ell2,P2>)/sqrt(2).

    In the package basis ordering the state vector is
    (1, 0, 0, exp(i*delta))/sqrt(2).
    """
    psi = _state_vector(spec)
    return DensityMatrix4(np.outer(psi, psi.conj()), noise_weight=1.0)


def _state_vector(spec: HybridStateSpec) -> np.ndarray:
    """The pure state's vector (1, 0, 0, exp(i*delta))/sqrt(2) in the package basis."""
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0 / math.sqrt(2.0)
    psi[3] = np.exp(1j * spec.delta) / math.sqrt(2.0)
    return psi


def apply_isotropic_noise(rho_pure: DensityMatrix4, p: float) -> DensityMatrix4:
    """Mix a pure state with the maximally mixed state.

    Returns p*rho + (1-p)/4 * I.  The input must be pure (within
    ``PURITY_TOL``); p = 1 returns the input state, p = 0 the maximally
    mixed state I/4.

    Parameters
    ----------
    rho_pure : DensityMatrix4
        Pure input state.
    p : float
        Surviving signal weight, 0 <= p <= 1.
    """
    _check_weight(p)
    m = _as_matrix(rho_pure)
    if abs(np.trace(m @ m).real - 1.0) > PURITY_TOL:
        raise ValueError("isotropic channel input must be a pure state")
    return DensityMatrix4(_isotropic_mix(m, p), noise_weight=float(p))


def _isotropic_mix(m: np.ndarray, p):
    """p m + (1 - p) I/4, for one weight or a (K, 1, 1) array of weights."""
    return p * m + (1.0 - p) / 4.0 * np.eye(4)


def purity(rho) -> float:
    """Tr(rho^2); 1 for pure states, 1/4 for the 4x4 maximally mixed state.

    For outputs of the isotropic channel at weight p this equals
    p^2 + (1 - p^2)/4.
    """
    return float(_purities(_as_matrix(rho)[None])[0])


def _purities(mats: np.ndarray) -> np.ndarray:
    """Tr(rho^2) of each matrix of a (K, 4, 4) stack, which must all be Hermitian."""
    if np.max(np.abs(mats - mats.conj().swapaxes(-1, -2)), initial=0.0) > HERMITICITY_TOL:
        raise ValueError("purity requires a Hermitian matrix")
    return np.trace(mats @ mats, axis1=-2, axis2=-1).real


def channel_purity(p: float) -> float:
    """Closed-form purity of the channel output, p^2 + (1 - p^2)/d^2."""
    return p * p + (1.0 - p * p) / (_D * _D)


def contrast_from_p(p: float) -> float:
    """Quantum contrast implied by signal weight p: (1 - p + p*d)/(1 - p).

    Diverges as p -> 1 (noiseless limit); returns ``inf`` at p = 1.
    """
    _check_weight(p)
    if p == 1.0:
        return math.inf
    return (1.0 - p + p * _D) / (1.0 - p)


def contrast_to_p(qc: float) -> float:
    """Signal weight p from quantum contrast: (Qc - 1)/(Qc - 1 + d).

    Qc = 1 (pure accidentals) maps to p = 0, Qc = inf to p = 1; NaN raises.
    """
    if not qc >= 1.0:  # NaN included
        raise ValueError(f"quantum contrast must be >= 1, got {qc}")
    if qc == math.inf:
        return 1.0
    return (qc - 1.0) / (qc - 1.0 + _D)


def contrast_to_purity(qc: float) -> float:
    """Purity of the state at a given quantum contrast.

    Evaluates gamma = [d(Qc^2 - 2Qc + 2) + 2(Qc - 1)] / [d (d + Qc - 1)^2],
    the composition of :func:`contrast_to_p` with the channel purity.
    """
    if not qc >= 1.0:  # NaN included
        raise ValueError(f"quantum contrast must be >= 1, got {qc}")
    if qc == math.inf:
        return 1.0
    num = _D * (qc * qc - 2.0 * qc + 2.0) + 2.0 * (qc - 1.0)
    den = _D * (_D + qc - 1.0) ** 2
    return num / den


def _contrast_to_purity_quadratic(qc: float) -> float:
    # equivalent d=2 form, (1/4)[3((Qc-1)/(Qc+1))^2 + 1]; kept for cross-checks
    ratio = (qc - 1.0) / (qc + 1.0)
    return 0.25 * (3.0 * ratio * ratio + 1.0)
