"""Coincidence tomography: 36-setting simulation, reconstruction, witnesses.

Both photons are projected onto the six eigenstates of the three Pauli
bases (an overcomplete mutually-unbiased set), giving 36 coincidence
settings.  Counts follow the accidental model N_acc = T * A * B per
setting, where A and B are the singles in each arm during the integration
window and T is the coincidence window.  The average quantum contrast over
all 36 settings, Qc = (1/36T) sum C/(A B), is the noise diagnostic.

Reconstruction subtracts the per-setting accidental estimate (linear
inversion) or models it as a known Poisson background (maximum
likelihood), so a record generated from a channel output at weight p is
reconstructed back to that state.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .biphoton import DensityMatrix4, HybridStateSpec, _as_matrix, _state_vector, purity
from .stokesfield import _PAULI

QC_CAP = 1e12

_BASIS_STATES = {
    ("z", +1): np.array([1.0, 0.0], dtype=complex),
    ("z", -1): np.array([0.0, 1.0], dtype=complex),
    ("x", +1): np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
    ("x", -1): np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0),
    ("y", +1): np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0),
    ("y", -1): np.array([1.0, -1.0j], dtype=complex) / math.sqrt(2.0),
}
_BASIS_ORDER = [("z", +1), ("z", -1), ("x", +1), ("x", -1), ("y", +1), ("y", -1)]


@dataclass(frozen=True)
class MeasurementSetting:
    """One joint projector: a qubit state per photon, with basis labels."""

    basis_a: str
    eigen_a: int
    basis_b: str
    eigen_b: int
    state_a: np.ndarray
    state_b: np.ndarray

    def projector(self) -> np.ndarray:
        pa = np.outer(self.state_a, self.state_a.conj())
        pb = np.outer(self.state_b, self.state_b.conj())
        return np.kron(pa, pb)


def settings_36() -> list[MeasurementSetting]:
    """The 36 joint settings, photon A outer loop, photon B inner.

    Per side the order is z+, z-, x+, x-, y+, y-; the first setting
    therefore projects onto |ell1, P1>.
    """
    out = []
    for ba, ea in _BASIS_ORDER:
        for bb, eb in _BASIS_ORDER:
            out.append(
                MeasurementSetting(
                    basis_a=ba, eigen_a=ea, basis_b=bb, eigen_b=eb,
                    state_a=_BASIS_STATES[(ba, ea)], state_b=_BASIS_STATES[(bb, eb)],
                )
            )
    return out


_SETTINGS = settings_36()
_PROJECTORS = np.array([s.projector() for s in _SETTINGS])
_PROJECTORS_A = np.array([np.kron(np.outer(s.state_a, s.state_a.conj()), np.eye(2))
                          for s in _SETTINGS])
_PROJECTORS_B = np.array([np.kron(np.eye(2), np.outer(s.state_b, s.state_b.conj()))
                          for s in _SETTINGS])


@dataclass
class TomographyRecord:
    """Counts of one tomography run plus the generator's provenance.

    ``coincidences``, ``singles_a`` and ``singles_b`` hold one entry per
    setting in :func:`settings_36` order.  Deterministic records carry
    expectation values (non-integer); Poisson records carry sampled counts.
    """

    coincidences: np.ndarray
    singles_a: np.ndarray
    singles_b: np.ndarray
    window: float
    duration: float
    pair_rate: float
    noise_rate_a: float
    noise_rate_b: float
    mode: str = "deterministic"
    seed: int | None = None

    def __post_init__(self):
        for name in ("coincidences", "singles_a", "singles_b"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (36,):
                raise ValueError(f"{name} must have 36 entries")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            if np.any(arr < 0):
                raise ValueError(f"{name} must be non-negative")
            setattr(self, name, arr)
        if not 0 < self.window < math.inf:
            raise ValueError("coincidence window must be positive and finite")
        if not 0 < self.duration < math.inf:
            raise ValueError("integration duration must be positive and finite")

    def accidentals(self) -> np.ndarray:
        """Per-setting accidental estimate T * A * B."""
        return self.window * self.singles_a * self.singles_b


def simulate_counts(
    rho,
    *,
    pair_rate: float,
    noise_rate_a: float = 0.0,
    noise_rate_b: float = 0.0,
    window: float = 25e-9,
    duration: float = 1.0,
    mode: str = "deterministic",
    seed: int | None = None,
) -> TomographyRecord:
    """Simulate coincidence and singles counts for the 36 settings.

    Per setting, the expected counts are

        A = duration * (pair_rate * <Pi_A (x) I> + noise_rate_a)
        B = duration * (pair_rate * <I (x) Pi_B> + noise_rate_b)
        C = duration * pair_rate * <Pi_A (x) Pi_B> + T * A * B

    i.e. signal coincidences plus accidentals from the singles, with the
    singles fed by both projected signal and flat noise.  ``deterministic``
    mode returns the expectations; ``poisson`` mode samples every count
    independently with the given seed.

    Parameters
    ----------
    rho : DensityMatrix4 or (4, 4) array
        Signal state emitted by the source.
    pair_rate : float
        Signal pair rate in Hz.
    noise_rate_a, noise_rate_b : float
        Flat noise singles rates in Hz.
    window : float
        Coincidence window T in seconds.
    duration : float
        Integration time in seconds.
    mode : {"deterministic", "poisson"}
    seed : int, optional
        RNG seed for poisson mode; a negative seed raises in either mode.
    """
    if not all(map(math.isfinite, (pair_rate, noise_rate_a, noise_rate_b, window, duration))):
        raise ValueError("rates, window and duration must be finite")
    if pair_rate < 0 or noise_rate_a < 0 or noise_rate_b < 0:
        raise ValueError("rates must be non-negative")
    if window <= 0 or duration <= 0:
        raise ValueError("window and duration must be positive")
    if mode not in ("deterministic", "poisson"):
        raise ValueError(f"unknown sampling mode {mode!r}")
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    m = _as_matrix(rho)
    p_joint = np.einsum("kij,ji->k", _PROJECTORS, m).real
    p_a = np.einsum("kij,ji->k", _PROJECTORS_A, m).real
    p_b = np.einsum("kij,ji->k", _PROJECTORS_B, m).real
    # a Born probability of 0 can round to -1e-32: clip the expected counts
    singles_a = np.maximum(duration * (pair_rate * p_a + noise_rate_a), 0.0)
    singles_b = np.maximum(duration * (pair_rate * p_b + noise_rate_b), 0.0)
    coinc = np.maximum(duration * pair_rate * p_joint + window * singles_a * singles_b, 0.0)
    if mode == "poisson":
        rng = np.random.default_rng(seed)
        singles_a = rng.poisson(singles_a).astype(float)
        singles_b = rng.poisson(singles_b).astype(float)
        coinc = rng.poisson(coinc).astype(float)
    return TomographyRecord(
        coincidences=coinc, singles_a=singles_a, singles_b=singles_b,
        window=window, duration=duration, pair_rate=pair_rate,
        noise_rate_a=noise_rate_a, noise_rate_b=noise_rate_b,
        mode=mode, seed=seed,
    )


def noise_rate_for_contrast(
    target_qc: float,
    *,
    pair_rate: float,
    window: float = 25e-9,
    duration: float = 1.0,
) -> float:
    """Flat noise singles rate (per arm) hitting a target average contrast.

    Inverts Qc = 1 + pair_rate / (4 T duration (pair_rate/2 + n)^2), valid
    for the maximally-mixed-marginal states this package produces.  The
    highest reachable contrast (n = 0) is 1 + 1/(T * duration * pair_rate);
    targets beyond it clamp to n = 0 with a warning.
    """
    if target_qc <= 1.0:
        raise ValueError("target contrast must exceed 1")
    if pair_rate <= 0:
        raise ValueError("pair rate must be positive")
    qc_max = 1.0 + 1.0 / (window * duration * pair_rate)
    if target_qc > qc_max:
        warnings.warn(
            f"target contrast {target_qc:g} exceeds the source ceiling {qc_max:g}; "
            "using zero noise", stacklevel=2)
        return 0.0
    n = math.sqrt(pair_rate / (4.0 * window * duration * (target_qc - 1.0))) - pair_rate / 2.0
    return max(n, 0.0)


def average_quantum_contrast(record: TomographyRecord) -> float:
    """Average quantum contrast, (1/(n T)) * sum of C/(A*B) over settings.

    Settings whose singles product is zero carry no accidental estimate;
    they are excluded from the average with a warning.  The result is
    capped at ``QC_CAP`` so vanishing accidentals report a sentinel, never
    infinity.
    """
    ab = record.singles_a * record.singles_b
    valid = ab > 0
    excluded = int(np.count_nonzero(~valid))
    if excluded:
        warnings.warn(
            f"{excluded} setting(s) with zero singles product excluded from the "
            "contrast average", stacklevel=2)
    if not np.any(valid):
        warnings.warn("no valid settings; returning capped contrast", stacklevel=2)
        return QC_CAP
    terms = record.coincidences[valid] / (record.window * ab[valid])
    value = float(np.mean(terms))
    return min(value, QC_CAP)


# --- reconstruction ---------------------------------------------------------

_PAULI_LABELS = [(mu, nu) for mu in range(4) for nu in range(4)]
_PAULI_BASIS = np.array([np.kron(_PAULI[mu], _PAULI[nu]) for mu, nu in _PAULI_LABELS])
# design matrix: Tr[Pi_k rho] = (1/4) sum_c design[k, c] * r_c
_DESIGN = np.einsum("kij,cji->kc", _PROJECTORS, _PAULI_BASIS).real / 4.0
# The columns of the design are orthogonal: D^T D is diagonal, 3/4 for the
# single-photon Paulis and 1/4 for the correlators, so the least-squares
# coefficients are one projection per column.
_DESIGN_NORMS = np.einsum("kc,kc->c", _DESIGN[:, 1:], _DESIGN[:, 1:])


def linear_inversion(record: TomographyRecord) -> DensityMatrix4:
    """Least-squares state estimate from a tomography record.

    Accidentals are subtracted per setting before the frequencies are
    normalized (the complete projector set sums to 9 * I, so Born
    probabilities sum to 9).  The estimate is Hermitian with unit trace by
    construction but may carry slightly negative eigenvalues, reported via
    ``min_eigenvalue`` rather than repaired.
    """
    counts = record.coincidences - record.accidentals()
    total = counts.sum()
    if total <= 0:
        raise ValueError("record carries no net signal counts")
    freqs = 9.0 * counts / total
    coeffs = (freqs - _DESIGN[:, 0]) @ _DESIGN[:, 1:] / _DESIGN_NORMS
    r = np.concatenate([[1.0], coeffs])
    rho = np.einsum("c,cij->ij", r, _PAULI_BASIS) / 4.0
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix4(rho, noise_weight=None, require_physical=False)


def _params_to_cholesky(t: np.ndarray) -> np.ndarray:
    ch = np.zeros((4, 4), dtype=complex)
    ch[np.diag_indices(4)] = t[:4]
    idx = 4
    for row in range(4):
        for col in range(row):
            ch[row, col] = t[idx] + 1j * t[idx + 1]
            idx += 2
    return ch


def _cholesky_to_params(ch: np.ndarray) -> np.ndarray:
    t = list(np.real(np.diag(ch)))
    for row in range(4):
        for col in range(row):
            t += [ch[row, col].real, ch[row, col].imag]
    return np.array(t)


def _expected_counts(rho, background, scale, projectors=_PROJECTORS):
    """mu_k = scale Tr(Pi_k rho) + background_k for every setting."""
    return scale * (projectors.reshape(len(projectors), 16) @ rho.T.ravel()).real + background


def _nll_grad(rho, counts, background, scale, projectors=_PROJECTORS):
    """Centered Poisson negative log-likelihood of ``rho`` and its gradient.

    Each setting adds mu - c - c log(mu / c), with mu = scale Tr(Pi rho) +
    background, which is 0 at mu = c: near the optimum the sum is of the
    order of the number of settings, not the ~1e7 of sum(mu - c log mu), so
    the backtracking tests compare it at full precision.  The gradient is
    G = sum_k scale (1 - c_k / mu_k) Pi_k.  The value is infinite, with no
    gradient, where a setting with counts has mu <= 0.
    """
    mu = _expected_counts(rho, background, scale, projectors)
    seen = counts > 0
    if np.any(mu[seen] <= 0):
        return math.inf, None
    excess = np.divide(mu - counts, counts, out=np.zeros_like(mu), where=seen)
    log_ratio = np.log(np.divide(mu, counts, out=np.ones_like(mu), where=seen))
    # near mu = c, c (x - log1p(x)) with x = mu/c - 1 keeps the precision
    # that cancellation in mu - c - c log(mu/c) loses when mu and c are ~1e6
    np.log1p(excess, out=log_ratio, where=excess > -0.5)
    nll = float(np.sum(np.where(seen, counts * (excess - log_ratio), mu)))
    weights = scale * np.divide(mu - counts, mu, out=np.ones_like(mu), where=seen)
    gmat = (weights @ projectors.reshape(len(projectors), 16)).reshape(4, 4)
    return nll, gmat


def _poisson_nll_grad(t, counts, background, scale, projectors):
    """Centered negative Poisson log-likelihood and its gradient in the
    Cholesky parametrization rho = L L^dag / Tr(L L^dag).

    By the chain rule the gradient is (2/tau)(G - Tr(G rho) I) L, with G the
    gradient in rho of :func:`_nll_grad` and tau = Tr(L L^dag).
    """
    chol = _params_to_cholesky(t)
    gram = chol @ chol.conj().T
    tau = np.trace(gram).real
    rho = gram / tau
    nll, gmat = _nll_grad(rho, counts, background, scale, projectors)
    hmat = (gmat - np.trace(gmat @ rho).real * np.eye(4)) / tau
    return nll, _cholesky_to_params(2.0 * hmat @ chol)


def _project(mat):
    """Nearest density matrix to a Hermitian ``mat`` in Frobenius norm.

    Its eigenvalues are projected onto the probability simplex; returns the
    matrix with its eigenvalues (ascending, exact zeros off the support)
    and eigenvectors.
    """
    evals, evecs = np.linalg.eigh(mat)
    desc = evals[::-1]
    shifts = (np.cumsum(desc) - 1.0) / np.arange(1, 5)
    shift = shifts[np.count_nonzero(desc > shifts) - 1]
    evals = np.maximum(evals - shift, 0.0)
    return (evecs * evals) @ evecs.conj().T, evals, evecs


def _factor_coordinates(rank):
    """Real coordinates of a lower-trapezoidal (4, rank) factor with a real
    diagonal: row, column and unit (1 or 1j) of each."""
    rows, cols = np.tril_indices(4, 0, rank)
    off = rows != cols
    return (np.concatenate([rows, rows[off]]), np.concatenate([cols, cols[off]]),
            np.concatenate([np.ones(len(rows)), np.full(np.count_nonzero(off), 1j)]))


_FACTOR_COORDINATES = {rank: _factor_coordinates(rank) for rank in range(1, 5)}
# halvings of a Newton step; doublings of the gradient step's curvature estimate
_NEWTON_BACKTRACKS = 12
_GRADIENT_BACKTRACKS = 60
# KKT gap at which mle_reconstruct stops, relative to the total coincidence count
_MLE_TOL = 1e-9
# Relative resolution of the NLL in the descent tests: near the optimum the
# decrease a step can make falls below the rounding of the NLL, and a test
# that demanded it would stop the loop short of its gap tolerance.
_NLL_RESOLUTION = 1e-12


def _newton_step(rho, evals, evecs, gmat, nll, counts, background, scale):
    """Newton step over the density matrices of the rank of ``rho``.

    Projected gradient alone converges slowly where the optimum is rank
    deficient and eigenvectors of small weight still have to turn.  In the
    eigenbasis of rho, nearby states of its rank r are A A^dag / |A|^2 with
    A lower trapezoidal (4, r) and real diagonal, and rho itself is
    A0 = diag(sqrt(evals)).  The model is the Hessian of the likelihood
    through the first-order change of rho, plus Tr((G - nu I) dA dA^dag)
    from its second-order change (nu = Tr(G rho), the multiplier of the unit
    trace), solved with the trace held fixed to first order.  Returns the
    new (rho, nll, G) after an Armijo backtrack along the step, or None if
    the step does not descend.
    """
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    rank = int(np.count_nonzero(evals > 0))
    rows, cols, units = _FACTOR_COORDINATES[rank]
    proj = evecs.conj().T @ _PROJECTORS @ evecs
    grot = evecs.conj().T @ gmat @ evecs
    nu = float(evals @ grot.diagonal().real)
    weight = 2.0 * np.sqrt(evals[cols])
    # d rho / d theta_j = sqrt(evals_col) (u e_{row,col} + conj(u) e_{col,row})
    jac = scale * weight * (units * proj[:, cols, rows]).real
    grad = weight * (units * grot[cols, rows]).real
    trace = np.where(rows == cols, weight, 0.0)
    mu = _expected_counts(rho, background, scale)
    poisson = np.divide(counts, mu**2, out=np.zeros_like(mu), where=counts > 0)
    # Tr((G - nu I) dA dA^dag) couples the coordinates of one column of A
    shifted = (grot - nu * np.eye(4))[rows[None, :], rows[:, None]]
    second = 2.0 * (units[:, None] * units.conj() * shifted).real * (cols[:, None] == cols)
    hess = jac.T @ (poisson[:, None] * jac) + second
    size = len(rows)
    kkt = np.zeros((size + 1, size + 1))
    kkt[:size, :size] = hess
    kkt[:size, size] = kkt[size, :size] = trace
    try:
        theta = np.linalg.solve(kkt, np.append(-grad, 0.0))[:size]
    except np.linalg.LinAlgError:
        return None
    slope = float(grad @ theta)
    if not slope < 0:
        return None
    factor = evecs[:, :rank] * np.sqrt(evals[:rank])
    step_dir = np.zeros((4, rank), dtype=complex)
    np.add.at(step_dir, (rows, cols), theta * units)
    step_dir = evecs @ step_dir
    slack = _NLL_RESOLUTION * (1.0 + nll)
    step = 1.0
    for _ in range(_NEWTON_BACKTRACKS):
        trial = factor + step * step_dir
        new = trial @ trial.conj().T
        new /= np.trace(new).real
        new_nll, new_gmat = _nll_grad(new, counts, background, scale)
        if new_nll <= nll + 1e-4 * step * slope + slack:
            return new, new_nll, new_gmat
        step *= 0.5
    return None


def _kkt_gap(rho, gmat) -> float:
    """Tr(G rho) - lambda_min(G): zero exactly at the constrained optimum,
    and by convexity an upper bound on the NLL above its minimum."""
    return float(np.trace(gmat @ rho).real - np.linalg.eigvalsh(gmat)[0])


@dataclass
class MleResult:
    """Physical state estimate with optimizer diagnostics.

    ``gap`` is the KKT gap Tr(G rho) - lambda_min(G) of the estimate, in
    units of the log-likelihood; ``converged`` is whether it reached the
    requested tolerance.
    """

    rho: DensityMatrix4
    log_likelihood: float
    iterations: int
    converged: bool
    gap: float


def mle_reconstruct(
    record: TomographyRecord,
    init: DensityMatrix4 | None = None,
    max_iters: int = 1000,
) -> MleResult:
    """Maximum-likelihood state estimate over the density matrices.

    Maximizes the Poisson log-likelihood of the coincidence counts with the
    per-setting accidental estimate as a known background.  The signal
    scale is estimated from the record totals.  Each iteration takes one
    projected-gradient step from rho (its curvature estimate is halved,
    then doubled until the step passes the sufficient-decrease test; the
    projection is an eigendecomposition whose eigenvalues are projected
    onto the simplex), then one Newton step at the rank of the iterate.
    The loop stops when the gradient step makes no descent, or once the
    KKT gap Tr(G rho) - lambda_min(G), with G = sum_k s (1 - c_k/mu_k) Pi_k
    the gradient, is at most 1e-9 times the total coincidence count (at
    least 1); the gap bounds how far the likelihood is from its maximum.
    Non-convergence returns the last iterate with ``converged`` False and a
    warning.

    Parameters
    ----------
    record : TomographyRecord
    init : DensityMatrix4, optional
        Starting point, projected onto the density matrices; defaults to
        the linear inversion.
    max_iters : int
    """
    background = record.accidentals()
    counts = record.coincidences
    scale = (counts - background).sum() / 9.0
    if scale <= 0:
        scale = max(counts.sum(), 1.0) / 9.0
    if init is None:
        try:
            init = linear_inversion(record)
        except ValueError:
            init = DensityMatrix4(np.eye(4) / 4.0, require_physical=False)
    args = (counts, background, scale)
    rho = _project(init.matrix)[0]
    nll, gmat = _nll_grad(rho, *args)
    if gmat is None:  # a setting with counts has no expected counts: mix in I/4
        rho = 0.99 * rho + 0.0025 * np.eye(4)
        nll, gmat = _nll_grad(rho, *args)
    tol_abs = _MLE_TOL * max(counts.sum(), 1.0)  # a record without counts is optimal anywhere
    lipschitz = scale
    gap = _kkt_gap(rho, gmat)
    iterations = 0
    while iterations < max_iters:
        iterations += 1
        slack = _NLL_RESOLUTION * (1.0 + nll)
        lipschitz *= 0.5  # the step may grow again once past a steep region
        for _ in range(_GRADIENT_BACKTRACKS):
            new, evals, evecs = _project(rho - gmat / lipschitz)
            new_nll, new_gmat = _nll_grad(new, *args)
            diff = new - rho
            if new_nll <= (nll + np.vdot(gmat, diff).real
                           + 0.5 * lipschitz * np.vdot(diff, diff).real + slack):
                break
            lipschitz *= 2.0
        if not new_nll <= nll + slack:  # no descent
            break
        rho, nll, gmat = new, new_nll, new_gmat
        newton = _newton_step(rho, evals, evecs, gmat, nll, *args)
        if newton is not None:
            rho, nll, gmat = newton
        gap = _kkt_gap(rho, gmat)
        if gap <= tol_abs:
            break
    converged = bool(gap <= tol_abs)
    if not converged:
        warnings.warn(
            f"MLE did not converge after {iterations} iterations: KKT gap {gap:.3g} "
            f"above {tol_abs:.3g}", stacklevel=2)
    mu = np.maximum(_expected_counts(rho, background, scale), 1e-300)
    return MleResult(
        rho=DensityMatrix4(0.5 * (rho + rho.conj().T), noise_weight=None),
        log_likelihood=float(np.sum(counts * np.log(mu) - mu)),
        iterations=iterations,
        converged=converged,
        gap=gap,
    )


# --- witnesses --------------------------------------------------------------

_SPIN_FLIP = np.kron(_PAULI[2], _PAULI[2])


def concurrence(rho) -> float:
    """Two-qubit concurrence via the spin-flipped state.

    max(0, l1 - l2 - l3 - l4) with l_i the decreasing square roots of the
    eigenvalues of rho * (sy (x) sy) rho^* (sy (x) sy); 0 for separable
    states, 1 for Bell states.
    """
    m = _as_matrix(rho)
    evals = np.linalg.eigvalsh(m)
    if evals[0] < -1e-8:
        raise ValueError(f"concurrence needs a physical state (min eigenvalue {evals[0]:.3e})")
    flipped = _SPIN_FLIP @ m.conj() @ _SPIN_FLIP
    lam = np.linalg.eigvals(m @ flipped)
    lam = np.sqrt(np.clip(lam.real, 0.0, None))
    lam.sort()
    return float(max(0.0, lam[3] - lam[2] - lam[1] - lam[0]))


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    evals, evecs = np.linalg.eigh(m)
    return (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T


def fidelity(rho, target) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho_T) rho sqrt(rho_T)))^2.

    Reduces to <psi|rho|psi> for a pure target.
    """
    m = _as_matrix(rho)
    mt = _as_matrix(target)
    for name, mat in (("state", m), ("target", mt)):
        if np.linalg.eigvalsh(mat)[0] < -1e-8:
            raise ValueError(f"fidelity needs a physical {name}")
    root = _psd_sqrt(mt)
    inner = root @ m @ root
    evals = np.linalg.eigvalsh(inner)
    # drop eigenvalues at roundoff scale: sqrt would inflate them to ~1e-8
    floor = max(evals.max(), 0.0) * 1e-12
    evals = np.where(evals > floor, evals, 0.0)
    val = float(np.sum(np.sqrt(evals)) ** 2)
    return min(val, 1.0)


@dataclass
class WitnessReport:
    """Purity, concurrence and fidelity of a state against a pure target."""

    purity: float
    concurrence: float
    fidelity: float
    against_target: HybridStateSpec


def witness_report(rho, target_spec: HybridStateSpec) -> WitnessReport:
    """Standard entanglement witnesses of a state against the ideal pure state.

    The target is pure, so the fidelity is exactly <psi|rho|psi> with
    |psi> = (1, 0, 0, exp(i*delta))/sqrt(2), clipped to [0, 1]: the value
    :func:`fidelity` takes from eigendecompositions.  A state with an
    eigenvalue below -1e-8 raises ValueError, from :func:`concurrence`.
    """
    m = _as_matrix(rho)
    psi = _state_vector(target_spec)
    return WitnessReport(
        purity=purity(rho),
        concurrence=concurrence(rho),
        fidelity=min(max(float((psi.conj() @ m @ psi).real), 0.0), 1.0),
        against_target=target_spec,
    )


# --- serialization ----------------------------------------------------------

def record_to_csv(record: TomographyRecord, path) -> None:
    """Write a record as CSV with metadata header lines.

    Columns: basis_a, eigen_a, basis_b, eigen_b, coincidences, singles_a,
    singles_b, one row per setting in canonical order.
    """
    lines = [
        f"# window = {record.window!r}",
        f"# duration = {record.duration!r}",
        f"# pair_rate = {record.pair_rate!r}",
        f"# noise_rate_a = {record.noise_rate_a!r}",
        f"# noise_rate_b = {record.noise_rate_b!r}",
        f"# mode = {record.mode}",
        f"# seed = {record.seed}",
        "basis_a,eigen_a,basis_b,eigen_b,coincidences,singles_a,singles_b",
    ]
    for setting, c, a, b in zip(_SETTINGS, record.coincidences,
                                record.singles_a, record.singles_b):
        lines.append(
            f"{setting.basis_a},{setting.eigen_a:+d},{setting.basis_b},"
            f"{setting.eigen_b:+d},{float(c)!r},{float(a)!r},{float(b)!r}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def record_from_csv(path) -> TomographyRecord:
    """Read a record written by :func:`record_to_csv`."""
    meta = {}
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                meta[key.strip()] = value.strip()
            elif not line.startswith("basis_a"):
                rows.append(line.split(","))
    if len(rows) != 36:
        raise ValueError(f"expected 36 setting rows, found {len(rows)}")
    malformed = [",".join(r) for r in rows if len(r) != 7]
    if malformed:
        raise ValueError(f"setting rows need 7 fields, got {malformed[0]!r}")
    missing = [key for key in ("window", "duration") if key not in meta]
    if missing:
        raise ValueError(f"record has no '# {missing[0]} = ...' line")
    expected = [(s.basis_a, s.eigen_a, s.basis_b, s.eigen_b) for s in _SETTINGS]
    got = [(r[0], int(r[1]), r[2], int(r[3])) for r in rows]
    if got != expected:
        raise ValueError("setting rows are not in canonical order")
    seed = meta.get("seed", "None")
    return TomographyRecord(
        coincidences=np.array([float(r[4]) for r in rows]),
        singles_a=np.array([float(r[5]) for r in rows]),
        singles_b=np.array([float(r[6]) for r in rows]),
        window=float(meta["window"]),
        duration=float(meta["duration"]),
        pair_rate=float(meta.get("pair_rate", "nan")),
        noise_rate_a=float(meta.get("noise_rate_a", "nan")),
        noise_rate_b=float(meta.get("noise_rate_b", "nan")),
        mode=meta.get("mode", "deterministic"),
        seed=None if seed == "None" else int(seed),
    )
