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

from .biphoton import DensityMatrix4, HybridStateSpec, _as_matrix, pure_state, purity

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

_PAULI = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


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

    def projector_a(self) -> np.ndarray:
        return np.kron(np.outer(self.state_a, self.state_a.conj()), np.eye(2))

    def projector_b(self) -> np.ndarray:
        return np.kron(np.eye(2), np.outer(self.state_b, self.state_b.conj()))


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
_PROJECTORS_A = np.array([s.projector_a() for s in _SETTINGS])
_PROJECTORS_B = np.array([s.projector_b() for s in _SETTINGS])


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
            if np.any(arr < 0):
                raise ValueError(f"{name} must be non-negative")
            setattr(self, name, arr)
        if not self.window > 0:
            raise ValueError("coincidence window must be positive")
        if not self.duration > 0:
            raise ValueError("integration duration must be positive")

    def accidentals(self) -> np.ndarray:
        """Per-setting accidental estimate T * A * B."""
        return self.window * self.singles_a * self.singles_b


def simulate_counts(
    rho,
    settings: list[MeasurementSetting] | None = None,
    *,
    pair_rate: float,
    noise_rate_a: float = 0.0,
    noise_rate_b: float = 0.0,
    window: float = 25e-9,
    duration: float = 1.0,
    mode: str = "deterministic",
    seed: int | None = None,
) -> TomographyRecord:
    """Simulate coincidence and singles counts for all settings.

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
    settings : list of MeasurementSetting, optional
        Defaults to the canonical 36.
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
        RNG seed for poisson mode.
    """
    if not all(map(math.isfinite, (pair_rate, noise_rate_a, noise_rate_b, window, duration))):
        raise ValueError("rates, window and duration must be finite")
    if pair_rate < 0 or noise_rate_a < 0 or noise_rate_b < 0:
        raise ValueError("rates must be non-negative")
    if window <= 0 or duration <= 0:
        raise ValueError("window and duration must be positive")
    if mode not in ("deterministic", "poisson"):
        raise ValueError(f"unknown sampling mode {mode!r}")
    m = _as_matrix(rho)
    if settings is None:
        proj, proj_a, proj_b = _PROJECTORS, _PROJECTORS_A, _PROJECTORS_B
    else:
        proj = np.array([s.projector() for s in settings])
        proj_a = np.array([s.projector_a() for s in settings])
        proj_b = np.array([s.projector_b() for s in settings])
    p_joint = np.einsum("kij,ji->k", proj, m).real
    p_a = np.einsum("kij,ji->k", proj_a, m).real
    p_b = np.einsum("kij,ji->k", proj_b, m).real
    singles_a = duration * (pair_rate * p_a + noise_rate_a)
    singles_b = duration * (pair_rate * p_b + noise_rate_b)
    coinc = duration * pair_rate * p_joint + window * singles_a * singles_b
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


def average_quantum_contrast(record: TomographyRecord, cap: float = QC_CAP) -> float:
    """Average quantum contrast, (1/(n T)) * sum of C/(A*B) over settings.

    Settings whose singles product is zero carry no accidental estimate;
    they are excluded from the average with a warning.  The result is
    capped at ``cap`` so vanishing accidentals report a sentinel, never
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
        return cap
    terms = record.coincidences[valid] / (record.window * ab[valid])
    value = float(np.mean(terms))
    return min(value, cap)


# --- reconstruction ---------------------------------------------------------

_PAULI_LABELS = [(mu, nu) for mu in range(4) for nu in range(4)]
_PAULI_BASIS = np.array([np.kron(_PAULI[mu], _PAULI[nu]) for mu, nu in _PAULI_LABELS])
# design matrix: Tr[Pi_k rho] = (1/4) sum_c design[k, c] * r_c
_DESIGN = np.einsum("kij,cji->kc", _PROJECTORS, _PAULI_BASIS).real / 4.0


def linear_inversion(record: TomographyRecord, subtract_accidentals: bool = True) -> DensityMatrix4:
    """Least-squares state estimate from a tomography record.

    Accidentals are subtracted per setting before the frequencies are
    normalized (the complete projector set sums to 9 * I, so Born
    probabilities sum to 9).  The estimate is Hermitian with unit trace by
    construction but may carry slightly negative eigenvalues, reported via
    ``min_eigenvalue`` rather than repaired.
    """
    counts = record.coincidences - record.accidentals() if subtract_accidentals \
        else record.coincidences.copy()
    total = counts.sum()
    if total <= 0:
        raise ValueError("record carries no net signal counts")
    freqs = 9.0 * counts / total
    coeffs, *_ = np.linalg.lstsq(_DESIGN[:, 1:], freqs - _DESIGN[:, 0], rcond=None)
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


def _poisson_nll_grad(t, counts, background, scale, projectors):
    """Negative Poisson log-likelihood and its gradient in the Cholesky
    parametrization rho = L L^dag / Tr(L L^dag)."""
    chol = _params_to_cholesky(t)
    gram = chol @ chol.conj().T
    tau = np.trace(gram).real
    rho = gram / tau
    mu = scale * np.einsum("kij,ji->k", projectors, rho).real + background
    mu = np.maximum(mu, 1e-300)
    nll = float(np.sum(mu - counts * np.log(mu)))
    weights = scale * (1.0 - counts / mu)
    gmat = np.einsum("k,kij->ij", weights, projectors)
    hmat = (gmat - np.trace(gmat @ rho).real * np.eye(4)) / tau
    wmat = hmat @ chol
    grad = list(2.0 * np.real(np.diag(wmat)))
    for row in range(4):
        for col in range(row):
            grad += [2.0 * wmat[row, col].real, 2.0 * wmat[row, col].imag]
    return nll, np.array(grad)


@dataclass
class MleResult:
    """Physical state estimate with optimizer diagnostics."""

    rho: DensityMatrix4
    log_likelihood: float
    iterations: int
    converged: bool


def mle_reconstruct(
    record: TomographyRecord,
    init: DensityMatrix4 | None = None,
    max_iters: int = 1000,
    tol: float = 1e-14,
) -> MleResult:
    """Maximum-likelihood state estimate over the physical cone.

    Maximizes the Poisson log-likelihood of the coincidence counts with the
    per-setting accidental estimate as a known background, over
    rho = L L^dag / Tr(L L^dag) with L lower triangular (16 real
    parameters), by L-BFGS with the analytic gradient.  The signal scale is
    estimated from the record totals.  Non-convergence returns the best
    iterate with ``converged`` False and a warning.

    Parameters
    ----------
    record : TomographyRecord
    init : DensityMatrix4, optional
        Starting point; defaults to the eigenvalue-clipped linear inversion.
    max_iters : int
    tol : float
        Relative objective tolerance passed to the optimizer.
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
    evals, evecs = np.linalg.eigh(init.matrix)
    evals = np.clip(evals, 1e-8, None)
    start = (evecs * evals) @ evecs.conj().T
    start /= np.trace(start).real
    t0 = _cholesky_to_params(np.linalg.cholesky(start))
    from scipy.optimize import minimize  # most of the import time of the package

    res = minimize(
        _poisson_nll_grad, t0, args=(counts, background, scale, _PROJECTORS),
        jac=True, method="L-BFGS-B",
        options={"maxiter": max_iters, "ftol": tol, "gtol": 1e-12},
    )
    chol = _params_to_cholesky(res.x)
    gram = chol @ chol.conj().T
    rho = gram / np.trace(gram).real
    rho = 0.5 * (rho + rho.conj().T)
    converged = bool(res.success)
    if not converged:
        warnings.warn(
            f"MLE did not converge after {res.nit} iterations: {res.message}",
            stacklevel=2)
    return MleResult(
        rho=DensityMatrix4(rho, noise_weight=None),
        log_likelihood=-float(res.fun),
        iterations=int(res.nit),
        converged=converged,
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
    """Standard entanglement witnesses of a state against the ideal pure state."""
    target = pure_state(target_spec)
    return WitnessReport(
        purity=purity(rho),
        concurrence=concurrence(rho),
        fidelity=fidelity(rho, target),
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
