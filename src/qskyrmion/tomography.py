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

import itertools
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .biphoton import DensityMatrix4, HybridStateSpec, _as_matrix, _purities, _state_vector
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
    for (ba, ea), state_a in _BASIS_STATES.items():
        for (bb, eb), state_b in _BASIS_STATES.items():
            out.append(
                MeasurementSetting(
                    basis_a=ba, eigen_a=ea, basis_b=bb, eigen_b=eb,
                    state_a=state_a, state_b=state_b,
                )
            )
    return out


def _kron_pairs(f: np.ndarray) -> np.ndarray:
    """np.kron(f[i], f[j]) of each pair of a (6, 2, m) stack ``f``, in settings_36 order."""
    return (f[:, None, :, None, :, None] * f[None, :, None, :, None, :]).reshape(36, 4, -1)


def _real_layout(mats: np.ndarray) -> np.ndarray:
    """A stack of complex 4 x 4 matrices as a real (n, 32) array, row k
    mats[k].view(float): a real combination w @ rows, viewed as complex, is
    sum_k w_k mats[k]."""
    return np.ascontiguousarray(mats).reshape(len(mats), 16).view(float)


_SETTINGS = settings_36()
_BASIS = np.array(list(_BASIS_STATES.values()))
_PHOTON_PROJECTORS = _BASIS[:, :, None] * _BASIS[:, None, :].conj()
_PROJECTORS = _kron_pairs(_PHOTON_PROJECTORS)
# each projector is rank one, Pi_k = v_k v_k^dag with v_k = state_a (x) state_b
_VECTORS = _kron_pairs(_BASIS[:, :, None]).reshape(36, 4)
_DESIGN = _real_layout(_PROJECTORS)


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
    # a photon's marginal sums the joint probabilities over the other's basis pair
    p_a = np.repeat(p_joint.reshape(6, 3, 2).sum(axis=2), 2, axis=1).ravel()
    p_b = np.repeat(p_joint.reshape(3, 2, 6).sum(axis=1), 2, axis=0).ravel()
    # a Born probability of 0 can round to -1e-32: clip the expected counts
    singles_a = np.maximum(duration * (pair_rate * p_a + noise_rate_a), 0.0)
    singles_b = np.maximum(duration * (pair_rate * p_b + noise_rate_b), 0.0)
    coinc = np.maximum(duration * pair_rate * p_joint + window * singles_a * singles_b, 0.0)
    if mode == "poisson":
        # one draw over all 108 counts, in the order of three successive draws
        draws = np.random.default_rng(seed).poisson(np.concatenate([singles_a, singles_b, coinc]))
        singles_a, singles_b, coinc = np.split(draws.astype(float), 3)
    return TomographyRecord(
        coincidences=coinc, singles_a=singles_a, singles_b=singles_b,
        window=window, duration=duration, pair_rate=pair_rate,
        noise_rate_a=noise_rate_a, noise_rate_b=noise_rate_b,
        mode=mode, seed=seed,
    )


def _contrast_ceiling(pair_rate: float, window: float, duration: float) -> float:
    """Highest average contrast a source reaches (at zero noise), 1 + 1/(T duration pair_rate).

    Raises ValueError, naming pair rate x window x duration, where that
    product (or window x duration on the way to it) is below the smallest
    normal double, so that its reciprocal would overflow or lose its
    precision, and where the product is so large that the ceiling rounds to 1.
    """
    span = window * duration
    if not span >= sys.float_info.min:
        raise _source_error(pair_rate, window, duration,
                            "underflows double precision in window x duration")
    product = span * pair_rate
    if not product >= sys.float_info.min:
        raise _source_error(pair_rate, window, duration, "underflows double precision")
    ceiling = 1.0 + 1.0 / product
    if not ceiling > 1.0:
        raise _source_error(pair_rate, window, duration, "leaves no quantum contrast above 1")
    return ceiling


def _source_error(pair_rate: float, window: float, duration: float, problem: str) -> ValueError:
    """A ValueError naming pair rate x window x duration, formed exactly as a
    Decimal: as a double it reads 0 or inf where it underflows or overflows."""
    from decimal import Decimal

    product = Decimal(pair_rate) * Decimal(window) * Decimal(duration)
    return ValueError(f"pair rate x window x duration = {product:.2g} {problem}")


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
    highest reachable contrast is :func:`_contrast_ceiling`; targets beyond
    it clamp to n = 0 with a warning.  A target that is not finite, a pair
    rate, window or duration not positive and finite, or a source whose
    ceiling or noise relation leaves double precision raises ValueError.
    """
    if not 1.0 < target_qc < math.inf:
        raise ValueError(f"target contrast must be finite and exceed 1, got {target_qc}")
    if not all(math.isfinite(v) and v > 0 for v in (pair_rate, window, duration)):
        raise ValueError("pair rate, window and duration must be positive and finite")
    qc_max = _contrast_ceiling(pair_rate, window, duration)
    if target_qc > qc_max:
        warnings.warn(
            f"target contrast {target_qc:g} exceeds the source ceiling {qc_max:g}; "
            "using zero noise", stacklevel=2)
        return 0.0
    scaled = 4.0 * window * duration * (target_qc - 1.0)
    ratio = pair_rate / scaled
    if not (sys.float_info.min <= scaled < math.inf and sys.float_info.min <= ratio < math.inf):
        raise _source_error(pair_rate, window, duration, "puts the noise rate for contrast "
                            f"{target_qc:g} outside double precision")
    return max(math.sqrt(ratio) - pair_rate / 2.0, 0.0)


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

# Per photon the six projectors give sum_P P Tr(P X) = X + Tr(X) I, inverted by
# X -> X - Tr(X) I / 3: rho = sum_k Tr(Pi_k rho) D_k with the dual frame
# D_k = (P_a - I/3) (x) (P_b - I/3), and that sum over frequencies is least squares.
_DUALS = _real_layout(_kron_pairs(_PHOTON_PROJECTORS - np.eye(2) / 3.0))


def linear_inversion(record: TomographyRecord) -> DensityMatrix4:
    """Least-squares state estimate from a tomography record.

    Accidentals are subtracted per setting before the frequencies are
    normalized (the complete projector set sums to 9 * I, so Born
    probabilities sum to 9).  The estimate is Hermitian with unit trace by
    construction but may carry slightly negative eigenvalues, reported via
    ``min_eigenvalue`` rather than repaired.
    """
    counts = record.coincidences - record.accidentals()
    return DensityMatrix4(_dual_frame_estimate(counts), noise_weight=None, require_physical=False)


def _dual_frame_estimate(counts: np.ndarray) -> np.ndarray:
    """The matrix of :func:`linear_inversion` from the net counts (coincidences
    less accidentals), Hermitian with unit trace, unchecked."""
    total = counts.sum()
    if total <= 0:
        raise ValueError("record carries no net signal counts")
    freqs = 9.0 * counts / total
    rho = freqs.dot(_DUALS).view(complex).reshape(4, 4)
    return 0.5 * (rho + rho.conj().T)


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


class _Likelihood:
    """The constants of one record's likelihood, formed once per record.

    ``design`` is the projector stack in the real layout of
    :func:`_real_layout`, a (36, 32) matrix, times ``scale``.  For a
    Hermitian Pi_k, Re Tr(Pi_k rho) = sum_ij Re(Pi_k)_ij Re(rho)_ij +
    Im(Pi_k)_ij Im(rho)_ij, so mu = design @ rho.view(float).ravel() +
    background is one real product, and the gradient sum_k w_k scale Pi_k
    is another, w @ design.  ``seen`` marks the settings with counts,
    ``inverse`` holds 1/c there and 0 elsewhere, and ``unseen`` 1 where
    there are no counts.  ``weights`` (1 - c/mu) and ``c_over_mu`` are
    the ``where=`` targets of :func:`_nll_grad` and :func:`_newton_step`:
    their entries at settings without counts are set to 1 and 0 here and
    never written again.  The kernels that use these constants
    multiply with ``ndarray.dot``, whose call costs less than ``@`` on
    arrays this small.
    """

    __slots__ = ("counts", "background", "scale", "design", "seen", "inverse", "unseen",
                 "weights", "c_over_mu")

    def __init__(self, counts, background, scale, design=_DESIGN):
        self.counts = counts
        self.background = background
        self.scale = scale
        self.design = scale * design
        self.seen = counts > 0
        self.inverse = np.divide(1.0, counts, out=np.zeros_like(counts), where=self.seen)
        self.unseen = 1.0 - self.seen
        self.weights = np.ones_like(counts)
        self.c_over_mu = np.zeros_like(counts)


def _nll_grad(rho, lik: _Likelihood):
    """Centered Poisson negative log-likelihood of ``rho``, its gradient and mu.

    Each setting adds mu - c - c log(mu / c), with mu = scale Tr(Pi rho) +
    background, which is 0 at mu = c: near the optimum the sum is of the
    order of the number of settings, not the ~1e7 of sum(mu - c log mu), so
    the backtracking tests compare it at full precision.  The gradient is
    G = sum_k scale (1 - c_k / mu_k) Pi_k.  mu and G are one real product
    each with ``lik.design``, and a setting without counts takes its ratio
    mu / c = 1 and weight 1 from the constants of ``lik``.  Returns (nll, G,
    mu); the value is infinite, with no G or mu, where a setting with counts
    has mu <= 0.
    """
    mu = lik.design.dot(rho.view(float).ravel()) + lik.background
    ratio = mu * lik.inverse + lik.unseen
    if ratio.min() <= 0:
        return math.inf, None, None
    diff = mu - lik.counts
    excess = diff * lik.inverse
    log_ratio = np.log(ratio)
    # near mu = c, c log1p(x) with x = mu/c - 1 keeps the precision that
    # cancellation in mu - c - c log(mu/c) loses when mu and c are ~1e6
    np.log1p(excess, out=log_ratio, where=excess > -0.5)
    # a setting without counts has log_ratio 0 and adds mu
    nll = float((diff - lik.counts * log_ratio).sum())
    weights = np.divide(diff, mu, out=lik.weights, where=lik.seen)
    return nll, weights.dot(lik.design).view(complex).reshape(4, 4), mu


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
    nll, gmat, _ = _nll_grad(rho, _Likelihood(counts, background, scale, _real_layout(projectors)))
    hmat = (gmat - np.trace(gmat @ rho).real * np.eye(4)) / tau
    return nll, _cholesky_to_params(2.0 * hmat @ chol)


def _project(mat):
    """Nearest density matrix to a Hermitian ``mat`` in Frobenius norm.

    Its eigenvalues are projected onto the probability simplex; returns the
    matrix with its eigenvalues (ascending, exact zeros off the support)
    and eigenvectors.
    """
    evals, evecs = np.linalg.eigh(mat)
    # in Python floats: a cumsum's sums in its order, without numpy's cost per call
    desc = evals.tolist()[::-1]
    shifts = [(total - 1.0) / k for k, total in enumerate(itertools.accumulate(desc), 1)]
    shift = shifts[sum(value > bound for value, bound in zip(desc, shifts)) - 1]
    evals = np.maximum(evals - shift, 0.0)
    return (evecs * evals).dot(evecs.conj().T), evals, evecs


def _factor_coordinates(rank):
    """Real coordinates of a lower-trapezoidal (4, rank) factor with a real
    diagonal: row, column and unit (1 or 1j) of each, the real parts of all
    entries first and then the imaginary parts of the off-diagonal ones."""
    rows, cols = np.tril_indices(4, 0, rank)
    off = rows != cols
    return (np.concatenate([rows, rows[off]]), np.concatenate([cols, cols[off]]),
            np.concatenate([np.ones(len(rows)), np.full(np.count_nonzero(off), 1j)]))


_FACTOR_COORDINATES = {rank: _factor_coordinates(rank) for rank in range(1, 5)}


def _newton_constants(rank):
    """What :func:`_newton_step` needs of the rank alone: flat indices into
    the real layout of a complex 4 x 4 matrix (32 reals) and of the (4, rank)
    factor, and the signs that go with them, each with one more entry for
    the multiplier of the trace constraint.

    Coordinate j sits at (rows_j, cols_j) of the factor with unit u_j (1 or
    1j), so 2 Re(u_j M[cols_j, rows_j]) = signed_j M.real[at_j], with ``at``
    the real or the imaginary part of (cols_j, rows_j) and ``signed`` +-2
    (0 for the multiplier).  The coupling 2 u_i conj(u_j) [col_i == col_j]
    is real or imaginary, so Re(coupling_ij M[rows_j, rows_i]) =
    pair_sign_ij M.real[pairs_ij]; on the border of the KKT matrix
    ``pairs`` points past the 32 reals of M, at the coordinate weights, and
    ``pair_sign`` is 1 on the diagonal coordinates, whose weights the trace
    constraint sums.  ``same_row`` is the coupling's value for M = I.
    ``scatter`` puts the coordinates into the factor's real layout: the
    real parts of the first (size + rank) / 2, which address each entry
    once, then the imaginary parts.
    """
    rows, cols, units = _FACTOR_COORDINATES[rank]
    size = len(rows)
    imaginary = units.imag != 0
    diagonal = rows == cols
    coupling = 2.0 * (units[:, None] * units.conj()) * (cols[:, None] == cols)
    pairs = np.full((size + 1, size + 1), 32 + size)
    pairs[:size, :size] = 2 * (rows * 4 + rows[:, None]) + (coupling.imag != 0)
    pairs[size, :size] = pairs[:size, size] = 32 + np.arange(size)
    pair_sign = np.zeros((size + 1, size + 1))
    pair_sign[:size, :size] = np.where(coupling.imag != 0, -coupling.imag, coupling.real)
    pair_sign[size, :size] = pair_sign[:size, size] = diagonal
    same_row = np.zeros((size + 1, size + 1))
    same_row[:size, :size] = (coupling * (rows[:, None] == rows)).real
    return (np.append(cols, 0), np.append(2 * (cols * 4 + rows) + imaginary, 0),
            np.append(np.where(imaginary, -2.0, 2.0), 0.0), pairs, pair_sign, same_row,
            2 * (rows * rank + cols) + imaginary, diagonal.astype(float))


_NEWTON_CONSTANTS = {rank: _newton_constants(rank) for rank in range(1, 5)}
# the (c, r) of each entry of a 4 x 4 matrix, in the order of its real layout
_OUTER_ROWS, _OUTER_COLS = np.divmod(np.arange(16), 4)
# halvings of a Newton step; doublings of the gradient step's curvature estimate
_NEWTON_BACKTRACKS = 12
_GRADIENT_BACKTRACKS = 60
# KKT gap at which mle_reconstruct stops, relative to the total coincidence count
_MLE_TOL = 1e-9
# Relative resolution of the NLL in the descent tests: near the optimum the
# decrease a step can make falls below the rounding of the NLL, and a test
# that demanded it would stop the loop short of its gap tolerance.
_NLL_RESOLUTION = 1e-12


def _rotated_projectors(evecs):
    """Every projector in the basis ``evecs``, (evecs^dag Pi_k evecs)[c, r] =
    <e_c|v_k><v_k|e_r>, in the real layout: a (36, 32) array from one
    (36, 4) x (4, 4) product."""
    w = _VECTORS.dot(evecs.conj())
    return (w.take(_OUTER_ROWS, axis=1) * w.conj().take(_OUTER_COLS, axis=1)).view(float)


def _newton_step(rho, evals, evecs, mu, nll, lik: _Likelihood):
    """Newton step over the density matrices of the rank of ``rho``.

    Projected gradient alone converges slowly where the optimum is rank
    deficient and eigenvectors of small weight still have to turn.  In the
    eigenbasis of rho (``evals`` ascending, exact zeros off its support),
    nearby states of its rank r are A A^dag / |A|^2 with A lower trapezoidal
    (4, r) and real diagonal, and rho itself is A0 = diag(sqrt(evals)).  The
    model is the Hessian of the likelihood through the first-order change of
    rho, plus Tr((G - nu I) dA dA^dag) from its second-order change
    (nu = Tr(G rho), the multiplier of the unit trace), solved with the trace
    held fixed to first order.

    ``mu`` is rho's from its last evaluation, and the record's constants
    come from ``lik``.  The rotated projectors (:func:`_rotated_projectors`)
    give the rotated gradient evecs^dag G evecs and, by the flat indices of
    :func:`_newton_constants`, the Jacobian of mu in the coordinates of A;
    the system is gathered, and the step scattered into A, by the same
    indices.  Returns the new (rho, nll, G, mu, r) after an Armijo
    backtrack along the step, or None if the step does not descend.
    """
    evals, evecs = evals[::-1], evecs[:, ::-1]
    rank = int(np.count_nonzero(evals > 0))
    cols, at, signed, pairs, pair_sign, same_row, scatter, diagonal = _NEWTON_CONSTANTS[rank]
    rotated = _rotated_projectors(evecs)
    c_over_mu = np.divide(lik.counts, mu, out=lik.c_over_mu, where=lik.seen)
    dnll = 1.0 - c_over_mu  # d nll / d mu, whose derivative c / mu^2 is (c / mu)^2 / c
    grot = lik.scale * dnll.dot(rotated)  # evecs^dag G evecs in the real layout
    nu = float(evals.dot(grot[::10]))  # grot[::10] is the real diagonal
    roots = np.sqrt(evals.take(cols))
    # d rho / d theta_j = sqrt(evals_col) (u e_{row,col} + conj(u) e_{col,row}),
    # and weight_j = 2 sqrt(evals_col) on the diagonal coordinates, where u = 1
    weight = signed * roots
    jac = rotated.take(at, axis=1) * (lik.scale * weight)
    grad = dnll.dot(jac)
    # Tr((G - nu I) dA dA^dag) couples the coordinates of one column of A; the
    # border holds the trace constraint
    second = np.concatenate((grot, weight)).take(pairs) * pair_sign - nu * same_row
    kkt = (jac.T * (c_over_mu * c_over_mu * lik.inverse)).dot(jac) + second
    try:
        theta = np.linalg.solve(kkt, -grad)
    except np.linalg.LinAlgError:
        return None
    slope = float(grad.dot(theta))
    if not slope < 0:
        return None
    # A0 and the step, scattered into the real layout of A
    factor = np.zeros(8 * rank)
    factor[scatter] = roots[:-1] * diagonal
    step_dir = np.zeros(8 * rank)
    step_dir[scatter] = theta[:-1]
    slack = _NLL_RESOLUTION * (1.0 + nll)
    step = 1.0
    for _ in range(_NEWTON_BACKTRACKS):
        trial = evecs.dot((factor + step * step_dir).view(complex).reshape(4, rank))
        new = trial.dot(trial.conj().T)
        new /= np.vdot(trial, trial).real
        new_nll, new_gmat, new_mu = _nll_grad(new, lik)
        if new_nll <= nll + 1e-4 * step * slope + slack:
            return new, new_nll, new_gmat, new_mu, rank
        step *= 0.5
    return None


def _kkt_gap(rho, gmat) -> float:
    """Tr(G rho) - lambda_min(G): zero exactly at the constrained optimum,
    and by convexity an upper bound on the NLL above its minimum.  For a
    Hermitian G, Tr(G rho) is the real part of vdot(G, rho)."""
    return float(np.vdot(gmat, rho).real - np.linalg.eigvalsh(gmat)[0])


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
    per-setting accidental estimate as a known background; the signal scale
    is estimated from the record totals.  The iterate starts at ``init``
    projected onto the density matrices (:func:`_project`).  Each iteration
    is one :func:`_newton_step` or, where it does not descend or the previous
    one did not halve the KKT gap, one projected-gradient step, the only step
    that changes the rank: its curvature estimate is halved, then doubled
    until the step passes a sufficient-decrease test that allows for the
    rounding of the objective, so records of ten counts converge too.  The
    loop stops when the gradient step makes no descent, or once the KKT gap
    (:func:`_kkt_gap`) is at most ``_MLE_TOL`` times the total coincidence
    count (at least 1).  Non-convergence returns the last iterate with
    ``converged`` False and a warning.

    The record's constants (:class:`_Likelihood`: the settings with counts,
    the reciprocal counts, the ``where=`` buffers and the projectors as a
    real (36, 32) matrix times the scale) are formed once, so that each
    evaluation of the likelihood (:func:`_nll_grad`) takes mu and G as one
    real product each; the iterate carries the mu of its last evaluation
    into the next Newton step and into the final log-likelihood.

    Parameters
    ----------
    record : TomographyRecord
    init : DensityMatrix4, optional
        Starting point, projected onto the density matrices; defaults to
        the linear inversion (I/4 for a record without net signal counts).
    max_iters : int
    """
    background = record.accidentals()
    counts = record.coincidences
    net = counts - background
    scale = net.sum() / 9.0
    if scale > 0:
        start = _dual_frame_estimate(net) if init is None else init.matrix
    else:  # no net signal: the raw counts set the scale, and I/4 the start
        scale = max(counts.sum(), 1.0) / 9.0
        start = np.eye(4, dtype=complex) / 4.0 if init is None else init.matrix
    lik = _Likelihood(counts, background, scale)
    rho, evals, evecs = _project(start)
    nll, gmat, mu = _nll_grad(rho, lik)
    if gmat is None:  # a setting with counts has no expected counts: mix in I/4
        rho = 0.99 * rho + 0.0025 * np.eye(4)
        evals = 0.99 * evals + 0.0025
        nll, gmat, mu = _nll_grad(rho, lik)
    tol_abs = _MLE_TOL * max(counts.sum(), 1.0)  # a record without counts is optimal anywhere
    lipschitz = scale
    gap = _kkt_gap(rho, gmat)
    try_newton = True
    iterations = 0
    while iterations < max_iters:
        iterations += 1
        step = _newton_step(rho, evals, evecs, mu, nll, lik) if try_newton else None
        if step is not None:
            rho, nll, gmat, mu, rank = step
            new_gap = _kkt_gap(rho, gmat)
            try_newton = new_gap <= 0.5 * gap
            gap = new_gap
            if try_newton and gap > tol_abs:  # the next step is a Newton step
                # rho = A A^dag / |A|^2 has rank r exactly; its other
                # eigenvalues come back as +-1e-17
                evals, evecs = np.linalg.eigh(rho)
                evals[:4 - rank] = 0.0
        else:
            slack = _NLL_RESOLUTION * (1.0 + nll)
            lipschitz *= 0.5  # the step may grow again once past a steep region
            for _ in range(_GRADIENT_BACKTRACKS):
                new, evals, evecs = _project(rho - gmat / lipschitz)
                new_nll, new_gmat, new_mu = _nll_grad(new, lik)
                diff = new - rho
                if new_nll <= (nll + np.vdot(gmat, diff).real
                               + 0.5 * lipschitz * np.vdot(diff, diff).real + slack):
                    break
                lipschitz *= 2.0
            if not new_nll <= nll + slack:  # no descent
                break
            rho, nll, gmat, mu = new, new_nll, new_gmat, new_mu
            gap = _kkt_gap(rho, gmat)
            try_newton = True
        if gap <= tol_abs:
            break
    converged = bool(gap <= tol_abs)
    if not converged:
        warnings.warn(
            f"MLE did not converge after {iterations} iterations: KKT gap {gap:.3g} "
            f"above {tol_abs:.3g}", stacklevel=2)
    mu = np.maximum(mu, 1e-300)
    return MleResult(
        rho=DensityMatrix4(0.5 * (rho + rho.conj().T), noise_weight=None),
        log_likelihood=float((counts * np.log(mu) - mu).sum()),
        iterations=iterations,
        converged=converged,
        gap=gap,
    )


# --- witnesses --------------------------------------------------------------

_SPIN_FLIP = np.kron(_PAULI[2], _PAULI[2])
_WITNESS_FLOOR = -1e-8  # the smallest eigenvalue the witnesses take as physical


def concurrence(rho) -> float:
    """Two-qubit concurrence via the spin-flipped state.

    max(0, l1 - l2 - l3 - l4) with l_i the decreasing square roots of the
    eigenvalues of rho * (sy (x) sy) rho^* (sy (x) sy); 0 for separable
    states, 1 for Bell states.
    """
    return float(_concurrences(_as_matrix(rho)[None])[0])


def _concurrences(mats: np.ndarray) -> np.ndarray:
    """:func:`concurrence` of each state of a (K, 4, 4) stack, checked by one stacked eigvalsh."""
    low = np.linalg.eigvalsh(mats)[:, 0].min(initial=0.0)
    if low < _WITNESS_FLOOR:
        raise ValueError(f"concurrence needs a physical state (min eigenvalue {low:.3e})")
    flipped = _SPIN_FLIP @ mats.conj() @ _SPIN_FLIP
    lam = np.sqrt(np.clip(np.linalg.eigvals(mats @ flipped).real, 0.0, None))
    lam.sort(axis=-1)
    return np.maximum(0.0, lam[:, 3] - lam[:, 2] - lam[:, 1] - lam[:, 0])


def fidelity(rho, target) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho_T) rho sqrt(rho_T)))^2.

    With rho_T = V L V^dag on its support (eigenvalues above 1e-14 of the
    largest; smaller ones are rounding of zeros, which square roots would
    turn into ~1e-8), it sums the square roots of the eigenvalues of the
    r x r matrix (V sqrt(L))^dag rho (V sqrt(L)); a pure target gives l <v|rho|v>.
    """
    m = _as_matrix(rho)
    mt = _as_matrix(target)
    if np.linalg.eigvalsh(m)[0] < _WITNESS_FLOOR:
        raise ValueError("fidelity needs a physical state")
    evals, evecs = np.linalg.eigh(mt)
    if evals[0] < _WITNESS_FLOOR:
        raise ValueError("fidelity needs a physical target")
    support = evals > 1e-14 * evals[-1]
    half = evecs[:, support] * np.sqrt(evals[support])
    evals = np.linalg.eigvalsh(half.conj().T @ m @ half)
    # drop eigenvalues at roundoff scale: sqrt would inflate them to ~1e-8
    floor = evals.max(initial=0.0) * 1e-12
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
    values = [float(v[0]) for v in _witnesses(_as_matrix(rho)[None], target_spec)]
    return WitnessReport(*values, against_target=target_spec)


def _witnesses(mats: np.ndarray, target_spec: HybridStateSpec):
    """Purity, concurrence and fidelity arrays of a (K, 4, 4) stack, as in
    :func:`witness_report`.  A state's bits do not depend on its stack:
    the fidelity takes one dot per state, not a (K, 4) x (4,) product."""
    psi = _state_vector(target_spec)
    rows = (psi.conj() @ mats)[:, None, :]
    fidelities = np.clip((rows @ psi[:, None])[:, 0, 0].real, 0.0, 1.0)
    return _purities(mats), _concurrences(mats), fidelities


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
