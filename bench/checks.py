"""Output checks, computed apart from the program.

Nothing here imports ``qskyrmion`` or compares against stored output.  Each
expected value comes from a closed form of the physics, evaluated here from
the plain inputs that ``worker.py`` recorded with each operation:

- Skyrmion number N = sign(|l2| - |l1|) * (l2 - l1), and exactly 0 at p = 0;
- isotropic channel at weight p: purity p^2 + (1 - p^2)/4, concurrence
  max(0, (3p - 1)/2), fidelity (1 + 3p)/4;
- pure-state texture of (|l1,P1> + e^{i delta}|l2,P2>)/sqrt(2) at radius r
  and azimuth phi: with u = ln(|LG_l2| / |LG_l1|) and theta = dl*phi + delta,
  n = (sech u cos theta, sech u sin theta, -tanh u).  Isotropic noise only
  scales the Stokes vector, so the noisy texture must equal the clean one.

Every ``check_*`` function returns a list of failure messages; empty means
the operation passed.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# Auto window at 256^2: the worst state, (0, 1), keeps ~9e-4 of its winding
# in the truncated tail.
SWEEP_RESIDUAL_TOL = 2e-3
PURITY_TOL = 1e-12
FIDELITY_TOL = 1e-9
# Concurrence takes square roots of eigenvalues that are 0 for these states,
# so roundoff of ~1e-16 in them shows as ~1e-8 in the result.
CONCURRENCE_TOL = 1e-7
# Physicality of a reconstructed state, as DensityMatrix4 enforces it.
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
# Tomographic checks apply from this weight on (less a margin for the
# sweep's 1 - 14*0.05 = 0.29999999999999993); below it finite counts make
# the reconstructed N non-integer, which is expected behaviour.
TOMO_CHECK_FROM_P = 0.3 - 1e-9
# Statistical tolerance of the reconstructed purity with 1e5 pairs per
# record: over 300 seeds at each p >= 0.3 the deviation had a standard
# deviation <= 0.0018 and never exceeded 0.0051.
TOMO_PURITY_TOL = 0.02
TEXTURE_TOL = 1e-9
# Warning of mle_reconstruct when L-BFGS-B stops without converging.
MLE_FAULT_TEXT = "MLE did not converge"


def expected_number(ell1: int, ell2: int) -> int:
    return int(math.copysign(1, abs(ell2) - abs(ell1))) * (ell2 - ell1)


def channel_witnesses(p: float) -> tuple[float, float, float]:
    """Purity, concurrence and fidelity of p|psi><psi| + (1 - p) I/4."""
    return p * p + (1.0 - p * p) / 4.0, max(0.0, (3.0 * p - 1.0) / 2.0), (1.0 + 3.0 * p) / 4.0


def check_sweep(op: dict) -> list[str]:
    """Rows of one exact-channel sweep against the closed forms."""
    spec, rows, errors = op["spec"], op["rows"], []
    if [r["p"] for r in rows] != list(spec["points"]):
        return [f"sweep rows carry p = {[r['p'] for r in rows]}, not the requested points"]
    n_expected = expected_number(spec["ell1"], spec["ell2"])
    for r in rows:
        p = r["p"]
        purity, conc, fid = channel_witnesses(p)
        if abs(r["purity"] - purity) > PURITY_TOL:
            errors.append(f"p={p}: purity {r['purity']!r} != {purity!r}")
        if abs(r["concurrence"] - conc) > CONCURRENCE_TOL:
            errors.append(f"p={p}: concurrence {r['concurrence']!r} != {conc!r}")
        if abs(r["fidelity"] - fid) > FIDELITY_TOL:
            errors.append(f"p={p}: fidelity {r['fidelity']!r} != {fid!r}")
        if p == 0.0:
            if r["skyrmion_number"] != 0.0:
                errors.append(f"p=0: N = {r['skyrmion_number']!r}, not exactly 0")
        elif (round(r["skyrmion_number"]) != n_expected
              or abs(r["skyrmion_number"] - n_expected) > SWEEP_RESIDUAL_TOL):
            errors.append(f"p={p}: N = {r['skyrmion_number']!r}, expected {n_expected} "
                          f"within {SWEEP_RESIDUAL_TOL}")
    return errors


def check_physical(matrix: np.ndarray) -> list[str]:
    errors = []
    if np.max(np.abs(matrix - matrix.conj().T)) > TRACE_TOL:
        errors.append("reconstructed rho is not Hermitian")
    if abs(np.trace(matrix).real - 1.0) > TRACE_TOL:
        errors.append(f"reconstructed rho has trace {np.trace(matrix).real!r}")
    min_eig = np.linalg.eigvalsh(matrix)[0]
    if min_eig < EIGENVALUE_FLOOR:
        errors.append(f"reconstructed rho has eigenvalue {min_eig:.3e}")
    return errors


def check_tomo(op: dict) -> list[str]:
    """One tomographic sweep: physical states, N and purity where p >= 0.3."""
    spec, rows, errors = op["spec"], op["rows"], []
    if [r["p"] for r in rows] != list(spec["points"]):
        return ["sweep rows do not carry the requested points"]
    if len(op["rhos"]) != len(rows):
        return [f"{len(op['rhos'])} reconstructions for {len(rows)} points"]
    n_expected = expected_number(spec["ell1"], spec["ell2"])
    for r, (re, im) in zip(rows, op["rhos"]):
        p = r["p"]
        errors += [f"p={p}: {e}" for e in check_physical(np.array(re) + 1j * np.array(im))]
        if p < TOMO_CHECK_FROM_P:
            continue
        if round(r["skyrmion_number"]) != n_expected:
            errors.append(f"p={p}: N = {r['skyrmion_number']!r}, expected {n_expected}")
        purity = channel_witnesses(p)[0]
        if abs(r["purity"] - purity) > TOMO_PURITY_TOL:
            errors.append(f"p={p}: purity {r['purity']!r} differs from {purity!r} "
                          f"by more than {TOMO_PURITY_TOL}")
    return errors


def read_texture(path: Path) -> np.ndarray:
    """(n*n, 5) array of x, y, s1, s2, s3 from a texture CSV."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    if lines[0] != "x,y,s1,s2,s3":
        raise ValueError(f"{path.name}: unexpected column header {lines[0]!r}")
    return np.loadtxt(lines[1:], delimiter=",", ndmin=2)


def closed_form_texture(ell1: int, ell2: int, delta: float, x, y) -> np.ndarray:
    """Normalized Stokes vectors of the pure state at points (x, y), waist 1."""
    r = np.hypot(x, y)
    phi = np.arctan2(y, x)
    la1, la2 = abs(ell1), abs(ell2)
    # ln|LG_l| = const + 0.5 ln(2/(pi |l|!)) + |l| ln(sqrt2 r) - r^2: the ratio
    # keeps the factorials and the power of r
    u = 0.5 * (math.lgamma(la1 + 1) - math.lgamma(la2 + 1)) \
        + (la2 - la1) * np.log(math.sqrt(2.0) * r)
    theta = (ell2 - ell1) * phi + delta
    sech = 1.0 / np.cosh(u)
    return np.stack([sech * np.cos(theta), sech * np.sin(theta), -np.tanh(u)], axis=-1)


def check_texture(data: np.ndarray, ell1: int, ell2: int, delta: float,
                  samples: int) -> list[str]:
    """Unit rows, and live rows equal to the closed-form texture."""
    errors = []
    if data.shape != (samples * samples, 5):
        return [f"texture has shape {data.shape}, expected ({samples * samples}, 5)"]
    vec = data[:, 2:]
    norm = np.linalg.norm(vec, axis=1)
    zero = np.all(vec == 0.0, axis=1)
    bad = ~zero & (np.abs(norm - 1.0) > TEXTURE_TOL)
    if bad.any():
        errors.append(f"{int(bad.sum())} texture rows are neither unit vectors nor zero")
    live = ~zero
    expected = closed_form_texture(ell1, ell2, delta, data[live, 0], data[live, 1])
    worst = float(np.max(np.abs(vec[live] - expected))) if live.any() else 0.0
    if not live.any() or worst > TEXTURE_TOL:
        errors.append(f"texture differs from the closed form by {worst:.3e}")
    return errors


def read_gallery_table(path: Path) -> list[dict]:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    keys = lines[0].split(",")
    return [dict(zip(keys, ln.split(","))) for ln in lines[1:]]


def check_gallery(op: dict, delta_scale: float = 1.0) -> list[str]:
    """Written gallery: summary table, unit textures, noise invariance, closed form.

    ``delta_scale`` multiplies each state's delta in the closed form; 2 tests
    for the known fault of a doubled relative phase.
    """
    out, errors = Path(op["out_dir"]), []
    table = read_gallery_table(out / "gallery.csv")
    states, samples = op["spec"]["states"], op["spec"]["samples"]
    if [(int(t["ell1"]), int(t["ell2"])) for t in table] != [(s[0], s[1]) for s in states]:
        return [f"gallery.csv lists {[(t['ell1'], t['ell2']) for t in table]}, not {states}"]
    for t, (ell1, ell2, delta) in zip(table, states):
        tag = f"({ell1},{ell2})"
        n_expected = expected_number(ell1, ell2)
        if t["matched"] != "1":
            errors.append(f"{tag}: gallery.csv reports matched = {t['matched']}")
        for key in ("n_clean", "n_noisy"):
            if round(float(t[key])) != n_expected:
                errors.append(f"{tag}: {key} = {t[key]}, expected {n_expected}")
        clean = read_texture(out / f"texture_{ell1}_{ell2}_clean.csv")
        noisy = read_texture(out / f"texture_{ell1}_{ell2}_noisy.csv")
        if clean.shape != noisy.shape or np.max(np.abs(clean - noisy)) > TEXTURE_TOL:
            errors.append(f"{tag}: noisy texture differs from the clean one")
        errors += [f"{tag} clean: {e}"
                   for e in check_texture(clean, ell1, ell2, delta_scale * delta, samples)]
    return errors


def check_op(workload: str, op: dict) -> tuple[bool, list[str]]:
    """Whether one operation failed through a named fault, and its errors.

    Two faults of the program are named, each hit every time by one fixed,
    unseeded operation per round:

    - tomo_sweep: ``mle_reconstruct`` stops after 0 iterations and returns
      its unrefined starting point; the sweep's rows are then not checked.
      A stop after some iterations is not this fault: it happens on a
      seed-dependent ~1e-4 of records, and its estimate is checked like any
      other.
    - gallery_write: the texture of a state with delta != 0 has the
      relative phase dl*phi + 2*delta; the operation counts as failed when
      its outputs pass every check with that phase and fail with the right
      one.

    Any other failed check, or any warning other than the MLE's
    non-convergence warning in tomo_sweep, is an error.
    """
    if workload == "tomo_sweep":
        mle_warnings = sum(MLE_FAULT_TEXT in w for w in op["warnings"])
        errors = [f"unexpected warning: {w}" for w in op["warnings"] if MLE_FAULT_TEXT not in w]
        unconverged = sum(not converged for _, converged in op["mle"])
        if unconverged != mle_warnings:
            errors.append(f"{unconverged} unconverged reconstructions, {mle_warnings} warnings")
        if any(iterations == 0 and not converged for iterations, converged in op["mle"]):
            return True, errors
        return False, errors + check_tomo(op)
    errors = [f"unexpected warning: {w}" for w in op["warnings"]]
    if workload == "analytic_sweep":
        return False, errors + check_sweep(op)
    wrong = check_gallery(op)
    if wrong and op["spec"].get("fixed_fault") and not check_gallery(op, 2.0):
        return True, errors
    return False, errors + wrong
