"""witness_report's closed-form fidelity <psi|rho|psi> against the Uhlmann fidelity."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from qskyrmion import (
    DensityMatrix4,
    HybridStateSpec,
    apply_isotropic_noise,
    concurrence,
    fidelity,
    pure_state,
    witness_report,
)
from qskyrmion.biphoton import _state_vector
from qskyrmion.tomography import _witnesses

SPECS = st.builds(HybridStateSpec, st.integers(-4, 4), st.integers(-4, 4),
                  st.floats(-7.0, 7.0))
# rho = G G^dag / Tr for a complex 4 x rank G: every physical state of that rank
GINIBRE = arrays(np.float64, (2, 4, 4), elements=st.floats(-1.0, 1.0))


def ginibre_state(parts, rank):
    g = (parts[0] + 1j * parts[1])[:, :rank]
    gram = g @ g.conj().T
    trace = np.trace(gram).real
    assume(trace > 1e-6)
    return 0.5 * (gram + gram.conj().T) / trace


@given(spec=SPECS, p=st.floats(0.0, 1.0))
@settings(max_examples=80, deadline=None)
def test_channel_outputs_match_uhlmann_fidelity(spec, p):
    rho = apply_isotropic_noise(pure_state(spec), p)
    got = witness_report(rho, spec).fidelity
    assert got == pytest.approx(fidelity(rho, pure_state(spec)), abs=1e-12)
    assert got == pytest.approx((1 + 3 * p) / 4, abs=1e-12)


@given(spec=SPECS, parts=GINIBRE, rank=st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_random_physical_states_match_uhlmann_fidelity(spec, parts, rank):
    rho = ginibre_state(parts, rank)
    target = pure_state(spec)
    got = witness_report(rho, spec).fidelity
    exact = np.trace(rho @ target.matrix).real
    assert got == pytest.approx(min(max(exact, 0.0), 1.0), abs=1e-15)
    assert got == pytest.approx(fidelity(rho, target), abs=1e-12)


def test_orthogonal_and_equal_states():
    spec = HybridStateSpec(0, 2, 0.9)
    assert witness_report(pure_state(spec), spec).fidelity == pytest.approx(1.0, abs=1e-15)
    flipped = pure_state(HybridStateSpec(0, 2, 0.9 + np.pi))
    assert witness_report(flipped, spec).fidelity == pytest.approx(0.0, abs=1e-15)


def test_unphysical_state_raises():
    spec = HybridStateSpec(0, 1)
    # Hermitian, unit trace, one eigenvalue -0.1
    rho = np.diag([0.6, 0.3, 0.2, -0.1]).astype(complex)
    with pytest.raises(ValueError):
        witness_report(rho, spec)
    with pytest.raises(ValueError):
        fidelity(rho, pure_state(spec))


def test_unphysical_density_matrix_raises():
    # a DensityMatrix4 built without the physicality check is checked like a raw array
    spec = HybridStateSpec(0, 1)
    rho = DensityMatrix4(np.diag([0.6, 0.3, 0.2, -0.1]), require_physical=False)
    with pytest.raises(ValueError, match="physical state"):
        witness_report(rho, spec)
    with pytest.raises(ValueError, match="physical state"):
        concurrence(rho)


@pytest.mark.parametrize("overlap", [0.0, 1e-14, 1e-10, 1e-6, 1e-3])
def test_pure_target_fidelity_is_the_closed_form_near_orthogonality(overlap):
    # states nearly orthogonal to |psi>: the closed form <psi|rho|psi> is
    # small, where square roots of the target's rounding once added ~3e-8 sqrt(F)
    rng = np.random.default_rng(11)
    for spec in (HybridStateSpec(0, 1), HybridStateSpec(2, -5, 0.7), HybridStateSpec(-3, 1, 1.3)):
        target, psi = pure_state(spec), _state_vector(spec)
        for rank in (1, 2, 3):
            g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            g -= np.outer(psi, psi.conj() @ g)  # every column orthogonal to psi
            g /= np.linalg.norm(g)
            rho = (1.0 - overlap) * (g @ g.conj().T) + overlap * np.outer(psi, psi.conj())
            rho = 0.5 * (rho + rho.conj().T)
            closed = float((psi.conj() @ rho @ psi).real)
            assert abs(closed - overlap) <= 1e-15
            assert fidelity(rho, target) == pytest.approx(closed, abs=1e-12)


@pytest.mark.parametrize("eps", [1e-12, 1e-10, 4e-9])
def test_nearly_pure_mixed_target_keeps_its_small_eigenvalue(eps):
    # a target of purity within 1e-8 of 1 is still mixed: its eigenvalue eps
    # adds sqrt(eps / 2) to sqrt(F), far above the rounding of the zeros
    rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    target = np.diag([1.0 - eps, eps, 0.0, 0.0]).astype(complex)
    exact = (math.sqrt((1.0 - eps) / 2.0) + math.sqrt(eps / 2.0)) ** 2
    assert fidelity(rho, target) == pytest.approx(exact, abs=1e-12)


def test_stacked_witnesses_do_not_depend_on_the_stack():
    # a sweep takes every point's witnesses from one stacked call: each state's
    # bits must be those of the state alone and of the stack in reverse order
    spec = HybridStateSpec(0, 3, 1.1)
    rng = np.random.default_rng(5)
    mats = [apply_isotropic_noise(pure_state(spec), p).matrix for p in np.linspace(1, 0, 11)]
    for rank in (1, 2, 3, 4, 4, 4, 2, 1, 3, 4):
        g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        mats.append(g @ g.conj().T / np.trace(g @ g.conj().T).real)
    mats = np.array(mats)
    assert len(mats) == 21
    stacked = _witnesses(mats, spec)
    backwards = _witnesses(np.ascontiguousarray(mats[::-1]), spec)
    for k in range(21):
        alone = _witnesses(mats[k : k + 1], spec)
        report = witness_report(mats[k], spec)
        for q, value in enumerate((report.purity, report.concurrence, report.fidelity)):
            got = {np.float64(v).tobytes() for v in (stacked[q][k], alone[q][0],
                                                     backwards[q][20 - k], value)}
            assert len(got) == 1
