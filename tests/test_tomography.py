import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import qskyrmion
from qskyrmion import (
    DensityMatrix4,
    HybridStateSpec,
    TomographyRecord,
    apply_isotropic_noise,
    average_quantum_contrast,
    concurrence,
    contrast_from_p,
    contrast_to_p,
    contrast_to_purity,
    fidelity,
    linear_inversion,
    mle_reconstruct,
    noise_rate_for_contrast,
    pure_state,
    purity,
    record_from_csv,
    record_to_csv,
    settings_36,
    simulate_counts,
    witness_report,
)
from qskyrmion import cli, tomography
from qskyrmion.stokesfield import _PAULI
from qskyrmion.tomography import (
    QC_CAP,
    _FACTOR_COORDINATES,
    _NEWTON_CONSTANTS,
    _Likelihood,
    _cholesky_to_params,
    _nll_grad,
    _params_to_cholesky,
    _poisson_nll_grad,
    _PROJECTORS,
    _rotated_projectors,
    _VECTORS,
)

WINDOW = 25e-9
BELL = HybridStateSpec(0, 1, 0.0)


def channel(p, spec=BELL):
    return apply_isotropic_noise(pure_state(spec), p)


def make_record(rho, *, pair_rate=1e5, noise=0.0, mode="deterministic", seed=None,
                duration=1.0):
    return simulate_counts(
        rho, pair_rate=pair_rate, noise_rate_a=noise, noise_rate_b=noise,
        window=WINDOW, duration=duration, mode=mode, seed=seed,
    )


class TestSettings:
    def test_exactly_36(self):
        assert len(settings_36()) == 36

    def test_six_states_per_side_are_mutually_unbiased(self):
        settings = settings_36()
        states = [s.state_b for s in settings[:6]]
        for i in range(6):
            for j in range(6):
                if i == j:
                    continue
                overlap = abs(np.vdot(states[i], states[j])) ** 2
                assert overlap == pytest.approx(0.0, abs=1e-12) or \
                    overlap == pytest.approx(0.5, abs=1e-12)

    def test_three_orthonormal_pairs_per_side(self):
        settings = settings_36()
        states = [s.state_b for s in settings[:6]]
        for k in range(0, 6, 2):
            assert abs(np.vdot(states[k], states[k + 1])) == pytest.approx(0.0, abs=1e-12)

    def test_first_setting_projects_onto_l1_p1(self):
        first = settings_36()[0]
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(first.projector(), expected, atol=1e-15)

    def test_ordering_z_x_y_plus_before_minus(self):
        labels = [(s.basis_a, s.eigen_a) for s in settings_36()[::6]]
        assert labels == [("z", 1), ("z", -1), ("x", 1), ("x", -1), ("y", 1), ("y", -1)]


class TestSimulateCounts:
    def test_bell_zz_coincidences(self):
        rec = make_record(pure_state(BELL))
        signal = rec.coincidences - rec.accidentals()
        # (z+, z+) projects onto |l1, P1> with Born probability 1/2
        assert signal[0] == pytest.approx(0.5 * 1e5, rel=1e-12)
        # (z+, z-) is anticorrelated for this state
        assert signal[1] == pytest.approx(0.0, abs=1e-9)

    def test_singles_are_setting_independent_for_bell_states(self):
        rec = make_record(channel(0.6), noise=3e4)
        np.testing.assert_allclose(rec.singles_a, rec.singles_a[0], rtol=1e-12)
        np.testing.assert_allclose(rec.singles_b, rec.singles_b[0], rtol=1e-12)

    def test_poisson_mode_reproducible(self):
        a = make_record(channel(0.7), noise=1e4, mode="poisson", seed=11)
        b = make_record(channel(0.7), noise=1e4, mode="poisson", seed=11)
        np.testing.assert_array_equal(a.coincidences, b.coincidences)
        c = make_record(channel(0.7), noise=1e4, mode="poisson", seed=12)
        assert not np.array_equal(a.coincidences, c.coincidences)

    @pytest.mark.parametrize("pair_rate,noise", [(1e5, 3e4), (20.0, 3.0), (0.5, 0.0)])
    def test_poisson_record_is_three_successive_draws(self, pair_rate, noise):
        # singles A, singles B, then coincidences, each from the seeded stream in
        # turn; rates of 20 and 0.5 Hz reach numpy's small-mean sampler too
        rho = channel(0.6, HybridStateSpec(0, 2, 0.4))
        expected = make_record(rho, pair_rate=pair_rate, noise=noise)
        for seed in (0, 7, 123456):
            rec = make_record(rho, pair_rate=pair_rate, noise=noise, mode="poisson", seed=seed)
            rng = np.random.default_rng(seed)
            for name in ("singles_a", "singles_b", "coincidences"):
                draw = rng.poisson(getattr(expected, name)).astype(float)
                assert getattr(rec, name).tobytes() == draw.tobytes()

    def test_rejects_bad_rates_and_durations(self):
        with pytest.raises(ValueError):
            make_record(pure_state(BELL), pair_rate=-1.0)
        with pytest.raises(ValueError):
            simulate_counts(pure_state(BELL), pair_rate=1e5, duration=0.0)

    @pytest.mark.parametrize("key", ["pair_rate", "noise_rate_a", "noise_rate_b",
                                     "window", "duration"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_nonfinite_inputs(self, key, value):
        kwargs = dict(pair_rate=1e5, noise_rate_a=1e4, noise_rate_b=1e4,
                      window=WINDOW, duration=1.0)
        kwargs[key] = value
        with pytest.raises(ValueError, match="finite"):
            simulate_counts(pure_state(BELL), **kwargs)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="^unknown sampling mode 'x'$"):
            simulate_counts(pure_state(BELL), pair_rate=1e5, mode="x")

    @pytest.mark.parametrize("mode", ["deterministic", "poisson"])
    def test_noiseless_pure_state_with_rounded_negative_probability(self, mode):
        # Tr(Pi rho) of a zero-probability setting comes out as -2.7e-32
        eps = 3e-16
        psi = np.array([1 + 1j * eps, eps + 1j * eps, eps + 1j, eps + 1j * eps])
        rho = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
        assert np.einsum("kij,ji->k", _PROJECTORS, rho).real.min() < 0
        rec = make_record(rho, pair_rate=1.0, mode=mode, seed=0)
        assert rec.coincidences.min() >= 0

    def test_record_validates_counts(self):
        with pytest.raises(ValueError):
            TomographyRecord(
                coincidences=np.ones(35), singles_a=np.ones(36), singles_b=np.ones(36),
                window=WINDOW, duration=1.0, pair_rate=1e5,
                noise_rate_a=0.0, noise_rate_b=0.0)

    @pytest.mark.parametrize("name", ["coincidences", "singles_a", "singles_b"])
    def test_record_rejects_negative_counts(self, name):
        arrays = {key: np.ones(36) for key in ("coincidences", "singles_a", "singles_b")}
        arrays[name][4] = -1.0
        with pytest.raises(ValueError, match=f"^{name} must be non-negative$"):
            TomographyRecord(**arrays, window=WINDOW, duration=1.0, pair_rate=1e5,
                             noise_rate_a=0.0, noise_rate_b=0.0)

    @pytest.mark.parametrize("name", ["coincidences", "singles_a", "singles_b"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_record_rejects_non_finite_counts(self, name, value):
        arrays = {key: np.ones(36) for key in ("coincidences", "singles_a", "singles_b")}
        arrays[name][4] = value
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            TomographyRecord(**arrays, window=WINDOW, duration=1.0, pair_rate=1e5,
                             noise_rate_a=0.0, noise_rate_b=0.0)

    @pytest.mark.parametrize("key", ["window", "duration"])
    def test_record_rejects_infinite_window_and_duration(self, key):
        kwargs = dict(window=WINDOW, duration=1.0)
        kwargs[key] = math.inf
        with pytest.raises(ValueError, match="finite"):
            TomographyRecord(coincidences=np.ones(36), singles_a=np.ones(36),
                             singles_b=np.ones(36), pair_rate=1e5, noise_rate_a=0.0,
                             noise_rate_b=0.0, **kwargs)


class TestAverageQuantumContrast:
    def test_pure_accidentals_give_unit_contrast(self):
        singles = np.full(36, 1e4)
        rec = TomographyRecord(
            coincidences=WINDOW * singles * singles, singles_a=singles, singles_b=singles,
            window=WINDOW, duration=1.0, pair_rate=0.0, noise_rate_a=1e4, noise_rate_b=1e4)
        assert average_quantum_contrast(rec) == pytest.approx(1.0, rel=1e-12)

    def test_doubled_coincidences_double_contrast(self):
        singles = np.full(36, 1e4)
        rec = TomographyRecord(
            coincidences=2 * WINDOW * singles * singles, singles_a=singles,
            singles_b=singles, window=WINDOW, duration=1.0, pair_rate=0.0,
            noise_rate_a=1e4, noise_rate_b=1e4)
        assert average_quantum_contrast(rec) == pytest.approx(2.0, rel=1e-12)

    def test_targeted_generator_closes_loop(self):
        for target in (2.24, 10.0, 32.3):
            p = contrast_to_p(target)
            noise = noise_rate_for_contrast(target, pair_rate=1e5, window=WINDOW)
            rec = make_record(channel(p), noise=noise)
            assert average_quantum_contrast(rec) == pytest.approx(target, abs=1e-6)

    def test_zero_singles_settings_excluded_with_warning(self):
        singles = np.full(36, 1e4)
        singles[3] = 0.0
        rec = TomographyRecord(
            coincidences=WINDOW * 1e8 * np.ones(36), singles_a=singles,
            singles_b=np.full(36, 1e4), window=WINDOW, duration=1.0,
            pair_rate=0.0, noise_rate_a=1e4, noise_rate_b=1e4)
        with pytest.warns(UserWarning, match="zero singles"):
            value = average_quantum_contrast(rec)
        assert math.isfinite(value)

    def test_vanishing_accidentals_capped_not_infinite(self):
        singles = np.full(36, 1e-12)
        rec = TomographyRecord(
            coincidences=np.ones(36), singles_a=singles, singles_b=singles,
            window=WINDOW, duration=1.0, pair_rate=1.0,
            noise_rate_a=0.0, noise_rate_b=0.0)
        value = average_quantum_contrast(rec)
        assert math.isfinite(value)
        assert value == 1e12

    def test_no_valid_setting_warns_and_returns_the_cap(self):
        rec = TomographyRecord(
            coincidences=np.ones(36), singles_a=np.zeros(36), singles_b=np.full(36, 1e4),
            window=WINDOW, duration=1.0, pair_rate=1.0, noise_rate_a=0.0, noise_rate_b=1e4)
        with pytest.warns(UserWarning) as caught:
            assert average_quantum_contrast(rec) == QC_CAP
        assert [str(w.message) for w in caught] == [
            "36 setting(s) with zero singles product excluded from the contrast average",
            "no valid settings; returning capped contrast"]

    def test_ceiling_warns_and_clamps(self):
        with pytest.warns(UserWarning, match="ceiling"):
            n = noise_rate_for_contrast(1e6, pair_rate=1e5, window=WINDOW)
        assert n == 0.0

    @pytest.mark.parametrize("target", [math.nan, math.inf])
    def test_noise_rate_rejects_a_target_that_is_not_finite(self, target):
        with pytest.raises(ValueError, match="target contrast must be finite and exceed 1"):
            noise_rate_for_contrast(target, pair_rate=1e5, window=WINDOW)

    @pytest.mark.parametrize("source", [
        dict(pair_rate=1e-200, window=1e-200),  # the product underflows to 0
        dict(pair_rate=1e300, window=1e-300, duration=1e-300),  # window x duration does
        dict(pair_rate=1e-300, window=1e-10, duration=1e-10),  # a subnormal product
        dict(pair_rate=1e24, window=25e-9),  # the ceiling rounds to 1
        dict(pair_rate=1e-160, window=1e80, duration=1e80),  # the noise relation underflows
        dict(pair_rate=1e300, window=1e-300),  # the noise relation overflows
    ], ids=["underflow", "span-underflow", "subnormal", "no-headroom", "relation-underflow",
            "relation-overflow"])
    def test_noise_rate_names_a_source_product_out_of_range(self, source):
        with pytest.raises(ValueError, match=r"^pair rate x window x duration = "):
            noise_rate_for_contrast(1.5, **source)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("name", ["pair_rate", "window", "duration"])
    def test_noise_rate_rejects_a_source_not_positive_and_finite(self, name, value):
        source = dict(pair_rate=1e5, window=WINDOW, duration=1.0) | {name: value}
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # raises before any ceiling is formed or warned
            with pytest.raises(ValueError, match="must be positive and finite"):
                noise_rate_for_contrast(3.0, **source)


class TestLinearInversion:
    def test_design_has_full_rank(self):
        # the 36 projectors span the 16-dimensional space of 4 x 4 Hermitian matrices
        assert np.linalg.matrix_rank(_PROJECTORS.reshape(36, 16)) == 16

    def test_noiseless_records_of_random_states_invert_to_the_state(self, rng):
        # rho = G G^dag / Tr of rank 1-4: the dual frame returns every state exactly
        for rank in (1, 2, 3, 4):
            for _ in range(5):
                g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
                rho = g @ g.conj().T
                rho /= np.trace(rho).real
                est = linear_inversion(make_record(rho))
                np.testing.assert_allclose(est.matrix, rho, rtol=0, atol=1e-12)

    def test_matches_least_squares_solve(self):
        # the reference is the least-squares solve over all 15 Pauli coefficients,
        # with Tr[Pi_k rho] = (1/4) sum_c design[k, c] r_c
        basis = np.array([np.kron(a, b) for a in _PAULI for b in _PAULI])
        design = np.einsum("kij,cji->kc", _PROJECTORS, basis).real / 4.0
        for p, seed in [(1.0, 0), (0.6, 1), (0.2, 2), (0.0, 3), (0.9, 4)]:
            rec = make_record(channel(p, HybridStateSpec(0, 2, 0.4)), pair_rate=3e3,
                              noise=500.0, mode="poisson", seed=seed)
            counts = rec.coincidences - rec.accidentals()
            freqs = 9.0 * counts / counts.sum()
            coeffs, *_ = np.linalg.lstsq(design[:, 1:], freqs - design[:, 0], rcond=None)
            r = np.concatenate([[1.0], coeffs])
            expected = np.einsum("c,cij->ij", r, basis) / 4.0
            np.testing.assert_allclose(linear_inversion(rec).matrix, expected,
                                       rtol=0, atol=1e-14)

    def test_roundtrip_on_deterministic_counts(self):
        rho = channel(0.55)
        rec = make_record(rho, noise=2e4)
        est = linear_inversion(rec)
        assert np.linalg.norm(est.matrix - rho.matrix) < 1e-8

    def test_maximally_mixed_roundtrip(self):
        rho = channel(0.0)
        rec = make_record(rho, noise=1e4)
        est = linear_inversion(rec)
        np.testing.assert_allclose(est.matrix, np.eye(4) / 4, atol=1e-8)

    def test_poisson_error_is_small_at_healthy_statistics(self):
        rho = channel(0.8)
        errors = []
        for seed in range(100):
            rec = make_record(rho, noise=1e4, mode="poisson", seed=seed)
            est = linear_inversion(rec)
            errors.append(np.linalg.norm(est.matrix - rho.matrix))
        assert np.median(errors) < 0.05

    def test_unphysical_estimates_reported_not_repaired(self):
        rec = make_record(pure_state(BELL), pair_rate=300.0, mode="poisson", seed=0)
        est = linear_inversion(rec)
        assert est.min_eigenvalue < -1e-6


class TestMleReconstruct:
    def test_matches_inversion_when_physical(self):
        rho = channel(0.5)
        rec = make_record(rho, noise=2e4)
        inv = linear_inversion(rec)
        assert inv.min_eigenvalue > 0
        est = mle_reconstruct(rec)
        assert np.linalg.norm(est.rho.matrix - inv.matrix) < 1e-6
        assert est.converged

    def test_deterministic_recovery_exact(self):
        rho = channel(0.73, HybridStateSpec(0, 2, 0.9))
        rec = make_record(rho, noise=4e4)
        est = mle_reconstruct(rec)
        assert np.linalg.norm(est.rho.matrix - rho.matrix) < 1e-6

    def test_repairs_unphysical_inversion_with_higher_likelihood(self):
        rec = make_record(pure_state(BELL), pair_rate=300.0, mode="poisson", seed=1)
        inv = linear_inversion(rec)
        assert inv.min_eigenvalue < -1e-6
        est = mle_reconstruct(rec)
        assert est.rho.min_eigenvalue >= -1e-10

        # Poisson log-likelihood of the eigenvalue-clipped inversion
        evals, evecs = np.linalg.eigh(inv.matrix)
        clipped = (evecs * np.clip(evals, 0, None)) @ evecs.conj().T
        clipped /= np.trace(clipped).real
        bg = rec.accidentals()
        scale = (rec.coincidences - bg).sum() / 9.0

        def loglik(m):
            mu = np.maximum(scale * np.einsum("kij,ji->k", _PROJECTORS, m).real + bg, 1e-12)
            return float(np.sum(rec.coincidences * np.log(mu) - mu))

        assert est.log_likelihood >= loglik(clipped) - 1e-9

    def test_high_statistics_fidelity(self):
        rho = pure_state(BELL)
        fids = []
        for seed in range(30):
            rec = make_record(rho, mode="poisson", seed=seed)
            est = mle_reconstruct(rec)
            fids.append(fidelity(est.rho, rho))
        assert np.median(fids) > 0.99

    def test_gradient_matches_finite_differences(self, rng):
        rec = make_record(channel(0.7), noise=5e4)
        bg = rec.accidentals()
        counts = rec.coincidences
        scale = (counts - bg).sum() / 9.0
        worst = 0.0
        for _ in range(20):
            t = rng.normal(size=16)
            _, grad = _poisson_nll_grad(t, counts, bg, scale, _PROJECTORS)
            grad_fd = np.empty(16)
            for k in range(16):
                eps = 1e-5 * max(1.0, abs(t[k]))
                dt = np.zeros(16)
                dt[k] = eps
                up, _ = _poisson_nll_grad(t + dt, counts, bg, scale, _PROJECTORS)
                dn, _ = _poisson_nll_grad(t - dt, counts, bg, scale, _PROJECTORS)
                grad_fd[k] = (up - dn) / (2 * eps)
            worst = max(worst, np.linalg.norm(grad - grad_fd) / np.linalg.norm(grad_fd))
        assert worst < 1e-6

    @given(parts=arrays(np.float64, (2, 4, 4), elements=st.floats(-1.0, 1.0)),
           rank=st.integers(1, 4), log_scale=st.floats(-1.0, 6.0),
           factors=st.lists(st.sampled_from([0.0, 0.3, 0.9, 1.0, 1.1, 1.7, 3.0, 40.0]),
                            min_size=36, max_size=36),
           background=arrays(np.float64, 36, elements=st.floats(0.0, 1e3)))
    @settings(max_examples=200, deadline=None)
    def test_likelihood_matches_a_complex_evaluation(self, parts, rank, log_scale, factors,
                                                     background):
        # counts of 0 (no log term), near mu (log1p) and above 2 mu (the log branch);
        # each sum is compared relative to the size of what it adds up
        g = (parts[0] + 1j * parts[1])[:, :rank]
        gram = g @ g.conj().T
        assume(np.trace(gram).real > 1e-6)
        rho = gram / np.trace(gram).real
        scale = 10.0 ** log_scale
        mu = scale * np.einsum("kij,ji->k", _PROJECTORS, rho).real + background
        counts = np.round(mu * np.array(factors))
        seen = counts > 0
        assume(np.all(mu[seen] > 1e-3 * scale))
        ratio = np.divide(mu, counts, out=np.ones(36), where=seen)
        terms = np.where(seen, mu - counts - counts * np.log(ratio), mu)
        weights = 1.0 - np.divide(counts, mu, out=np.zeros(36), where=seen)
        gmat = scale * np.einsum("k,kij->ij", weights, _PROJECTORS)
        nll, got, got_mu = _nll_grad(rho, _Likelihood(counts, background, scale))
        assert abs(nll - terms.sum()) <= 1e-12 * (mu + counts).sum()
        assert np.linalg.norm(got - gmat) <= 1e-12 * scale * np.abs(weights).sum()
        np.testing.assert_allclose(got_mu, mu, rtol=0, atol=1e-12 * (scale + background.max()))

    def test_likelihood_is_infinite_where_a_setting_with_counts_expects_none(self):
        # rho = |l1, P1><l1, P1| gives (z-, z-) no probability; without background
        # its one count makes the likelihood infinite
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        counts = np.zeros(36)
        counts[7] = 1.0
        assert _nll_grad(rho, _Likelihood(counts, np.zeros(36), 1.0)) == (math.inf, None, None)

    def test_start_without_expected_counts_where_counts_are_is_mixed_toward_i4(self):
        # the start |l1, P1><l1, P1| expects no counts on setting 7, where the record
        # has one, and there is no background (the likelihood is infinite there, as
        # in the test above): the iterate is mixed toward I/4 first
        start = np.zeros((4, 4), dtype=complex)
        start[0, 0] = 1.0
        counts = np.zeros(36)
        counts[7] = 1.0
        rec = TomographyRecord(
            coincidences=counts, singles_a=np.zeros(36), singles_b=np.zeros(36),
            window=WINDOW, duration=1.0, pair_rate=1.0, noise_rate_a=0.0, noise_rate_b=0.0)
        est, default = mle_reconstruct(rec, init=DensityMatrix4(start)), mle_reconstruct(rec)
        assert est.converged and default.converged
        assert abs(est.log_likelihood - default.log_likelihood) <= est.gap + default.gap

    def test_cholesky_likelihood_is_infinite_with_a_finite_gradient_there(self):
        # the same state as t = e_0, L = diag(1, 0, 0, 0): an optimizer probing it gets
        # an infinite value to back off from, not an exception
        t = np.zeros(16)
        t[0] = 1.0
        counts = np.zeros(36)
        counts[7] = 1.0
        nll, grad = _poisson_nll_grad(t, counts, np.zeros(36), 1.0, _PROJECTORS)
        assert nll == math.inf
        assert grad.shape == (16,) and np.isfinite(grad).all()

    def test_projectors_are_outer_products_of_the_vectors(self):
        outer = np.einsum("ki,kj->kij", _VECTORS, _VECTORS.conj())
        np.testing.assert_allclose(outer, _PROJECTORS, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_vector_jacobian_matches_rotated_projectors(self, rng, rank):
        # the real layout and the flat indices of the Newton step gather what
        # 2-D indexing of the rotated projectors and of a Hermitian matrix gives
        rows, cols, units = _FACTOR_COORDINATES[rank]
        size = len(rows)
        _, at, signed, pairs, pair_sign, same_row, scatter, diagonal = _NEWTON_CONSTANTS[rank]
        coupling = 2.0 * (units[:, None] * units.conj()) * (cols[:, None] == cols)
        entries = (size + rank) // 2
        for _ in range(20):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            evecs = np.linalg.qr(g)[0]
            rotated = evecs.conj().T @ _PROJECTORS @ evecs
            real = _rotated_projectors(evecs)
            np.testing.assert_allclose(real.view(complex).reshape(36, 4, 4), rotated,
                                       rtol=0, atol=1e-15)
            np.testing.assert_array_equal(real.take(at[:size], axis=1) * signed[:size],
                                          2.0 * (units * real.view(complex).reshape(36, 4, 4)
                                                 [:, cols, rows]).real)
            # the KKT matrix: the coupling of the second-order term, and on its
            # border the weights of the diagonal coordinates
            herm = g + g.conj().T
            weight = rng.normal(size=size + 1)
            gathered = np.concatenate((herm.view(float).ravel(), weight)).take(pairs) * pair_sign
            np.testing.assert_array_equal(gathered[:size, :size],
                                          (coupling * herm[rows[None, :], rows[:, None]]).real)
            np.testing.assert_array_equal(gathered[size, :size], weight[:size] * (rows == cols))
            np.testing.assert_array_equal(gathered[:size, size], weight[:size] * (rows == cols))
            assert gathered[size, size] == 0.0 and signed[size] == 0.0
            np.testing.assert_array_equal(
                same_row[:size, :size], (coupling * (rows[None, :] == rows[:, None])).real)
            assert not same_row[size].any() and not same_row[:, size].any()
            np.testing.assert_array_equal(diagonal, rows == cols)
            theta = rng.normal(size=size)
            expected = np.zeros((4, rank), dtype=complex)
            expected[rows[:entries], cols[:entries]] = theta[:entries]
            expected[rows[entries:], cols[entries:]] += 1j * theta[entries:]
            flat = np.zeros(8 * rank)
            flat[scatter] = theta
            np.testing.assert_array_equal(flat.view(complex).reshape(4, rank), expected)

    def test_eigendecomposition_budget(self, monkeypatch):
        # seeded records of (0, 2, delta = 0.4) at the settings of a tomographic
        # sweep: the Newton step converges from the projected inversion, and a
        # gradient step, with its backtracking projections, is the exception
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            calls.append(1)
            return eigh(a, *args, **kwargs)

        spec = HybridStateSpec(0, 2, 0.4)
        ceiling = 1.0 + 1.0 / (WINDOW * 1e5)
        records = []
        for index, p in enumerate(np.linspace(1.0, 0.05, 20)):
            noise = noise_rate_for_contrast(min(max(contrast_from_p(p), 1.005), ceiling),
                                            pair_rate=1e5, window=WINDOW)
            records += [make_record(channel(p, spec), noise=noise, mode="poisson",
                                    seed=100 * seed + index) for seed in range(3)]
        monkeypatch.setattr(tomography.np.linalg, "eigh", counting_eigh)
        for rec in records:
            assert mle_reconstruct(rec).converged
        assert len(calls) / len(records) <= 4.0

    def test_readme_tomographic_sweeps_keep_their_iterations(self, tmp_path, monkeypatch):
        # the README config as a tomographic sweep at 128^2, Poisson seed 7: the
        # iterations of every point, the same on every BLAS kernel tried
        path = tmp_path / "readme.cfg"
        path.write_text("ell1 = 0\nell2 = 3\ndelta = 0.0\nsweep = p\nstart = 1.0\nstop = 0.0\n"
                        "step = -0.05\npipeline = tomographic\nsamples = 128\nseed = 7\n")
        cfg = cli.load_config(str(path))
        estimates = []

        def recording_mle(record):
            estimates.append(mle_reconstruct(record))
            return estimates[-1]

        monkeypatch.setattr(cli, "mle_reconstruct", recording_mle)
        for deterministic, expected in [(False, [5, 4, 3, 3, 3, 3] + [2] * 12 + [1, 1, 1]),
                                        (True, [1] * 21)]:
            estimates.clear()
            cli.run_sweep(cfg, deterministic=deterministic)
            assert [estimate.iterations for estimate in estimates] == expected
            assert all(estimate.converged for estimate in estimates)

    def test_cholesky_parametrization_roundtrip(self, rng):
        t = rng.normal(size=16)
        chol = _params_to_cholesky(t)
        np.testing.assert_allclose(_cholesky_to_params(chol), t, atol=1e-15)

    @pytest.mark.parametrize("seed", [17, 85, 650, 829, 981])
    def test_maximally_mixed_records_converge(self, seed):
        # ~2e7 counts make the log-likelihood ~2.6e9, below whose double
        # resolution a stop rule on the change in f would fall; the KKT gap
        # is not affected by that scale
        noise = noise_rate_for_contrast(1.005, pair_rate=1e5, window=WINDOW)
        rec = make_record(channel(0.0), noise=noise, mode="poisson", seed=seed)
        est = mle_reconstruct(rec)
        assert est.converged
        assert est.iterations > 0
        assert est.gap <= 1e-9 * rec.coincidences.sum()

    def test_converges_at_rank_deficient_optima(self):
        # noiseless pure-state records put the optimum on the boundary of the
        # density matrices, where eigenvectors of small weight turn slowly
        # under projected gradient
        records = [make_record(pure_state(HybridStateSpec(2, -5, 0.05)), mode="poisson",
                               seed=seed) for seed in range(20)]
        records.append(make_record(pure_state(BELL)))
        for rec in records:
            est = mle_reconstruct(rec)
            assert est.converged
            assert est.gap <= 1e-9 * rec.coincidences.sum()
            assert est.iterations < 50

    def test_converges_on_sparse_counts(self):
        # ten coincidences over a background of ~6e-8 per setting: early
        # steps meet settings with counts but almost no expected counts, so
        # the projected-gradient step's curvature estimate has to shrink
        # again afterwards
        counts = np.zeros(36)
        counts[[7, 13, 15, 32]] = 1.0
        counts[[8, 22, 34]] = 2.0
        rec = TomographyRecord(
            coincidences=counts, singles_a=np.full(36, 1.5), singles_b=np.full(36, 1.5),
            window=WINDOW, duration=1.0, pair_rate=2.0, noise_rate_a=0.0, noise_rate_b=0.0)
        est = mle_reconstruct(rec)
        assert est.converged
        assert est.gap <= 1e-9 * counts.sum()
        assert est.iterations < 100

    def test_reaches_a_gap_below_the_likelihood_resolution(self):
        # 13 coincidences: a gap of 1.3e-8 leaves NLL decreases far below the
        # rounding of the NLL, which the descent tests must tolerate
        counts = [1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1,
                  0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 0]
        singles_a = [2, 2, 2, 2, 2, 4, 1, 1, 0, 1, 0, 1, 3, 3, 5, 0, 3, 0,
                     1, 0, 0, 0, 2, 0, 0, 0, 1, 1, 0, 1, 2, 1, 3, 0, 0, 0]
        singles_b = [2, 0, 4, 1, 1, 0, 0, 2, 2, 1, 2, 1, 0, 2, 0, 0, 2, 2,
                     1, 0, 0, 0, 2, 1, 0, 2, 0, 1, 0, 3, 0, 1, 1, 1, 1, 1]
        rec = TomographyRecord(
            coincidences=np.array(counts, float), singles_a=np.array(singles_a, float),
            singles_b=np.array(singles_b, float), window=WINDOW, duration=1.0,
            pair_rate=1.0, noise_rate_a=0.0, noise_rate_b=0.0)
        est = mle_reconstruct(rec)
        assert est.converged
        assert est.gap <= 1e-9 * sum(counts)

    def test_gap_bounds_the_likelihood_below_its_maximum(self, rng):
        rec = make_record(channel(0.35), noise=4e4, mode="poisson", seed=3)
        from qskyrmion import DensityMatrix4
        init = DensityMatrix4(np.diag([0.97, 0.01, 0.01, 0.01]).astype(complex),
                              require_physical=False)
        with pytest.warns(UserWarning, match="did not converge"):
            starved = mle_reconstruct(rec, init=init, max_iters=1)
        best = mle_reconstruct(rec)
        assert starved.log_likelihood <= best.log_likelihood
        assert best.log_likelihood <= starved.log_likelihood + starved.gap
        bg = rec.accidentals()
        scale = (rec.coincidences - bg).sum() / 9.0
        for _ in range(200):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            sigma = g @ g.conj().T
            sigma = 0.99 * best.rho.matrix + 0.01 * sigma / np.trace(sigma).real
            mu = scale * np.einsum("kij,ji->k", _PROJECTORS, sigma).real + bg
            loglik = float(np.sum(rec.coincidences * np.log(mu) - mu))
            assert loglik <= best.log_likelihood + best.gap + 1e-6

    def test_likelihood_at_least_that_of_lbfgs(self):
        # reference: scipy's L-BFGS-B over the Cholesky factor, from the
        # eigenvalue-clipped linear inversion, with tight stopping rules
        from scipy.optimize import minimize

        spec = HybridStateSpec(0, -2, 1.1)
        ceiling = 1.0 + 1.0 / (WINDOW * 1e5)
        for p in (1.0, 0.7, 0.2, 0.05, 0.0):
            target = min(max(contrast_from_p(p), 1.005), ceiling)
            noise = noise_rate_for_contrast(target, pair_rate=1e5, window=WINDOW)
            for seed in (1, 2):
                rec = make_record(channel(p, spec), noise=noise, mode="poisson", seed=seed)
                bg = rec.accidentals()
                scale = (rec.coincidences - bg).sum() / 9.0
                evals, evecs = np.linalg.eigh(linear_inversion(rec).matrix)
                start = (evecs * np.clip(evals, 1e-8, None)) @ evecs.conj().T
                start /= np.trace(start).real
                res = minimize(_poisson_nll_grad,
                               _cholesky_to_params(np.linalg.cholesky(start)),
                               args=(rec.coincidences, bg, scale, _PROJECTORS), jac=True,
                               method="L-BFGS-B",
                               options={"maxiter": 5000, "ftol": 1e-15, "gtol": 1e-10})
                chol = _params_to_cholesky(res.x)
                ref = chol @ chol.conj().T / np.trace(chol @ chol.conj().T).real
                mu = scale * np.einsum("kij,ji->k", _PROJECTORS, ref).real + bg
                ref_loglik = float(np.sum(rec.coincidences * np.log(mu) - mu))
                est = mle_reconstruct(rec)
                assert est.converged
                assert est.log_likelihood >= ref_loglik - 1e-9 * abs(ref_loglik), (p, seed)

    @given(parts=arrays(np.float64, (2, 4, 4), elements=st.floats(-1.0, 1.0)),
           rank=st.integers(1, 4), log_rate=st.floats(0.0, 6.5),
           noise=st.sampled_from([0.0, 0.01, 0.3, 3.0, 30.0]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_converges_for_any_state_and_count_level(self, parts, rank, log_rate, noise, seed):
        # rho = G G^dag / Tr of rank 1-4, 1 to 3e6 pairs/s, noise 0-30x the pair rate
        g = (parts[0] + 1j * parts[1])[:, :rank]
        gram = g @ g.conj().T
        assume(np.trace(gram).real > 1e-6)
        rho = 0.5 * (gram + gram.conj().T) / np.trace(gram).real
        rate = 10.0 ** log_rate
        rec = make_record(rho, pair_rate=rate, noise=noise * rate, mode="poisson", seed=seed)
        est = mle_reconstruct(rec)
        assert est.converged
        assert est.gap <= 1e-9 * max(rec.coincidences.sum(), 1.0)
        assert est.rho.min_eigenvalue >= -1e-10

    def test_iteration_starved_run_warns_and_flags(self):
        rec = make_record(channel(0.35), noise=4e4, mode="poisson", seed=3)
        # a deliberately bad start needs more than one iteration
        from qskyrmion import DensityMatrix4
        init = DensityMatrix4(np.diag([0.97, 0.01, 0.01, 0.01]).astype(complex),
                              require_physical=False)
        with pytest.warns(UserWarning, match="did not converge"):
            est = mle_reconstruct(rec, init=init, max_iters=1)
        assert not est.converged
        assert est.rho.min_eigenvalue >= -1e-10


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize would be most of the package's import time; reconstruction
    # needs numpy alone, so no scipy module loads at all (see the next test)
    env = dict(os.environ, PYTHONPATH=str(Path(qskyrmion.__file__).parents[1]))
    code = "import sys, qskyrmion, qskyrmion.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_tomographic_runs_load_no_scipy(tmp_path):
    # reconstruction needs numpy alone: neither a tomographic sweep nor the
    # tomo command loads any scipy module
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ell1=0\nell2=1\nsweep=p\nvalues=1, 0.5, 0\npipeline=tomographic\n"
                   "samples=32\nseed=4\n")
    env = dict(os.environ, PYTHONPATH=str(Path(qskyrmion.__file__).parents[1]))
    code = ("import sys; from qskyrmion import cli; "
            f"cli.run_sweep(cli.load_config({str(cfg)!r})); "
            "cli.main(['tomo', '--ell1', '0', '--ell2', '2', '--p', '0.6']); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert "mle: iterations=" in out.stdout
    assert out.stdout.strip().splitlines()[-1] == "[]"


class TestWitnesses:
    def test_bell_state_concurrence(self):
        assert concurrence(pure_state(BELL)) == pytest.approx(1.0, abs=1e-10)

    def test_maximally_mixed_concurrence(self):
        assert concurrence(np.eye(4) / 4) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("p", np.linspace(0.0, 1.0, 21))
    def test_channel_concurrence_closed_form(self, p):
        value = concurrence(channel(p))
        assert value == pytest.approx(max(0.0, (3 * p - 1) / 2), abs=1e-10)

    def test_concurrence_threshold_is_one_third(self):
        assert concurrence(channel(1 / 3 - 1e-4)) == 0.0
        assert concurrence(channel(1 / 3 + 1e-4)) > 0.0

    def test_fidelity_with_self_is_one(self):
        rho = pure_state(BELL)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_fidelity_mixed_vs_pure_target(self):
        assert fidelity(np.eye(4) / 4, pure_state(BELL)) == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.8, 1.0])
    def test_channel_fidelity_closed_form(self, p):
        value = fidelity(channel(p), pure_state(BELL))
        assert value == pytest.approx(p + (1 - p) / 4, abs=1e-10)

    def test_fidelity_symmetric_mixed_pair(self):
        a, b = channel(0.3), channel(0.7)
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-12)

    def test_witness_report_ranges(self):
        report = witness_report(channel(0.62), BELL)
        assert 0.25 - 1e-9 <= report.purity <= 1 + 1e-9
        assert 0.0 <= report.concurrence <= 1.0
        assert 0.0 <= report.fidelity <= 1.0
        assert report.against_target == BELL

    def test_witnesses_monotone_in_weight(self):
        ps = np.linspace(0.0, 1.0, 21)
        reports = [witness_report(channel(float(p)), BELL) for p in ps]
        for attr in ("purity", "concurrence", "fidelity"):
            vals = [getattr(r, attr) for r in reports]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_fidelity_rejects_unphysical_target(self):
        m = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
        with pytest.raises(ValueError, match="^fidelity needs a physical target$"):
            fidelity(channel(0.5), m)

    def test_concurrence_rejects_unphysical_input(self):
        m = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
        with pytest.raises(ValueError):
            concurrence(m)


class TestClosedLoop:
    def test_reconstructed_purity_tracks_contrast(self):
        for target in (2.24, 32.3):
            p = contrast_to_p(target)
            noise = noise_rate_for_contrast(target, pair_rate=1e5, window=WINDOW)
            rec = make_record(channel(p), noise=noise)
            est = mle_reconstruct(rec)
            assert purity(est.rho) == pytest.approx(contrast_to_purity(target), abs=1e-8)


class TestPipelineInvariance:
    def test_skyrmion_number_survives_reconstruction(self):
        # topology read off Poisson-reconstructed states matches the source
        # state for any noise level that leaves some signal
        from qskyrmion import (GridSpec, coeff_field, normalize_stokes,
                               skyrmion_number, stokes_field)

        spec = HybridStateSpec(0, 2, 0.0)
        grid = GridSpec(half_width=12.0, samples_per_axis=128)
        coeffs = coeff_field(spec, grid)
        for p in (0.1, 0.3, 0.55, 0.8, 1.0):
            qc_ceiling = 1.0 + 1.0 / (WINDOW * 1e5)
            target = min(max((1 + p) / (1 - p) if p < 1 else qc_ceiling, 1.005), qc_ceiling)
            noise = noise_rate_for_contrast(target, pair_rate=1e5, window=WINDOW)
            rec = make_record(channel(p, spec), noise=noise, mode="poisson", seed=int(p * 100))
            rho_rec = mle_reconstruct(rec).rho
            res = skyrmion_number(normalize_stokes(stokes_field(rho_rec, coeffs)))
            assert res.rounded == 2, f"p={p}: N={res.number}"


class TestRecordSerialization:
    def test_roundtrip(self, tmp_path):
        rec = make_record(channel(0.42), noise=1.5e4, mode="poisson", seed=7)
        path = tmp_path / "record.csv"
        record_to_csv(rec, path)
        back = record_from_csv(path)
        np.testing.assert_array_equal(back.coincidences, rec.coincidences)
        np.testing.assert_array_equal(back.singles_a, rec.singles_a)
        np.testing.assert_array_equal(back.singles_b, rec.singles_b)
        assert back.window == rec.window
        assert back.duration == rec.duration
        assert back.seed == 7
        assert back.mode == "poisson"

    def test_header_carries_metadata(self, tmp_path):
        rec = make_record(channel(0.42))
        path = tmp_path / "record.csv"
        record_to_csv(rec, path)
        text = path.read_text()
        assert text.startswith("# window =")
        assert "basis_a,eigen_a,basis_b,eigen_b" in text

    def test_short_row_raises_value_error(self, tmp_path):
        path = tmp_path / "record.csv"
        record_to_csv(make_record(channel(0.42)), path)
        lines = path.read_text().splitlines()
        lines[10] = lines[10].rsplit(",", 1)[0]  # drop singles_b
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="7 fields"):
            record_from_csv(path)

    @pytest.mark.parametrize("column", [4, 5, 6])
    def test_nan_count_raises_value_error(self, tmp_path, column):
        path = tmp_path / "record.csv"
        record_to_csv(make_record(channel(0.42)), path)
        lines = path.read_text().splitlines()
        fields = lines[10].split(",")
        fields[column] = "nan"
        lines[10] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="must be finite"):
            record_from_csv(path)

    @pytest.mark.parametrize("key", ["window", "duration"])
    def test_missing_metadata_raises_value_error(self, tmp_path, key):
        path = tmp_path / "record.csv"
        record_to_csv(make_record(channel(0.42)), path)
        lines = [ln for ln in path.read_text().splitlines()
                 if not ln.startswith(f"# {key} =")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=key):
            record_from_csv(path)

    def test_settings_order_enforced(self, tmp_path):
        rec = make_record(channel(0.42))
        path = tmp_path / "record.csv"
        record_to_csv(rec, path)
        lines = path.read_text().splitlines()
        lines[8], lines[9] = lines[9], lines[8]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="canonical order"):
            record_from_csv(path)
