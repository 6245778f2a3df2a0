import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qskyrmion import (
    DensityMatrix4,
    HybridStateSpec,
    apply_isotropic_noise,
    channel_purity,
    contrast_from_p,
    contrast_to_p,
    contrast_to_purity,
    pure_state,
    purity,
)
from qskyrmion.biphoton import _contrast_to_purity_quadratic


class TestHybridStateSpec:
    def test_delta_ell(self):
        assert HybridStateSpec(0, 3).delta_ell == 3
        assert HybridStateSpec(2, -1).delta_ell == -3

    def test_rejects_nonfinite_phase(self):
        with pytest.raises(ValueError):
            HybridStateSpec(0, 1, delta=math.nan)


class TestPureState:
    def test_bell_matrix_for_zero_phase(self):
        rho = pure_state(HybridStateSpec(0, 1, 0.0)).matrix
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[3, 3] = expected[0, 3] = expected[3, 0] = 0.5
        np.testing.assert_allclose(rho, expected, atol=1e-15)

    def test_pi_phase_flips_coherence_sign(self):
        rho = pure_state(HybridStateSpec(0, 1, math.pi)).matrix
        assert rho[0, 3] == pytest.approx(-0.5, abs=1e-12)

    @given(
        ell1=st.integers(-5, 5), ell2=st.integers(-5, 5),
        delta=st.floats(0, 2 * math.pi),
    )
    @settings(max_examples=50, deadline=None)
    def test_rank_one_projector_has_unit_purity(self, ell1, ell2, delta):
        rho = pure_state(HybridStateSpec(ell1, ell2, delta))
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)
        assert rho.noise_weight == 1.0


class TestIsotropicNoise:
    def test_identity_at_full_weight(self, bell_rho):
        out = apply_isotropic_noise(bell_rho, 1.0)
        np.testing.assert_allclose(out.matrix, bell_rho.matrix, atol=1e-15)

    def test_maximally_mixed_at_zero_weight(self, bell_rho):
        out = apply_isotropic_noise(bell_rho, 0.0)
        np.testing.assert_allclose(out.matrix, np.eye(4) / 4, atol=1e-15)

    def test_half_weight_purity(self, bell_rho):
        out = apply_isotropic_noise(bell_rho, 0.5)
        assert purity(out) == pytest.approx(0.4375, abs=1e-12)

    def test_rejects_weight_outside_unit_interval(self, bell_rho):
        for p in (-0.1, 1.1):
            with pytest.raises(ValueError):
                apply_isotropic_noise(bell_rho, p)

    def test_rejects_mixed_input(self, bell_rho):
        mixed = apply_isotropic_noise(bell_rho, 0.5)
        with pytest.raises(ValueError):
            apply_isotropic_noise(mixed, 0.9)

    @given(p=st.floats(0.0, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_channel_spectrum(self, p):
        rho = apply_isotropic_noise(pure_state(HybridStateSpec(0, 2, 0.3)), p)
        evals = np.sort(np.linalg.eigvalsh(rho.matrix))
        expected = np.sort([p + (1 - p) / 4, (1 - p) / 4, (1 - p) / 4, (1 - p) / 4])
        np.testing.assert_allclose(evals, expected, atol=1e-12)

    @given(p=st.floats(0.0, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_purity_closed_form(self, p):
        rho = apply_isotropic_noise(pure_state(HybridStateSpec(0, 1, 1.1)), p)
        assert purity(rho) == pytest.approx(p * p + (1 - p * p) / 4, abs=1e-10)
        assert channel_purity(p) == pytest.approx(p * p + (1 - p * p) / 4, abs=1e-15)


class TestPurity:
    def test_maximally_mixed(self):
        assert purity(np.eye(4) / 4) == pytest.approx(0.25, abs=1e-15)

    def test_pure(self, bell_rho):
        assert purity(bell_rho) == pytest.approx(1.0, abs=1e-12)

    def test_channel_output_at_08(self, bell_rho):
        out = apply_isotropic_noise(bell_rho, 0.8)
        assert purity(out) == pytest.approx(0.73, abs=1e-10)

    def test_rejects_non_hermitian(self):
        bad = np.eye(4, dtype=complex) / 4
        bad[0, 1] = 0.3
        with pytest.raises(ValueError):
            purity(bad)


class TestDensityMatrix4:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            DensityMatrix4(np.eye(3) / 3)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix4(np.eye(4))

    def test_rejects_negative_eigenvalue_when_physical(self):
        m = np.diag([0.6, 0.5, -0.05, -0.05]).astype(complex)
        with pytest.raises(ValueError):
            DensityMatrix4(m)
        reported = DensityMatrix4(m, require_physical=False)
        assert reported.min_eigenvalue == pytest.approx(-0.05, abs=1e-12)


class TestContrastRelations:
    def test_unit_contrast_is_fully_mixed(self):
        assert contrast_to_p(1.0) == 0.0
        assert contrast_to_purity(1.0) == pytest.approx(0.25, abs=1e-15)

    def test_infinite_contrast_limit(self):
        assert contrast_to_p(1e9) == pytest.approx(1.0, abs=1e-8)

    def test_known_midpoint(self):
        assert contrast_to_p(3.0) == pytest.approx(0.5, abs=1e-15)
        assert contrast_to_purity(3.0) == pytest.approx(0.4375, abs=1e-15)

    def test_rejects_subunit_contrast(self):
        for f in (contrast_to_p, contrast_to_purity):
            with pytest.raises(ValueError):
                f(0.99)

    def test_high_contrast_state_is_high_purity(self):
        assert contrast_to_purity(32.3) >= 0.79

    @given(p=st.floats(0.0, 0.999))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_through_contrast(self, p):
        assert contrast_to_p(contrast_from_p(p)) == pytest.approx(p, abs=1e-10)

    def test_contrast_at_unit_weight_is_infinite(self):
        assert contrast_from_p(1.0) == math.inf
        assert contrast_to_p(math.inf) == 1.0

    def test_published_purity_forms_agree(self):
        qcs = np.concatenate([np.linspace(1.0, 10.0, 400), np.geomspace(10.0, 1e3, 400)])
        for qc in qcs:
            a = contrast_to_purity(float(qc))
            b = _contrast_to_purity_quadratic(float(qc))
            assert abs(a - b) < 1e-12

    def test_purity_composes_through_p(self):
        for qc in (1.0, 1.7, 3.0, 12.0, 500.0):
            p = contrast_to_p(qc)
            assert contrast_to_purity(qc) == pytest.approx(channel_purity(p), abs=1e-12)
