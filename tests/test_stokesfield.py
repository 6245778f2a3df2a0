import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from qskyrmion import (
    GridSpec,
    HybridStateSpec,
    apply_isotropic_noise,
    coeff_field,
    conditional_state,
    normalize_stokes,
    projection_pair,
    pure_state,
    skyrmion_number,
    stokes_field,
)
from qskyrmion.stokesfield import SIGMA, StokesField


def channel(spec, p):
    return apply_isotropic_noise(pure_state(spec), p)


def center_index(grid):
    return int(np.argmin(np.abs(grid.axis())))


class TestConditionalState:
    def test_pure_state_collapses_to_p1_where_a_dominates(self, bell_spec, bell_coeffs):
        grid = bell_coeffs.grid
        c = center_index(grid)
        cond = conditional_state(pure_state(bell_spec), bell_coeffs, (c, c))
        # at the vortex core photon B is fully P1-polarized
        np.testing.assert_allclose(cond, np.diag([1.0, 0.0]), atol=1e-8)

    def test_fully_mixed_channel_gives_identity_over_two(self, bell_spec, bell_coeffs):
        rho = channel(bell_spec, 0.0)
        for point in [(10, 20), (32, 40), (50, 12)]:
            cond = conditional_state(rho, bell_coeffs, point)
            np.testing.assert_allclose(cond, np.eye(2) / 2, atol=1e-12)

    def test_half_weight_off_diagonal_where_weights_balance(self):
        # direct matrix arithmetic oracle: p |chi><chi| + (1-p)/2 I with
        # chi = (1, 1)/sqrt(2) has off-diagonal p/2 = 0.25
        spec = HybridStateSpec(0, 1, 0.0)
        grid = GridSpec(half_width=6.0, samples_per_axis=513)
        cf = coeff_field(spec, grid)
        balance = np.abs(np.abs(cf.a) ** 2 - 0.5) + np.abs(cf.b.imag)
        i, j = np.unravel_index(np.argmin(balance), balance.shape)
        rho = channel(spec, 0.5)
        cond = conditional_state(rho, cf, (i, j))
        chi = np.array([cf.a[i, j], cf.b[i, j]])
        oracle = 0.5 * np.outer(chi, chi.conj()) + 0.25 * np.eye(2)
        np.testing.assert_allclose(cond, oracle, atol=1e-12)
        assert abs(cond[0, 1]) == pytest.approx(0.25, abs=1e-3)

    def test_masked_point_raises(self, bell_spec):
        grid = GridSpec(half_width=40.0, samples_per_axis=64)
        cf = coeff_field(bell_spec, grid)
        masked_points = np.argwhere(cf.mask)
        with pytest.raises(ValueError):
            conditional_state(pure_state(bell_spec), cf, tuple(masked_points[0]))

    def test_unit_trace_for_channel_outputs(self, bell_spec, bell_coeffs):
        for p in (0.0, 0.3, 1.0):
            cond = conditional_state(channel(bell_spec, p), bell_coeffs, (20, 30))
            assert np.trace(cond).real == pytest.approx(1.0, abs=1e-12)


class TestStokesField:
    def test_north_pole_at_origin(self, bell_spec, bell_coeffs):
        fld = stokes_field(pure_state(bell_spec), bell_coeffs)
        c = center_index(bell_coeffs.grid)
        vec = np.array([fld.s1[c, c], fld.s2[c, c], fld.s3[c, c]])
        np.testing.assert_allclose(vec, [0.0, 0.0, 1.0], atol=1e-8)

    @pytest.mark.parametrize("p", [0.25, 0.6, 0.9])
    def test_noise_scales_vector_part_pointwise(self, bell_spec, bell_coeffs, p):
        pure = stokes_field(pure_state(bell_spec), bell_coeffs)
        noisy = stokes_field(channel(bell_spec, p), bell_coeffs)
        for s_pure, s_noisy in [(pure.s1, noisy.s1), (pure.s2, noisy.s2), (pure.s3, noisy.s3)]:
            np.testing.assert_allclose(s_noisy, p * s_pure, atol=1e-9)

    def test_vector_norm_equals_weight_for_channel_outputs(self, bell_spec, bell_coeffs):
        for p in (0.05, 0.5, 1.0):
            fld = stokes_field(channel(bell_spec, p), bell_coeffs)
            live = ~fld.mask
            np.testing.assert_allclose(fld.vector_norm()[live], p, atol=1e-9)

    def test_zero_weight_gives_zero_vectors(self, bell_spec, bell_coeffs):
        fld = stokes_field(channel(bell_spec, 0.0), bell_coeffs)
        assert np.max(np.abs([fld.s1, fld.s2, fld.s3])) < 1e-14

    def test_vector_bounded_by_intensity(self, bell_coeffs):
        spec = HybridStateSpec(0, 1, 0.8)
        for p in (0.0, 0.4, 1.0):
            fld = stokes_field(channel(spec, p), bell_coeffs)
            live = ~fld.mask
            gap = fld.s0[live] ** 2 + 1e-9 - fld.vector_norm()[live] ** 2
            assert gap.min() >= 0

    def test_unit_intensity_for_channel_outputs(self, bell_spec, bell_coeffs):
        fld = stokes_field(channel(bell_spec, 0.37), bell_coeffs)
        live = ~fld.mask
        np.testing.assert_allclose(fld.s0[live], 1.0, atol=1e-10)


class TestRelativePhase:
    def test_texture_carries_delta_once(self):
        # closed form of the pure (0, 1) texture: with u = ln(|LG_1| / |LG_0|)
        # = ln(sqrt(2) r) and theta = dl*phi + delta, the unit Stokes vector is
        # (sech u cos theta, sech u sin theta, -tanh u)
        spec = HybridStateSpec(0, 1, 0.7)
        grid = GridSpec(half_width=5.0, samples_per_axis=64)
        field = normalize_stokes(stokes_field(pure_state(spec), coeff_field(spec, grid)))
        X, Y = grid.mesh()
        u = np.log(np.sqrt(2.0) * np.hypot(X, Y))
        theta = spec.delta_ell * np.arctan2(Y, X) + spec.delta
        expected = np.stack([np.cos(theta) / np.cosh(u), np.sin(theta) / np.cosh(u),
                             -np.tanh(u)], axis=-1)
        live = ~field.mask
        assert live.any()
        assert np.max(np.abs(field.vectors[live] - expected[live])) < 1e-9


class TestProjectionPair:
    @given(
        i=st.integers(5, 58), j=st.integers(5, 58), axis=st.integers(1, 3),
        p=st.floats(0.0, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_difference_reproduces_stokes_component(self, bell_spec, bell_coeffs, i, j, axis, p):
        rho = channel(bell_spec, p)
        i_plus, i_minus, _ = projection_pair(rho, bell_coeffs, (i, j), axis)
        fld = stokes_field(rho, bell_coeffs)
        component = (fld.s1, fld.s2, fld.s3)[axis - 1][i, j]
        assert i_plus - i_minus == pytest.approx(component, abs=1e-12)

    def test_fully_mixed_splits_evenly(self, bell_spec, bell_coeffs):
        rho = channel(bell_spec, 0.0)
        for axis in (1, 2, 3):
            i_plus, i_minus, share = projection_pair(rho, bell_coeffs, (12, 40), axis)
            assert i_plus == pytest.approx(0.5, abs=1e-12)
            assert i_minus == pytest.approx(0.5, abs=1e-12)
            assert share == pytest.approx(0.5, abs=1e-15)

    def test_pure_state_has_no_noise_share(self, bell_spec, bell_coeffs):
        _, _, share = projection_pair(pure_state(bell_spec), bell_coeffs, (12, 40), 1)
        assert share == 0.0

    def test_projections_carry_equal_noise_shares(self, bell_spec, bell_coeffs):
        # subtracting the pure contributions isolates the identical additive
        # noise term in both projections
        p = 0.6
        noisy = channel(bell_spec, p)
        pure = pure_state(bell_spec)
        for axis in (1, 2, 3):
            for point in [(8, 9), (30, 41), (55, 20)]:
                np_plus, np_minus, share = projection_pair(noisy, bell_coeffs, point, axis)
                pp_plus, pp_minus, _ = projection_pair(pure, bell_coeffs, point, axis)
                assert np_plus - p * pp_plus == pytest.approx(share, abs=1e-12)
                assert np_minus - p * pp_minus == pytest.approx(share, abs=1e-12)

    def test_scaled_difference_matches_pure_component(self, bell_spec, bell_coeffs):
        p = 0.6
        noisy = channel(bell_spec, p)
        fld_pure = stokes_field(pure_state(bell_spec), bell_coeffs)
        for axis in (1, 2, 3):
            i_plus, i_minus, _ = projection_pair(noisy, bell_coeffs, (25, 33), axis)
            pure_component = (fld_pure.s1, fld_pure.s2, fld_pure.s3)[axis - 1][25, 33]
            assert i_plus - i_minus == pytest.approx(p * pure_component, abs=1e-12)

    def test_invalid_axis_rejected(self, bell_spec, bell_coeffs):
        with pytest.raises(ValueError):
            projection_pair(pure_state(bell_spec), bell_coeffs, (3, 3), 0)

    def test_requires_recorded_noise_weight(self, bell_spec, bell_coeffs):
        raw = pure_state(bell_spec).matrix
        with pytest.raises(ValueError):
            projection_pair(raw, bell_coeffs, (3, 3), 1)


class TestNormalizeStokes:
    def test_noisy_texture_equals_pure_texture(self, bell_spec, bell_coeffs):
        pure = normalize_stokes(stokes_field(pure_state(bell_spec), bell_coeffs))
        for p in (0.05, 0.3, 0.999, 1.0):
            noisy = normalize_stokes(stokes_field(channel(bell_spec, p), bell_coeffs))
            np.testing.assert_allclose(noisy.vectors, pure.vectors, atol=1e-9)

    def test_unit_norm_off_mask(self, bell_spec, bell_coeffs):
        fld = normalize_stokes(stokes_field(channel(bell_spec, 0.7), bell_coeffs))
        norms = np.linalg.norm(fld.vectors, axis=-1)[~fld.mask]
        np.testing.assert_allclose(norms, 1.0, atol=1e-10)

    def test_fully_mixed_collapses_to_masked_flag(self, bell_spec, bell_coeffs):
        fld = normalize_stokes(stokes_field(channel(bell_spec, 0.0), bell_coeffs))
        assert fld.collapsed
        assert fld.mask.all()
        assert fld.masked_fraction == 1.0

    def test_single_vector_normalization(self, bell_spec, small_grid, bell_coeffs):
        n = small_grid.samples_per_axis
        raw = StokesField(
            s0=np.ones((n, n)),
            s1=np.zeros((n, n)),
            s2=np.zeros((n, n)),
            s3=np.full((n, n), 0.3),
            mask=np.zeros((n, n), dtype=bool),
            grid=small_grid,
        )
        unit = normalize_stokes(raw)
        np.testing.assert_allclose(unit.vectors[0, 0], [0.0, 0.0, 1.0], atol=1e-14)

    def test_degenerate_mask_independent_of_weight(self, bell_spec):
        grid = GridSpec(half_width=40.0, samples_per_axis=64)
        cf = coeff_field(bell_spec, grid)
        masks = [
            normalize_stokes(stokes_field(channel(bell_spec, p), cf)).mask
            for p in (0.05, 0.2, 1.0)
        ]
        assert all((m == masks[0]).all() for m in masks[1:])


# rho = G G^dag / Tr(G G^dag) for a random complex 4x4 G: every physical state
GINIBRE = arrays(np.float64, (2, 4, 4), elements=st.floats(-1.0, 1.0))
CHARGES = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
# U = Q of the QR factorization of a random complex 2x2 matrix
POLARIZATION_UNITARY = arrays(np.float64, (2, 2, 2), elements=st.floats(-1.0, 1.0))
# corners beyond ~27 waists underflow, so every field has masked points
MASKED_GRID = GridSpec(half_width=30.0, samples_per_axis=24)
PAULI_0123 = (np.eye(2), SIGMA[1], SIGMA[2], SIGMA[3])


def ginibre_state(parts):
    g = parts[0] + 1j * parts[1]
    gram = g @ g.conj().T
    trace = np.trace(gram).real
    assume(trace > 1e-6)
    return 0.5 * (gram + gram.conj().T) / trace


def local_unitary(parts):
    z = parts[0] + 1j * parts[1]
    assume(abs(np.linalg.det(z)) > 1e-3)
    q, _ = np.linalg.qr(z)
    return q


def oracle_conditional(rho, a, b):
    """2 <r|rho|r> on photon B by explicit 2x2 block arithmetic."""
    m00, m01, m10, m11 = rho[:2, :2], rho[:2, 2:], rho[2:, :2], rho[2:, 2:]
    return 2.0 * (abs(a) ** 2 * m00 + a * np.conj(b) * m01
                  + np.conj(a) * b * m10 + abs(b) ** 2 * m11)


class TestArbitraryDensityMatrix:
    @given(parts=GINIBRE, charges=CHARGES)
    @settings(max_examples=40, deadline=None)
    def test_stokes_field_matches_pointwise_oracle(self, parts, charges):
        rho = ginibre_state(parts)
        cf = coeff_field(HybridStateSpec(*charges), MASKED_GRID)
        fld = stokes_field(rho, cf)
        got = np.stack([fld.s0, fld.s1, fld.s2, fld.s3], axis=-1)
        for i, j in np.ndindex(cf.mask.shape):
            if cf.mask[i, j]:
                assert not got[i, j].any()
                continue
            cond = oracle_conditional(rho, cf.a[i, j], cf.b[i, j])
            want = [np.trace(s @ cond).real for s in PAULI_0123]
            np.testing.assert_allclose(got[i, j], want, rtol=0, atol=1e-12)

    @given(parts=GINIBRE, charges=CHARGES, i=st.integers(0, 23), j=st.integers(0, 23))
    @settings(max_examples=100, deadline=None)
    def test_conditional_state_is_hermitian_with_trace_s0(self, parts, charges, i, j):
        rho = ginibre_state(parts)
        cf = coeff_field(HybridStateSpec(*charges), MASKED_GRID)
        assume(not cf.mask[i, j])
        cond = conditional_state(rho, cf, (i, j))
        np.testing.assert_allclose(cond, cond.conj().T, rtol=0, atol=1e-12)
        assert np.trace(cond).real == pytest.approx(stokes_field(rho, cf).s0[i, j], abs=1e-12)
        oracle = oracle_conditional(rho, cf.a[i, j], cf.b[i, j])
        np.testing.assert_allclose(cond, oracle, rtol=0, atol=1e-12)

    @given(parts=GINIBRE, charges=CHARGES, p=st.floats(1e-2, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_isotropic_mixing_keeps_texture_and_number(self, parts, charges, p):
        # the identity's conditional has zero Stokes vector, so mixing any
        # state with it only rescales the vector part
        rho = ginibre_state(parts)
        cf = coeff_field(HybridStateSpec(*charges), GridSpec(half_width=6.0, samples_per_axis=48))
        base_raw = stokes_field(rho, cf)
        mixed_raw = stokes_field(p * rho + (1.0 - p) * np.eye(4) / 4.0, cf)
        # the rescaling is exact on the raw Stokes vectors; normalizing divides
        # their rounding by p |S|, which can sit just above the degeneracy cut
        np.testing.assert_allclose(
            np.stack([mixed_raw.s1, mixed_raw.s2, mixed_raw.s3], axis=-1),
            p * np.stack([base_raw.s1, base_raw.s2, base_raw.s3], axis=-1),
            rtol=0, atol=1e-12)
        base = normalize_stokes(base_raw)
        mixed = normalize_stokes(mixed_raw)
        assert skyrmion_number(mixed).number == pytest.approx(
            skyrmion_number(base).number, abs=1e-12)

    @given(parts=GINIBRE, charges=CHARGES, u_parts=POLARIZATION_UNITARY)
    @settings(max_examples=60, deadline=None)
    def test_local_polarization_unitary_keeps_number(self, parts, charges, u_parts):
        # (I x U) rho (I x U)^dag turns every Stokes vector of photon B by
        # the same proper rotation R, and S . (dS/dx x dS/dy) is invariant
        rho = ginibre_state(parts)
        u = local_unitary(u_parts)
        rot = np.array([[0.5 * np.trace(si @ u @ sj @ u.conj().T).real
                         for sj in PAULI_0123[1:]] for si in PAULI_0123[1:]])
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)
        local = np.kron(np.eye(2), u)
        cf = coeff_field(HybridStateSpec(*charges), GridSpec(half_width=6.0, samples_per_axis=48))
        base_raw = stokes_field(rho, cf)
        turned_raw = stokes_field(local @ rho @ local.conj().T, cf)
        # the rotation is exact on the raw Stokes vectors; normalizing divides
        # their rounding by |S|, which can sit just above the degeneracy cut
        np.testing.assert_allclose(
            np.stack([turned_raw.s1, turned_raw.s2, turned_raw.s3], axis=-1),
            np.stack([base_raw.s1, base_raw.s2, base_raw.s3], axis=-1) @ rot.T,
            rtol=0, atol=1e-12)
        base = normalize_stokes(base_raw)
        turned = normalize_stokes(turned_raw)
        # the degeneracy cut is absolute, so rounding may move a point across it
        assume((turned.mask == base.mask).all())
        assert skyrmion_number(turned).number == pytest.approx(
            skyrmion_number(base).number, abs=1e-10)
