import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

from qskyrmion import GridSpec, HybridStateSpec, ModeSpec, bloch_texture, coeff_field, lg_amplitude


class TestModeSpec:
    def test_rejects_nonpositive_waist(self):
        with pytest.raises(ValueError):
            ModeSpec(ell=1, waist=0.0)
        with pytest.raises(ValueError):
            ModeSpec(ell=1, waist=-2.0)


class TestGridSpec:
    def test_spacing(self):
        g = GridSpec(half_width=5.0, samples_per_axis=101)
        assert g.spacing == pytest.approx(0.1)

    @pytest.mark.parametrize("n", [16, 17, 97, 256])
    @pytest.mark.parametrize("half_width", [0.1, 5.0, 7.3, 30.0])
    def test_axis_is_exactly_antisymmetric(self, n, half_width):
        x = GridSpec(half_width, n).axis()
        np.testing.assert_array_equal(x[::-1], -x)
        assert (x[0], x[-1]) == (-half_width, half_width)
        assert np.all(np.diff(x) > 0)
        if n % 2:
            assert x[n // 2] == 0.0 and not np.signbit(x[n // 2])

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            GridSpec(half_width=5.0, samples_per_axis=8)

    @pytest.mark.parametrize("half_width", [1e-160, 1e160, 1e308])
    def test_rejects_a_spacing_whose_square_is_not_normal(self, half_width):
        with pytest.raises(ValueError, match="grid spacing"):
            GridSpec(half_width, 64)

    @pytest.mark.parametrize("bound", [2.0**-511, 2.0**511], ids=["low", "high"])
    def test_accepts_a_spacing_on_the_bound(self, bound):
        # 65 samples give spacing = half_width / 32 exactly
        h = GridSpec(32.0 * bound, 65).spacing
        assert h == bound
        assert np.isfinite(1.0 / (h * h)) and min(h * h, 1.0 / (h * h)) >= np.finfo(float).tiny

    @pytest.mark.parametrize("bound, step", [(2.0**-511, 0.0), (2.0**511, math.inf)],
                             ids=["low", "high"])
    def test_rejects_a_spacing_one_ulp_past_the_bound(self, bound, step):
        with pytest.raises(ValueError, match="grid spacing"):
            GridSpec(32.0 * math.nextafter(bound, step), 65)

    def test_rejects_non_integer_samples(self):
        with pytest.raises(ValueError, match="integer"):
            GridSpec(half_width=5.0, samples_per_axis=64.7)
        assert GridSpec(5.0, np.int64(64)).axis().shape == (64,)


class TestLgAmplitude:
    def test_vortex_null_at_origin(self):
        assert lg_amplitude(0.0, 0.0, ModeSpec(ell=1)) == 0.0
        assert lg_amplitude(0.0, 1.3, ModeSpec(ell=-2)) == 0.0

    def test_gaussian_nonzero_at_origin(self):
        assert abs(lg_amplitude(0.0, 0.0, ModeSpec(ell=0))) > 0.5

    @given(
        r=st.floats(min_value=0.0, max_value=6.0),
        phi1=st.floats(min_value=-math.pi, max_value=math.pi),
        phi2=st.floats(min_value=-math.pi, max_value=math.pi),
        ell=st.integers(min_value=-4, max_value=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_modulus_azimuthally_symmetric(self, r, phi1, phi2, ell):
        mode = ModeSpec(ell=ell)
        m1 = abs(lg_amplitude(r, phi1, mode))
        m2 = abs(lg_amplitude(r, phi2, mode))
        assert m1 == pytest.approx(m2, abs=1e-12)

    def test_vortex_phase_factor(self):
        mode = ModeSpec(ell=3)
        v1 = lg_amplitude(1.0, 0.0, mode)
        v2 = lg_amplitude(1.0, 0.4, mode)
        assert np.angle(v2 / v1) == pytest.approx(3 * 0.4, abs=1e-12)

    def test_peak_radius_matches_brute_force_scan(self):
        # independent 1D scan of the radial profile for ell=2, w=1
        mode = ModeSpec(ell=2)
        r = np.linspace(0.0, 5.0, 200001)
        profile = np.abs(lg_amplitude(r, 0.0, mode))
        r_peak = r[np.argmax(profile)]
        assert r_peak == pytest.approx(1.0, abs=1e-4)
        assert r_peak == pytest.approx(mode.waist * math.sqrt(abs(mode.ell) / 2), abs=1e-4)

    @pytest.mark.parametrize("ell", [0, 1, 2, 3, -3])
    def test_l2_normalization_by_grid_quadrature(self, ell):
        mode = ModeSpec(ell=ell)
        g = GridSpec(half_width=6.0, samples_per_axis=401)
        X, Y = g.mesh()
        amp = lg_amplitude(np.hypot(X, Y), np.arctan2(Y, X), mode)
        total = np.trapezoid(np.trapezoid(np.abs(amp) ** 2, dx=g.spacing, axis=1),
                             dx=g.spacing, axis=0)
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_rejects_nonfinite_input(self):
        with pytest.raises(ValueError):
            lg_amplitude(np.nan, 0.0, ModeSpec(0))
        with pytest.raises(ValueError):
            lg_amplitude(1.0, np.inf, ModeSpec(0))
        with pytest.raises(ValueError):
            lg_amplitude(-1.0, 0.0, ModeSpec(0))


class TestCoeffField:
    @given(
        ell1=st.integers(min_value=-3, max_value=3),
        ell2=st.integers(min_value=-3, max_value=3),
        delta=st.floats(min_value=0.0, max_value=2 * math.pi),
    )
    @settings(max_examples=60, deadline=None)
    def test_pointwise_normalization(self, ell1, ell2, delta):
        spec = HybridStateSpec(ell1, ell2, delta)
        grid = GridSpec(half_width=6.0, samples_per_axis=32)
        cf = coeff_field(spec, grid)
        live = ~cf.mask
        norms = np.abs(cf.a[live]) ** 2 + np.abs(cf.b[live]) ** 2
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    @given(
        charges=st.tuples(st.integers(-12, 12), st.integers(-12, 12)) | st.just((0, 170)),
        n=st.sampled_from((16, 17, 48, 97)),
        half_width=st.floats(min_value=3.0, max_value=30.0),
    )
    @example(charges=(2, -5), n=48, half_width=30.0)
    @settings(max_examples=60, deadline=None)
    def test_coordinates_are_exact_on_unmasked_points(self, charges, n, half_width):
        # |a|^2 + |b|^2 = 1 and so |n| = 1 to an ulp or two, however far
        # into the Gaussian tail the window reaches
        cf = coeff_field(HybridStateSpec(*charges), GridSpec(half_width, n))
        live = ~cf.mask
        h = cf.coords[live.ravel()]
        bloch = bloch_texture(cf).vectors[live]
        assert np.abs(h[:, 0] + h[:, 1] - 1.0).max(initial=0.0) <= 2.3e-16
        assert np.abs(np.sum(bloch**2, axis=1) - 1.0).max(initial=0.0) <= 8.9e-16

    @pytest.mark.parametrize("n", [17, 97])
    @pytest.mark.parametrize("charges, weights", [
        ((2, -5), (1.0, 0.0)),
        ((-3, 1), (0.0, 1.0)),
        ((1, -1), (math.sqrt(0.5),) * 2),
        ((3, 3), (math.sqrt(0.5),) * 2),
    ])
    def test_centre_coefficients_are_the_limits_along_r(self, n, charges, weights):
        # r = 0 lies on an odd grid; the smaller |ell| takes all the weight
        # there, and equal |ell| share it equally at every radius
        grid = GridSpec(6.0, n)
        assert grid.axis()[n // 2] == 0.0
        cf = coeff_field(HybridStateSpec(*charges, 0.4), grid)
        centre = (n // 2, n // 2)
        for value, weight in zip((cf.a[centre], cf.b[centre]), weights):
            assert value.imag == 0.0
            assert abs(value.real - weight) <= np.spacing(weight)

    def test_azimuthal_phase_structure(self):
        spec = HybridStateSpec(0, 3, 0.7)
        grid = GridSpec(half_width=6.0, samples_per_axis=129)
        cf = coeff_field(spec, grid)
        x = grid.axis()
        i0 = np.argmin(np.abs(x - 1.0))
        j0 = np.argmin(np.abs(x))
        # ray at phi = 0 versus a point at the same radius, phi = pi/2
        b_right = cf.b[i0, j0]
        b_up = cf.b[j0, i0]
        dphi = np.angle(b_up / b_right) % (2 * math.pi)
        assert dphi == pytest.approx((spec.delta_ell * math.pi / 2) % (2 * math.pi), abs=1e-10)

    def test_b_real_positive_on_x_axis_when_delta_zero(self):
        spec = HybridStateSpec(0, 1, 0.0)
        grid = GridSpec(half_width=6.0, samples_per_axis=129)
        cf = coeff_field(spec, grid)
        x = grid.axis()
        i = np.argmin(np.abs(x - 2.0))
        j = np.argmin(np.abs(x))
        val = cf.b[i, j]
        assert val.imag == pytest.approx(0.0, abs=1e-12)
        assert val.real > 0

    def test_center_weights_for_gaussian_vortex_pair(self):
        spec = HybridStateSpec(0, 1, 0.0)
        grid = GridSpec(half_width=6.0, samples_per_axis=129)
        cf = coeff_field(spec, grid)
        center = np.argmin(np.abs(grid.axis()))
        assert abs(cf.a[center, center]) == pytest.approx(1.0, abs=1e-12)
        assert abs(cf.b[center, center]) == pytest.approx(0.0, abs=1e-12)

    def test_half_intensity_contour_matches_bisection_oracle(self):
        # |b|^2 = 1/2 exactly where the two envelopes cross
        spec = HybridStateSpec(0, 3, 0.0)

        def envelope_gap(r):
            e0 = abs(lg_amplitude(r, 0.0, ModeSpec(0)))
            e3 = abs(lg_amplitude(r, 0.0, ModeSpec(3)))
            return e0 - e3

        r_cross = brentq(envelope_gap, 0.3, 3.0, xtol=1e-13)
        assert r_cross == pytest.approx((math.sqrt(3.0) / 2.0) ** (1.0 / 3.0), abs=1e-10)

        grid = GridSpec(half_width=4.0, samples_per_axis=2049)
        cf = coeff_field(spec, grid)
        x = grid.axis()
        i = np.argmin(np.abs(x - r_cross))
        j = np.argmin(np.abs(x))
        assert abs(cf.b[i, j]) ** 2 == pytest.approx(0.5, abs=2e-3)

    def test_far_tail_is_masked_not_divided(self):
        spec = HybridStateSpec(0, 1, 0.0)
        grid = GridSpec(half_width=40.0, samples_per_axis=128)
        cf = coeff_field(spec, grid)
        assert cf.mask.any()
        assert not cf.mask.all()
        assert np.all(np.isfinite(cf.a))
        assert np.all(np.isfinite(cf.b))
        # mask is exactly the region where the joint envelope underflows
        r, _ = grid.polar()
        assert not cf.mask[r < 20.0].any()
        assert cf.mask[r > 32.0].all()

    def test_center_masked_when_both_charges_vortex(self):
        spec = HybridStateSpec(1, 2, 0.0)
        grid = GridSpec(half_width=6.0, samples_per_axis=129)  # odd: r=0 on grid
        cf = coeff_field(spec, grid)
        center = np.argmin(np.abs(grid.axis()))
        assert cf.mask[center, center]

    def test_trivial_equal_charge_pair_allowed(self):
        spec = HybridStateSpec(2, -2, 0.0)
        grid = GridSpec(half_width=6.0, samples_per_axis=64)
        cf = coeff_field(spec, grid)
        live = ~cf.mask
        np.testing.assert_allclose(np.abs(cf.a[live]), 1 / math.sqrt(2), atol=1e-12)
