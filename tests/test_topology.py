import math

import numpy as np
import pytest

from qskyrmion import (
    GridSpec,
    HybridStateSpec,
    bloch_texture,
    channel_skyrmion_numbers,
    coeff_field,
    convergence_scan,
    pullback_skyrmion_number,
    pure_state,
    skyrmion_density,
    skyrmion_number,
    skyrmion_number_analytic,
    suggested_grid,
    texture_for_state,
)
from qskyrmion.stokesfield import UnitVectorField
from qskyrmion.topology import _CENTRAL_WEIGHTS, STENCIL_ORDER, _diff, _result, _sweep_results


def constant_field(grid, direction=(0.0, 0.0, 1.0)):
    n = grid.samples_per_axis
    vec = np.broadcast_to(np.asarray(direction, dtype=float), (n, n, 3)).copy()
    return UnitVectorField(vectors=vec, mask=np.zeros((n, n), dtype=bool), grid=grid)


def stereographic_field(grid, winding=1):
    """Closed-form degree-|winding| texture: plane -> sphere by inverse
    stereographic projection, azimuth multiplied by the winding."""
    X, Y = grid.mesh()
    r2 = X**2 + Y**2
    phi = np.arctan2(Y, X)
    sin_theta = 2 * np.sqrt(r2) / (1 + r2)
    vec = np.stack([
        sin_theta * np.cos(winding * phi),
        sin_theta * np.sin(winding * phi),
        (1 - r2) / (1 + r2),
    ], axis=-1)
    n = grid.samples_per_axis
    return UnitVectorField(vectors=vec, mask=np.zeros((n, n), dtype=bool), grid=grid)


def stereographic_total_charge_oracle(winding=1, r_max=2000.0):
    """Independent quadrature of the closed-form texture's charge density
    using analytic radial derivatives, no finite differences anywhere.

    For S = (sin(T) cos(m phi), sin(T) sin(m phi), cos(T)) with
    cos(T) = (1 - r^2)/(1 + r^2), the density is m T'(r) sin(T)/r and the
    area integral collapses to 2 pi m * integral of -d(cos T)/dr.
    """
    r = np.geomspace(1e-9, r_max, 2_000_001)
    minus_dcos_dr = 4 * r / (1 + r**2) ** 2
    return 2 * math.pi * winding * np.trapezoid(minus_dcos_dr, r)


class TestSkyrmionDensity:
    def test_constant_field_has_zero_density(self):
        grid = GridSpec(half_width=3.0, samples_per_axis=64)
        dens = skyrmion_density(constant_field(grid))
        assert np.max(np.abs(dens)) == 0.0

    def test_rotation_invariance_of_density(self, rng):
        grid = GridSpec(half_width=8.0, samples_per_axis=96)
        fld = stereographic_field(grid, winding=2)
        dens = skyrmion_density(fld)
        # random rotation about a random axis
        from scipy.spatial.transform import Rotation

        rot = Rotation.random(random_state=12).as_matrix()
        rotated = UnitVectorField(
            vectors=fld.vectors @ rot.T, mask=fld.mask, grid=grid)
        dens_rot = skyrmion_density(rotated)
        np.testing.assert_allclose(dens_rot, dens, atol=1e-10)

    def test_bell_texture_charge_integrates_to_4pi(self):
        # oracle: the analytic degree-1 sphere map carries total charge 4*pi
        oracle = stereographic_total_charge_oracle(winding=1)
        assert oracle == pytest.approx(4 * math.pi, rel=1e-6)

        spec = HybridStateSpec(0, 1, 0.0)
        fld = texture_for_state(spec, 1.0)
        dens = skyrmion_density(fld)
        h = fld.grid.spacing
        total = np.trapezoid(np.trapezoid(dens, dx=h, axis=1), dx=h, axis=0)
        assert total == pytest.approx(oracle, abs=0.02)

    def test_closed_form_texture_number(self):
        grid = GridSpec(half_width=60.0, samples_per_axis=512)
        res = skyrmion_number(stereographic_field(grid, winding=1))
        # the closed-form texture has a fat 1/r^2 tail; the window bound
        # dominates the deviation
        assert res.number == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("shape", [(64, 64, 2), (65, 64, 3)])
    def test_vectors_not_matching_grid_rejected(self, shape):
        grid = GridSpec(half_width=3.0, samples_per_axis=64)
        fld = UnitVectorField(vectors=np.zeros(shape), mask=np.zeros((64, 64), dtype=bool),
                              grid=grid)
        with pytest.raises(ValueError, match="does not match grid"):
            skyrmion_density(fld)


def difference_matrix(n, spacing):
    """Explicit (n, n) first-derivative matrix, built row by row: the full
    central stencil where it fits, the widest central stencil that fits
    near the edges, one-sided second-order rows at the two ends."""
    half = STENCIL_ORDER // 2
    d = np.zeros((n, n))
    d[0, :3] = (-1.5, 2.0, -0.5)
    d[-1, -3:] = (0.5, -2.0, 1.5)
    for i in range(1, n - 1):
        reach = min(i, n - 1 - i, half)
        for k, w in enumerate(_CENTRAL_WEIGHTS[2 * reach], start=1):
            d[i, i + k] += w
            d[i, i - k] -= w
    return d / spacing


def stencil_footprint(mask):
    """Points within STENCIL_ORDER // 2 of a masked point along x or y."""
    half = STENCIL_ORDER // 2
    bad = np.zeros_like(mask)
    for i, j in np.argwhere(mask):
        bad[max(i - half, 0) : i + half + 1, j] = True
        bad[i, max(j - half, 0) : j + half + 1] = True
    return bad


def oracle_density(vectors, mask, spacing):
    d = difference_matrix(vectors.shape[0], spacing)
    dx = np.einsum("ij,jkc->ikc", d, vectors)
    dy = np.einsum("kj,ijc->ikc", d, vectors)
    dens = np.einsum("ijc,ijc->ij", vectors, np.cross(dx, dy))
    dens[stencil_footprint(mask)] = 0.0
    return dens


def random_unit_field(rng, n, masked_share=0.0):
    vec = rng.normal(size=(n, n, 3))
    vec /= np.linalg.norm(vec, axis=-1, keepdims=True)
    mask = rng.random((n, n)) < masked_share
    vec[mask] = 0.0
    return vec, mask


class TestDensityKernel:
    @pytest.mark.parametrize("n", [17, 33])
    def test_reference_rows_are_exact_on_polynomials(self, n):
        # checks the weight table itself: each row differentiates every
        # polynomial up to its order exactly
        x = np.linspace(-1.0, 1.0, n)
        d = difference_matrix(n, x[1] - x[0])
        half = STENCIL_ORDER // 2
        for i in range(n):
            order = 2 if i in (0, n - 1) else 2 * min(i, n - 1 - i, half)
            for k in range(1, order + 1):
                assert d[i] @ x**k == pytest.approx(k * x[i] ** (k - 1), abs=1e-9)

    @pytest.mark.parametrize("n", [16, 17, 64])
    @pytest.mark.parametrize("layout", ["contiguous", "transposed", "strided"])
    def test_matches_difference_matrix_oracle(self, rng, n, layout):
        vec, mask = random_unit_field(rng, n, masked_share=0.01)
        assert mask.any()
        if layout == "transposed":
            vec = np.ascontiguousarray(vec.transpose(1, 0, 2)).transpose(1, 0, 2)
        elif layout == "strided":
            big = np.zeros((2 * n, 2 * n, 5))
            big[::2, 1::2, 1:4] = vec
            vec = big[::2, 1::2, 1:4]
        assert vec.flags.c_contiguous == (layout == "contiguous")
        grid = GridSpec(half_width=3.0, samples_per_axis=n)
        fld = UnitVectorField(vectors=vec, mask=mask, grid=grid)
        got = skyrmion_density(fld)
        want = oracle_density(vec, mask, grid.spacing)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
        assert not got[stencil_footprint(mask)].any()

    @pytest.mark.parametrize("n", [16, 17, 64, 132])
    def test_diff_matches_difference_matrix_on_every_row(self, rng, n):
        f, spacing = rng.normal(size=(n, 3, 5)), 0.3
        got = _diff(f, spacing, np.empty_like(f))
        want = np.einsum("ij,j...->i...", difference_matrix(n, spacing), f)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("n", [16, 17, 64, 132])
    def test_far_edge_is_the_mirrored_near_edge(self, rng, n):
        f, half = rng.normal(size=(n, 3, n)), STENCIL_ORDER // 2
        near = _diff(f[::-1], 0.3, np.empty_like(f))[:half]
        far = _diff(f, 0.3, np.empty_like(f))[::-1][:half]
        assert np.array_equal(near, -far)

    @pytest.mark.parametrize("point,count", [
        ((16, 16), 17), ((0, 0), 9), ((2, 31), 11), ((31, 5), 13), ((5, 3), 16),
    ])
    def test_one_masked_point_zeroes_its_plus_footprint(self, rng, point, count):
        n = 32
        vec, _ = random_unit_field(rng, n)
        mask = np.zeros((n, n), dtype=bool)
        mask[point] = True
        vec[point] = 0.0
        grid = GridSpec(half_width=3.0, samples_per_axis=n)
        dens = skyrmion_density(UnitVectorField(vectors=vec, mask=mask, grid=grid))
        expected = stencil_footprint(mask)
        assert expected.sum() == count
        np.testing.assert_array_equal(dens == 0.0, expected)


class TestSkyrmionNumber:
    @pytest.mark.parametrize("ell2,expected", [(1, 1), (2, 2), (3, 3), (-3, -3)])
    def test_gaussian_vortex_family(self, ell2, expected):
        spec = HybridStateSpec(0, ell2, 0.0)
        res = skyrmion_number(texture_for_state(spec, 1.0))
        assert res.number == pytest.approx(expected, abs=1e-2)
        assert res.rounded == expected
        assert res.residual < 1e-2

    def test_partially_mixed_charge_three(self):
        spec = HybridStateSpec(0, 3, 0.0)
        res = skyrmion_number(texture_for_state(spec, 0.5))
        assert res.number == pytest.approx(3.0, abs=1e-2)

    def test_fully_mixed_is_exactly_zero(self):
        spec = HybridStateSpec(0, 3, 0.0)
        res = skyrmion_number(texture_for_state(spec, 0.0))
        assert res.number == 0.0
        assert res.masked_fraction == 1.0

    def test_noise_leaves_number_unchanged(self):
        spec = HybridStateSpec(0, 2, 0.4)
        grid = suggested_grid(spec)
        reference = skyrmion_number(texture_for_state(spec, 1.0, grid)).number
        for p in (0.05, 0.35, 0.75):
            noisy = skyrmion_number(texture_for_state(spec, p, grid)).number
            assert abs(noisy - reference) < 1e-6

    def test_swap_symmetry(self):
        # exchanging the two charges relabels the poles AND reverses the
        # azimuthal winding; the two flips cancel and N is unchanged
        a = skyrmion_number(texture_for_state(HybridStateSpec(0, 1), 1.0)).number
        b = skyrmion_number(texture_for_state(HybridStateSpec(1, 0), 1.0)).number
        assert a == pytest.approx(b, abs=1e-9)

    def test_winding_antisymmetry(self):
        a = skyrmion_number(texture_for_state(HybridStateSpec(0, 2), 1.0)).number
        b = skyrmion_number(texture_for_state(HybridStateSpec(0, -2), 1.0)).number
        assert a == pytest.approx(-b, abs=1e-9)

    def test_phase_invariance(self):
        spec0 = HybridStateSpec(0, 2, 0.0)
        grid = suggested_grid(spec0)
        reference = skyrmion_number(texture_for_state(spec0, 1.0, grid)).number
        for delta in (0.9, math.pi, 5.1):
            spec = HybridStateSpec(0, 2, delta)
            value = skyrmion_number(texture_for_state(spec, 1.0, grid)).number
            assert abs(value - reference) < 1e-6

    def test_waist_scale_invariance(self):
        spec = HybridStateSpec(0, 2, 0.0)
        res_1 = skyrmion_number(texture_for_state(spec, 1.0, waist=1.0))
        res_2 = skyrmion_number(texture_for_state(spec, 1.0, waist=2.0))
        assert res_1.number == pytest.approx(res_2.number, abs=1e-12)

    @pytest.mark.parametrize("waist", [1e-100, 1e-6, 1e-3, 0.5, 2.0, 1e3, 1e6, 1e100])
    @pytest.mark.parametrize("charges", [(0, 1), (3, -4)])
    def test_mask_and_number_do_not_depend_on_the_waist(self, charges, waist):
        # the auto window masks the envelope's underflow ring; that ring, and so
        # N, must sit at the same radius in waist units whatever the waist
        spec = HybridStateSpec(*charges)

        def result(w):
            grid = suggested_grid(spec, 128, waist=w)
            return skyrmion_number(texture_for_state(spec, 1.0, grid, waist=w))

        reference, res = result(1.0), result(waist)
        assert 0.0 < reference.masked_fraction < 1.0
        assert res.masked_fraction == reference.masked_fraction
        assert abs(res.number - reference.number) <= 1e-13

    def test_topological_step_at_zero_weight(self):
        spec = HybridStateSpec(0, 1, 0.0)
        grid = suggested_grid(spec)
        values = [skyrmion_number(texture_for_state(spec, p, grid)).rounded
                  for p in (0.0, 0.02, 0.5, 1.0)]
        assert values == [0, 1, 1, 1]


class TestAnalyticNumber:
    def test_ordered_pairs(self):
        assert skyrmion_number_analytic(HybridStateSpec(0, 1)) == 1
        assert skyrmion_number_analytic(HybridStateSpec(0, -3)) == -3
        assert skyrmion_number_analytic(HybridStateSpec(3, 0)) == 3
        assert skyrmion_number_analytic(HybridStateSpec(1, 3)) == 2

    def test_magnitude_is_charge_difference(self):
        assert abs(skyrmion_number_analytic(HybridStateSpec(0, -3))) == 3

    def test_equal_magnitude_charges_rejected(self):
        with pytest.raises(ValueError):
            skyrmion_number_analytic(HybridStateSpec(1, 1))
        with pytest.raises(ValueError):
            skyrmion_number_analytic(HybridStateSpec(2, -2))

    @pytest.mark.parametrize("pair", [(0, 1), (0, -2), (1, 3), (0, 3)])
    def test_agrees_with_numeric_pipeline(self, pair):
        spec = HybridStateSpec(*pair)
        res = skyrmion_number(texture_for_state(spec, 1.0))
        assert res.rounded == skyrmion_number_analytic(spec)


class TestConvergence:
    def test_residual_decreases_and_converges(self):
        rows = convergence_scan(HybridStateSpec(0, 1, 0.0), 1.0, [64, 128, 256])
        residuals = [r.residual for r in rows]
        assert residuals[0] > residuals[1] > residuals[2]
        assert residuals[2] < 1e-3

    def test_constant_resolution_offsets_scale_invariance(self):
        # doubling the window at matched spacing leaves the number intact
        spec = HybridStateSpec(0, 2, 0.0)
        base = suggested_grid(spec, 128)
        doubled = GridSpec(base.half_width * 2, 2 * base.samples_per_axis - 1)
        n1 = skyrmion_number(texture_for_state(spec, 1.0, base)).number
        n2 = skyrmion_number(texture_for_state(spec, 1.0, doubled)).number
        assert abs(n1 - n2) < 1e-3

    def test_empty_resolution_list_rejected(self):
        with pytest.raises(ValueError):
            convergence_scan(HybridStateSpec(0, 1), 1.0, [])

    def test_single_resolution_gives_single_row(self):
        rows = convergence_scan(HybridStateSpec(0, 3), 1.0, [128])
        assert len(rows) == 1
        assert rows[0].resolution == 128

    def test_constant_texture_zero_at_all_resolutions(self):
        for n in (64, 128):
            grid = GridSpec(half_width=5.0, samples_per_axis=n)
            res = skyrmion_number(constant_field(grid))
            assert res.number == 0.0


@pytest.mark.parametrize("waist", [math.nan, math.inf, 0.0, -1.0])
def test_waist_not_positive_and_finite_is_rejected(waist):
    # a fixed window, so the waist reaches the envelopes rather than the window rule
    spec, grid = HybridStateSpec(0, 2), GridSpec(5.0, 32)
    message = "waist must be positive and finite"
    with pytest.raises(ValueError, match=message):
        coeff_field(spec, grid, waist=waist)
    with pytest.raises(ValueError, match=message):
        texture_for_state(spec, 1.0, grid, waist=waist)
    with pytest.raises(ValueError, match=message):
        convergence_scan(spec, 1.0, [32], half_width=5.0, waist=waist)


@pytest.mark.parametrize("waist", [math.nan, math.inf, 0.0, -1.0])
def test_bad_waist_is_named_before_the_window_rule(waist):
    # no grid or half-width: the tail-safe window is sized from the waist,
    # so the error must name the waist, not the half-width it would produce
    spec = HybridStateSpec(0, 2)
    message = "waist must be positive and finite"
    with pytest.raises(ValueError, match=message):
        texture_for_state(spec, waist=waist)
    with pytest.raises(ValueError, match=message):
        convergence_scan(spec, 1.0, [32], waist=waist)
    with pytest.raises(ValueError, match=message):
        suggested_grid(spec, 32, waist=waist)


class TestQuadrature:
    """The number's integral, ``w @ density @ w`` over the trapezoid weights
    w of one axis, against numpy's nested trapezoidal rule."""

    @pytest.mark.parametrize("n", [16, 17, 64])
    def test_matches_nested_trapezoid(self, rng, n):
        grid = GridSpec(3.0, n)
        h = grid.spacing
        mask = np.zeros((n, n), dtype=bool)
        for _ in range(20):
            density = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-3.0, 3.0)
            total = 4.0 * math.pi * _result(density, mask, mask, h).number
            nested = np.trapezoid(np.trapezoid(density, dx=h, axis=1), dx=h, axis=0)
            assert abs(total - nested) <= 1e-13 * np.abs(density).sum() * h**2

    def test_fully_masked_field_is_exactly_zero(self, rng):
        n = 17
        grid = GridSpec(3.0, n)
        everywhere = np.ones((n, n), dtype=bool)
        collapsed = UnitVectorField(np.zeros((n, n, 3)), everywhere, grid)
        result = skyrmion_number(collapsed)
        assert (result.number, result.residual, result.masked_fraction) == (0.0, 0.0, 1.0)
        assert not result.density.any()
        # a set grown to every point discards the density it is given
        some = rng.random((n, n)) < 0.3
        assert _result(rng.normal(size=(n, n)), everywhere, some, grid.spacing).number == 0.0


def test_fully_degenerate_results_have_a_read_only_zero_density():
    # the maximally mixed state's texture collapses to a point: N = 0 exactly,
    # and its density is zeros that no caller can write into
    spec, grid = HybridStateSpec(0, 3, 0.4), GridSpec(6.0, 33)
    coeffs = coeff_field(spec, grid)
    bloch = skyrmion_number(bloch_texture(coeffs))
    results = [
        *_sweep_results(spec, grid, [0.0], waist=1.0),
        *channel_skyrmion_numbers(pure_state(spec), coeffs, [0.0]),
        skyrmion_number(texture_for_state(spec, 0.0, grid)),
        pullback_skyrmion_number(np.eye(4) / 4, coeffs, bloch),
    ]
    for result in results:
        assert (result.number, result.residual, result.masked_fraction) == (0.0, 0.0, 1.0)
        assert result.density.shape == (33, 33)
        assert not result.density.any() and not result.density.flags.writeable
