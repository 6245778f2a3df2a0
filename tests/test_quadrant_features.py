"""coeff_field's one-quadrant, real-arithmetic coordinates against the full-grid formula.

The reference below evaluates the coefficient field the direct way: both
log envelopes, the log-space normalization and the complex fields
a = |a|, b = |b| e^{i dl phi} at every grid point, then the homogeneous
Bloch coordinates with n_x and n_y halved, (|a|^2, |b|^2, Re(a b*), Im(a b*)),
with masked rows zeroed.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qskyrmion import GridSpec, HybridStateSpec, coeff_field, suggested_grid

LOG_TINY = math.log(5e-324)
SIZES = (16, 17, 64, 97, 128, 256)
# odd and even charge differences, negative charges, a large charge, and
# |ell1| = |ell2|, where both envelopes vanish together at the centre
STATES = ((0, 1), (0, -2), (2, -5), (-3, 1), (0, 12), (1, -1))
# coords times HALVE is the reference's (|a|^2, |b|^2, Re(a b*), Im(a b*))
HALVE = np.array([1.0, 1.0, 0.5, 0.5])


def log_envelope(r, ell, waist):
    la = abs(ell)
    lc = 0.5 * math.log(2.0 / (math.pi * math.factorial(la))) - math.log(waist)
    with np.errstate(divide="ignore"):
        lr = np.log(math.sqrt(2.0) * r / waist) if la else 0.0
    return lc + la * lr - (r / waist) ** 2


def reference(spec, grid, waist=1.0):
    """(a, b, mask, halved coordinates) over the whole grid, the direct way."""
    r, phi = grid.polar()
    l1 = log_envelope(r, spec.ell1, waist)
    l2 = log_envelope(r, spec.ell2, waist)
    with np.errstate(invalid="ignore", over="ignore"):
        leta = np.maximum(l1, l2) + 0.5 * np.log1p(np.exp(-2.0 * np.abs(l1 - l2)))
        amag = np.exp(l1 - leta)
        bmag = np.exp(l2 - leta)
    # r = 0 with two vortex charges: the limit along r, by the smaller |ell|
    centre = np.isinf(l1) & np.isinf(l2)
    la1, la2 = abs(spec.ell1), abs(spec.ell2)
    lim_a = 1.0 if la1 < la2 else 0.0 if la1 > la2 else 1.0 / math.sqrt(2.0)
    lim_b = 1.0 if la1 > la2 else 0.0 if la1 < la2 else 1.0 / math.sqrt(2.0)
    amag = np.where(centre, lim_a, amag)
    bmag = np.where(centre, lim_b, bmag)
    mask = ~(leta >= LOG_TINY)
    a = amag.astype(complex)
    b = bmag * np.exp(1j * spec.delta_ell * phi)
    ab = a * b.conj()
    coords = np.stack([np.abs(a) ** 2, np.abs(b) ** 2, ab.real, ab.imag], axis=-1)
    coords[mask] = 0.0
    return a, b, mask, coords.reshape(-1, 4)


class SymmetricGrid(GridSpec):
    """A grid whose axis is exactly antisymmetric, x[n-1-i] = -x[i]."""

    def axis(self):
        x = super().axis()
        half = self.samples_per_axis // 2
        x[:half] = -x[: -half - 1 : -1]
        if self.samples_per_axis % 2:
            x[half] = 0.0
        return x


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("charges", STATES)
def test_features_match_full_grid_reference(n, charges):
    spec = HybridStateSpec(*charges)
    grid = suggested_grid(spec, n)
    cf = coeff_field(spec, grid)
    _, _, mask, coords = reference(spec, grid)
    assert cf.coords.shape == (n * n, 4)
    np.testing.assert_array_equal(cf.mask, mask)
    # the two differ only through np.linspace, whose x and -x are an ulp apart
    np.testing.assert_allclose(cf.coords * HALVE, coords, rtol=0, atol=1e-14)
    assert not cf.coords[cf.mask.ravel()].any()


@pytest.mark.parametrize("n", (16, 17, 64, 97))
@pytest.mark.parametrize("charges", STATES + ((2, -2), (1, 2), (-4, 0), (3, 0)))
def test_mirror_signs_on_an_antisymmetric_axis(n, charges):
    # with x and -x exact negatives, every mirrored value is the reference's
    # own arithmetic up to the rounding of cos/sin of dl*phi and dl*(pi - phi)
    spec = HybridStateSpec(*charges)
    grid = SymmetricGrid(suggested_grid(spec, n).half_width, n)
    cf = coeff_field(spec, grid)
    _, _, mask, coords = reference(spec, grid)
    np.testing.assert_array_equal(cf.mask, mask)
    np.testing.assert_allclose(cf.coords * HALVE, coords, rtol=0, atol=4e-15)


def test_masked_rows_are_positive_zero():
    # a window beyond the envelope's underflow radius masks the corners
    cf = coeff_field(HybridStateSpec(1, -2), GridSpec(40.0, 97))
    masked = cf.coords[cf.mask.ravel()]
    assert cf.mask.any() and not cf.mask.all()
    assert not masked.any()
    assert not np.signbit(masked).any()


@given(charges=st.sampled_from(STATES), delta=st.floats(-10.0, 10.0))
@settings(max_examples=20, deadline=None)
def test_features_do_not_depend_on_delta(charges, delta):
    grid = GridSpec(6.0, 33)
    base = coeff_field(HybridStateSpec(*charges), grid)
    phased = coeff_field(HybridStateSpec(*charges, delta), grid)
    np.testing.assert_array_equal(phased.coords, base.coords)
    np.testing.assert_array_equal(phased.mask, base.mask)


@pytest.mark.parametrize("n", (16, 17, 97))
@pytest.mark.parametrize("charges", STATES)
def test_complex_fields_match_reference(n, charges):
    spec = HybridStateSpec(*charges, 0.7)
    grid = suggested_grid(spec, n)
    cf = coeff_field(spec, grid, waist=1.3)
    a, b, _, _ = reference(spec, grid, waist=1.3)
    np.testing.assert_allclose(cf.a, a, rtol=0, atol=1e-14)
    np.testing.assert_allclose(cf.b, b, rtol=0, atol=1e-14)
