"""coeff_field's one-quadrant, real-arithmetic coordinates against a long-double reference.

The reference below evaluates the coefficient field the direct way, in
``np.longdouble`` and without the package's log-ratio formula: at every
grid point the weights |a|^2 = 1/(1 + q) and |b|^2 = 1/(1 + 1/q) from the
power q = |LG_ell2/LG_ell1|^2 = (C2/C1)^2 (sqrt(2) r/w)^(2|ell2| - 2|ell1|),
whose limits at r = 0 need no branch, the mask from log(eta w), and the
complex fields a = |a|, b = |b| e^{i dl phi}; then the homogeneous Bloch
coordinates with n_x and n_y halved, (|a|^2, |b|^2, Re(a b*), Im(a b*)),
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


def reference(spec, grid, waist=1.0):
    """(a, b, mask, halved coordinates) over the whole grid, in long double."""
    x, y = (c.astype(np.longdouble) for c in grid.mesh())
    r, phi = np.hypot(x, y), np.arctan2(y, x)
    w = np.longdouble(waist)
    s = np.sqrt(np.longdouble(2.0)) * r / w
    la1, la2 = abs(spec.ell1), abs(spec.ell2)

    def envelope(la):
        norm = np.sqrt(2.0 / (np.pi * np.prod(np.arange(1, la + 1, dtype=np.longdouble)))) / w
        return norm, norm * s**la * np.exp(-((r / w) ** 2))

    (c1, env1), (c2, env2) = envelope(la1), envelope(la2)
    with np.errstate(divide="ignore"):
        q = (c2 / c1) ** 2 * s ** np.longdouble(2 * (la2 - la1))
        amag, bmag = np.sqrt(1.0 / (1.0 + q)), np.sqrt(1.0 / (1.0 + 1.0 / q))
        mask = ~(0.5 * np.log(env1**2 + env2**2) + np.log(w) >= LOG_TINY)
    angle = spec.delta_ell * phi
    coords = np.stack([amag**2, bmag**2, amag * bmag * np.cos(angle),
                       -(amag * bmag * np.sin(angle))], axis=-1)
    coords[mask] = 0.0
    a, b = amag.astype(complex), (bmag * np.exp(1j * angle)).astype(complex)
    return a, b, mask, coords.reshape(-1, 4).astype(float)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("charges", STATES + ((2, -2), (1, 2), (-4, 0), (3, 0)))
def test_mirror_signs_on_an_antisymmetric_axis(n, charges):
    # GridSpec.axis is exactly antisymmetric, so every mirrored value is the
    # quadrant's, within the rounding of cos/sin of dl*phi and of dl*(pi - phi)
    spec = HybridStateSpec(*charges)
    grid = suggested_grid(spec, n)
    cf = coeff_field(spec, grid)
    _, _, mask, coords = reference(spec, grid)
    assert cf.coords.shape == (n * n, 4)
    np.testing.assert_array_equal(cf.mask, mask)
    np.testing.assert_allclose(cf.coords * HALVE, coords, rtol=0, atol=4e-15)
    assert not cf.coords[cf.mask.ravel()].any()


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
