"""Every channel-output result carries the texture its density was built from.

``channel_skyrmion_numbers`` yields one ``SkyrmionResult`` per weight, and
its ``field`` is that weight's unit texture: the p = 1 texture itself while
the weight masks nothing new, else that texture with the grown degenerate
set zeroed.  A field is ``collapsed`` exactly when its mask covers every
point; no flag can say otherwise.
"""

import numpy as np
import pytest

from qskyrmion import (
    GridSpec,
    HybridStateSpec,
    UnitVectorField,
    channel_skyrmion_numbers,
    coeff_field,
    normalize_stokes,
    pure_state,
    skyrmion_number,
    stokes_field,
    suggested_grid,
)
from qskyrmion.stokesfield import DEGENERACY_EPS


def bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("ell1,ell2,delta", [(0, 1, 0.0), (0, -2, 0.7), (2, -5, 0.4)])
def test_unmasked_weights_share_the_p1_texture(ell1, ell2, delta):
    spec = HybridStateSpec(ell1, ell2, delta)
    coeffs = coeff_field(spec, suggested_grid(spec, 48))
    rho = pure_state(spec)
    weights = [1.0, 0.5, 1e-3, 1.0, 0.2]
    results = list(channel_skyrmion_numbers(rho, coeffs, weights))
    ref = normalize_stokes(stokes_field(rho, coeffs))
    field = results[0].field
    assert all(result.field is field for result in results)
    assert bits(field.vectors) == bits(ref.vectors)
    assert bits(field.mask) == bits(ref.mask)
    assert field.grid == coeffs.grid and results[0].field.grid is field.grid
    assert not field.collapsed


def weak_state():
    # |S| between ~1e-7 and ~4e-6, so the degenerate set grows at every weight below 1
    rho = np.diag([0.25 + 2e-6, 0.25 - 2e-6, 0.25 - 2e-6, 0.25 + 2e-6]).astype(complex)
    rho[0, 3] = rho[3, 0] = 1e-7
    return rho, coeff_field(HybridStateSpec(0, 1), GridSpec(3.0, 48))


def pure_channel_input():
    spec = HybridStateSpec(0, 1, 0.3)
    return pure_state(spec), coeff_field(spec, suggested_grid(spec, 32))


@pytest.mark.parametrize("source,p", [
    (weak_state, 0.8), (weak_state, 0.4), (weak_state, 0.25),
    (pure_channel_input, DEGENERACY_EPS),  # rounding masks part of the texture
    (pure_channel_input, 1e-7), (pure_channel_input, 0.0),  # every point is masked
])
def test_grown_weight_field_zeroes_its_degenerate_set(source, p):
    rho, coeffs = source()
    raw = stokes_field(rho, coeffs)
    clean = normalize_stokes(raw)
    clean_result, result = channel_skyrmion_numbers(rho, coeffs, [1.0, p])
    mask = (p * raw.vector_norm() < DEGENERACY_EPS) | coeffs.mask
    assert (mask & ~clean.mask).any()
    field = result.field
    assert field is not clean_result.field
    assert bits(field.mask) == bits(mask)
    assert (field.vectors[mask] == 0.0).all()
    assert bits(field.vectors[~mask]) == bits(clean.vectors[~mask])
    assert field.collapsed == mask.all()
    assert result.field.grid == coeffs.grid
    assert result.masked_fraction == float(mask.mean())


def test_collapsed_is_read_from_the_mask():
    grid = GridSpec(3.0, 16)
    vectors = np.zeros((16, 16, 3))
    full = np.ones((16, 16), dtype=bool)
    assert UnitVectorField(vectors, full, grid).collapsed is True
    partial = full.copy()
    partial[3, 5] = False
    assert UnitVectorField(vectors, partial, grid).collapsed is False
    with pytest.raises(TypeError):
        UnitVectorField(vectors, partial, grid, collapsed=True)


def test_skyrmion_number_carries_its_field():
    grid = GridSpec(3.0, 16)
    fld = UnitVectorField(np.zeros((16, 16, 3)), np.ones((16, 16), dtype=bool), grid)
    result = skyrmion_number(fld)
    assert result.field is fld and result.field.grid is grid
    assert (result.number, result.residual, result.masked_fraction) == (0.0, 0.0, 1.0)


def maximally_mixed():
    return np.eye(4, dtype=complex) / 4.0, coeff_field(HybridStateSpec(0, 1), GridSpec(3.0, 32))


def first_weight_keeping(low):
    """The smallest weight p with p * low >= DEGENERACY_EPS in floating point."""
    p = DEGENERACY_EPS / low
    while p * low < DEGENERACY_EPS:
        p = np.nextafter(p, 2.0)
    while np.nextafter(p, 0.0) * low >= DEGENERACY_EPS:
        p = np.nextafter(p, 0.0)
    return p


@pytest.mark.parametrize("source", [weak_state, pure_channel_input, maximally_mixed])
def test_growth_is_read_from_the_smallest_unmasked_norm(source):
    # the generator decides growth from min |S| over unmasked points; every weight's
    # set must equal the full recount (p |S| < DEGENERACY_EPS) | mask, and the p = 1
    # result is shared exactly when the recount adds nothing
    rho, coeffs = source()
    raw = stokes_field(rho, coeffs)
    norm, base = raw.vector_norm(), normalize_stokes(raw).mask
    weights = [1.0, 0.0]
    if not base.all():
        edge = first_weight_keeping(norm[~base].min())
        weights += [np.nextafter(edge, 0.0), edge]
    results = list(channel_skyrmion_numbers(rho, coeffs, weights))
    for p, result in zip(weights, results):
        recount = (p * norm < DEGENERACY_EPS) | base
        assert bits(result.field.mask) == bits(recount)
        assert (result is results[0]) == (recount == base).all()
    if base.all():
        assert all(result is results[0] for result in results)
    else:
        assert results[2] is not results[0] and results[3] is results[0]
