"""Grid arrays are stored as contiguous component planes; readers take any layout.

``coeff_field``, ``stokes_field``, ``normalize_stokes`` and ``bloch_texture``
write each component of a grid field as one C-contiguous (n, n) plane, and
``CoeffField.coords`` and ``UnitVectorField.vectors`` are views of those
planes in their public (n^2, 4) and (n, n, 3) shapes.  A field stored
interleaved, as one C-contiguous (n, n, 3) array, must give the same bits
in every reader.
"""

import dataclasses

import numpy as np

from qskyrmion import (
    GridSpec,
    HybridStateSpec,
    UnitVectorField,
    bloch_texture,
    channel_skyrmion_numbers,
    coeff_field,
    normalize_stokes,
    pullback_skyrmion_number,
    pure_state,
    skyrmion_density,
    skyrmion_number,
    stokes_field,
    suggested_grid,
)
from qskyrmion.cli import _write_grid_csv
from qskyrmion.stokesfield import DEGENERACY_EPS


def bits(a):
    return np.ascontiguousarray(a).tobytes()


def planes(vectors):
    return np.moveaxis(vectors, -1, 0)


def mixed_state(seed):
    g = np.random.default_rng(seed).normal(size=(2, 4, 4))
    g = g[0] + 1j * g[1]
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def interleaved(field):
    vectors = np.ascontiguousarray(field.vectors)
    assert not planes(vectors).flags.c_contiguous
    return UnitVectorField(vectors, field.mask, field.grid)


def test_package_built_fields_are_views_of_contiguous_planes():
    spec = HybridStateSpec(0, -2, 0.7)
    grid = GridSpec(5.0, 33)
    coeffs = coeff_field(spec, grid)
    assert coeffs.coords.shape == (33 * 33, 4)
    assert coeffs.coords.T.flags.c_contiguous
    stokes = stokes_field(pure_state(spec), coeffs)
    for plane in (stokes.s0, stokes.s1, stokes.s2, stokes.s3):
        assert plane.shape == (33, 33) and plane.flags.c_contiguous
    rho = mixed_state(1)
    norm = stokes_field(rho, coeffs).vector_norm()
    weight = DEGENERACY_EPS / np.median(norm[~coeffs.mask])  # masks about half the points
    grown = list(channel_skyrmion_numbers(rho, coeffs, [weight]))[0].field
    assert 0.3 < grown.masked_fraction < 0.7
    for field in (normalize_stokes(stokes), bloch_texture(coeffs), grown):
        assert field.vectors.shape == (33, 33, 3)
        assert planes(field.vectors).flags.c_contiguous


def test_readers_give_the_same_bits_for_either_layout(tmp_path):
    spec = HybridStateSpec(0, 3, 0.4)
    grid = suggested_grid(spec, 40)
    coeffs = coeff_field(spec, grid)
    rho = mixed_state(7)
    field = normalize_stokes(stokes_field(rho, coeffs))
    assert bits(skyrmion_density(field)) == bits(skyrmion_density(interleaved(field)))

    bloch = skyrmion_number(bloch_texture(coeffs))
    bloch_interleaved = skyrmion_number(interleaved(bloch.field))
    assert bits(bloch.density) == bits(bloch_interleaved.density)
    rows = dataclasses.replace(coeffs, coords=np.ascontiguousarray(coeffs.coords))
    assert rows.coords.flags.c_contiguous
    planar = pullback_skyrmion_number(rho, coeffs, bloch)
    other = pullback_skyrmion_number(rho, rows, bloch_interleaved)
    assert bits(planar.density) == bits(other.density) and planar.number == other.number
    s, t = stokes_field(rho, coeffs), stokes_field(rho, rows)
    assert all(bits(getattr(s, k)) == bits(getattr(t, k)) for k in ("s0", "s1", "s2", "s3"))

    paths = [tmp_path / "planar.csv", tmp_path / "interleaved.csv"]
    for path, vectors in zip(paths, (field.vectors, interleaved(field).vectors)):
        _write_grid_csv([(path, ["# header"])], "x,y,s1,s2,s3", grid, vectors)
    assert paths[0].read_bytes() == paths[1].read_bytes()
