"""The quadrant Skyrmion density of analytic sweeps, and the whole-grid
density of every channel texture.

An analytic sweep (``topology._sweep_results``) builds its density from one
quadrant plus its stencil halo (``lgmodes._coords_block``) and reflects it
into the other three, on every grid.  These tests hold that density to the
whole grid's stencil (``skyrmion_density``) on the same texture, and
``channel_skyrmion_numbers``, which always takes the whole-grid stencil, to
``skyrmion_number`` of the same chain bit for bit.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qskyrmion import (
    CoeffField,
    GridSpec,
    HybridStateSpec,
    UnitVectorField,
    apply_isotropic_noise,
    channel_skyrmion_numbers,
    coeff_field,
    normalize_stokes,
    pure_state,
    skyrmion_density,
    skyrmion_number,
    stokes_field,
    suggested_grid,
)
from qskyrmion.stokesfield import DEGENERACY_EPS, SIGMA
from qskyrmion.topology import _sweep_results

TOLERANCE = 1e-13


def assert_matches_full_stencil(spec, grid):
    # the sweep's block route: the density of the quadrant and its halo, reflected
    (result,) = _sweep_results(spec, grid, [1.0], waist=1.0)
    density = result.density
    assert (density == density[::-1]).all()
    assert (density == density[:, ::-1]).all()
    rho = pure_state(spec)
    whole = skyrmion_density(normalize_stokes(stokes_field(rho, coeff_field(spec, grid))))
    assert np.abs(density - whole).max() <= TOLERANCE


def assert_takes_full_stencil(rho, coeffs):
    (result,) = channel_skyrmion_numbers(rho, coeffs, [1.0])
    ref = skyrmion_number(normalize_stokes(stokes_field(rho, coeffs)))
    assert result.density.tobytes() == ref.density.tobytes()
    assert result.number == ref.number


@given(
    ell1=st.integers(-8, 8),
    ell2=st.integers(-8, 8),
    delta=st.floats(-10.0, 10.0),
    n=st.sampled_from([16, 17, 48, 65]),
)
@settings(max_examples=60, deadline=None)
def test_sweep_density_matches_the_full_stencil(ell1, ell2, delta, n):
    spec = HybridStateSpec(ell1, ell2, delta)
    assert_matches_full_stencil(spec, suggested_grid(spec, n))


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("charges", [(0, 1), (3, -4)])
def test_masked_windows_match_the_full_stencil(charges, n):
    spec = HybridStateSpec(*charges)
    assert coeff_field(spec, GridSpec(30.0, n)).mask.any()
    assert_matches_full_stencil(spec, GridSpec(30.0, n))


@pytest.mark.parametrize("n", [65, 97])
@pytest.mark.parametrize("charges", [(0, 1), (3, -4), (0, 2)])
def test_odd_grids_keep_the_full_stencil(charges, n):
    # the centre row x = 0 is its own mirror image: the channel's whole-grid
    # stencil reads it as coeff_field rounds it, and the sweep's block, which
    # reflects only the rows beside it, matches that stencil
    spec = HybridStateSpec(*charges)
    assert_takes_full_stencil(pure_state(spec), coeff_field(spec, GridSpec(30.0, n)))
    assert_matches_full_stencil(spec, GridSpec(30.0, n))


def test_grown_masks_match_the_full_stencil():
    # weak polarization contrast and coherence put |S| between ~1e-7 and ~4e-6,
    # so the degenerate set grows at every weight below 1; the channel zeroes
    # the footprint of each grown set in the one whole-grid density of p = 1
    coeffs = coeff_field(HybridStateSpec(0, 1), GridSpec(3.0, 64))
    rho = np.diag([0.25 + 2e-6, 0.25 - 2e-6, 0.25 - 2e-6, 0.25 + 2e-6]).astype(complex)
    rho[0, 3] = rho[3, 0] = 1e-7
    raw = stokes_field(rho, coeffs)
    norm, field = raw.vector_norm(), normalize_stokes(raw)
    weights = [0.9, 0.6, 0.4, 0.25]
    for p, result in zip(weights, channel_skyrmion_numbers(rho, coeffs, weights)):
        mask = (p * norm < DEGENERACY_EPS) | coeffs.mask
        assert mask.sum() > field.mask.sum()
        vectors = np.where(mask[..., None], 0.0, field.vectors)
        ref = skyrmion_number(UnitVectorField(vectors, mask, coeffs.grid))
        assert result.masked_fraction == ref.masked_fraction
        assert result.density.tobytes() == ref.density.tobytes()
        assert result.number == ref.number


def test_ginibre_state_keeps_the_full_stencil():
    rng = np.random.default_rng(7)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    spec = HybridStateSpec(0, 2)
    assert_takes_full_stencil(rho, coeff_field(spec, suggested_grid(spec, 64)))


def test_polarization_turn_that_feeds_n_x_into_s3_keeps_the_full_stencil():
    # a rotation about S2 mixes S1, which reads n_x, into S3
    theta = 0.4
    u = math.cos(theta / 2) * np.eye(2) - 1j * math.sin(theta / 2) * SIGMA[2]
    turn = np.kron(np.eye(2), u)
    spec = HybridStateSpec(0, 3, 0.5)
    rho = turn @ pure_state(spec).matrix @ turn.conj().T
    assert_takes_full_stencil(rho, coeff_field(spec, suggested_grid(spec, 64)))


@pytest.mark.parametrize("entry", [(0, 1), (0, 2), (1, 2)],
                         ids=["a-into-S1", "n_x-into-S3", "Q-not-conformal"])
def test_one_more_coherence_keeps_the_full_stencil(entry):
    # each breaks the mirror symmetry of a channel output's texture:
    # |ell1,P1><ell1,P2| feeds |a|^2 into S1; |ell1,P1><ell2,P1| feeds n_x into S3;
    # |ell1,P2><ell2,P1| leaves (S1, S2) fed by (n_x, n_y) alone, through neither
    # a scaled rotation nor a scaled reflection
    spec = HybridStateSpec(0, 3, 0.5)
    rho = apply_isotropic_noise(pure_state(spec), 0.8).matrix
    rho[entry] += 0.02
    rho[entry[::-1]] += 0.02
    assert_takes_full_stencil(rho, coeff_field(spec, suggested_grid(spec, 64)))


def test_one_asymmetric_masked_point_keeps_the_full_stencil():
    spec = HybridStateSpec(0, 1)
    coeffs = coeff_field(spec, suggested_grid(spec, 64))
    mask = coeffs.mask.copy()
    mask[40, 21] = True
    coords = np.where(mask.reshape(-1, 1), 0.0, coeffs.coords)
    lopsided = CoeffField(mask=mask, coords=coords, grid=coeffs.grid, state=spec,
                          waist=coeffs.waist)
    assert_takes_full_stencil(pure_state(spec), lopsided)


@pytest.mark.parametrize("plane", range(4), ids=["|a|^2", "|b|^2", "n_x", "n_y"])
@pytest.mark.parametrize("point", [(5, 7), (5, 40), (40, 7)], ids=["x<0,y<0", "x<0", "y<0"])
def test_coordinates_changed_off_the_quadrant_keep_the_full_stencil(plane, point):
    # a caller-built CoeffField whose mask is still symmetric, with one point
    # changed in a quadrant that a quadrant stencil would not visit
    spec = HybridStateSpec(0, 3, 0.5)
    coeffs = coeff_field(spec, suggested_grid(spec, 64))
    coords = coeffs.coords.copy()
    coords[np.ravel_multi_index(point, (64, 64)), plane] += 1e-3
    perturbed = dataclasses.replace(coeffs, coords=coords)
    assert not perturbed.mask.any()
    assert_takes_full_stencil(pure_state(spec), perturbed)
