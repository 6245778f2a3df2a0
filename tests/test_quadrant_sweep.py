"""Analytic sweeps built from one quadrant of the grid.

``run_sweep`` takes an analytic sweep's numbers from ``topology._sweep_results``,
on every grid and at every weight: it forms the coordinates, Stokes planes and
unit texture of the quadrant and its stencil halo alone
(``lgmodes._coords_block``) and reflects the quadrant's density into the other
three.  These tests hold the block to ``coeff_field``'s planes bit for bit,
the sweep's results to an exactly even density, and its rows to those of
``channel_skyrmion_numbers``, which are ``skyrmion_number``'s of the whole
texture, within 1e-13 (``test_quadrant_density.py`` holds the block's density
to the whole grid's stencil within the same bound).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qskyrmion
from qskyrmion import (
    GridSpec,
    HybridStateSpec,
    channel_skyrmion_numbers,
    cli,
    coeff_field,
    lgmodes,
    pure_state,
    stokesfield,
    suggested_grid,
    topology,
)
from qskyrmion.cli import SweepConfig, run_sweep
from qskyrmion.lgmodes import _coords_block
from qskyrmion.stokesfield import DEGENERACY_EPS

TOLERANCE = 1e-13
HALO = topology.STENCIL_ORDER // 2
README_WEIGHTS = [1.0 + i * -0.05 for i in range(21)]


def sweep_config(spec, weights, samples, half_width=None):
    return SweepConfig(state=spec, sweep_var="p", points=list(weights), pipeline="analytic",
                       samples=samples, half_width=half_width, waist=1.0, pair_rate=1e5,
                       window=25e-9, duration=1.0, seed=3)


@pytest.mark.parametrize("n", [16, 63, 64, 65, 128])
@pytest.mark.parametrize("charges,half_width", [((0, 1), 30.0), ((3, -4), None),
                                                 ((3, -4), 30.0), ((0, 12), None)])
def test_block_is_the_coordinates_of_the_whole_grid(charges, half_width, n):
    spec = HybridStateSpec(*charges, 0.4)
    grid = suggested_grid(spec, n) if half_width is None else GridSpec(half_width, n)
    coeffs = coeff_field(spec, grid)
    block, mask = _coords_block(spec, grid, 1.0, HALO)
    lo = n // 2 - HALO
    whole = np.ascontiguousarray(coeffs.coords.T.reshape(4, n, n)[:, lo:, lo:])
    assert block.shape == whole.shape
    assert block.tobytes() == whole.tobytes()  # bit for bit, signed zeros included
    assert (mask == coeffs.mask).all()
    if half_width is not None:
        assert mask[lo:, lo:].any() and not mask[lo:, lo:].all()


SWEEPS = dict(
    ell1=st.integers(-8, 8),
    ell2=st.integers(-8, 8),
    delta=st.floats(-10.0, 10.0),
    n=st.sampled_from([16, 17, 48, 65]),
    half_width=st.sampled_from([None, 30.0]),
    weights=st.lists(st.one_of(st.sampled_from([0.0, 1e-7, DEGENERACY_EPS,
                                                1.5 * DEGENERACY_EPS]),
                               st.floats(1e-4, 1.0)), min_size=1, max_size=6),
)


@given(**SWEEPS)
@settings(max_examples=60, deadline=None)
def test_sweep_rows_are_those_of_the_channel(ell1, ell2, delta, n, half_width, weights):
    spec = HybridStateSpec(ell1, ell2, delta)
    cfg = sweep_config(spec, weights, n, half_width)
    rows = run_sweep(cfg)
    refs = list(channel_skyrmion_numbers(pure_state(spec), coeff_field(spec, cfg.grid()),
                                         weights))
    for p, row, ref in zip(weights, rows, refs, strict=True):
        # the |S| of a pure state's texture is 1 up to rounding wherever it is
        # unmasked, so at p = DEGENERACY_EPS rounding decides the channel's set
        if math.isclose(p, DEGENERACY_EPS, rel_tol=1e-12):
            continue
        assert row.masked_fraction == ref.masked_fraction
        assert round(row.skyrmion_number) == ref.rounded
        assert abs(row.skyrmion_number - ref.number) <= TOLERANCE
        assert abs(row.residual - ref.residual) <= TOLERANCE


@given(**SWEEPS)
@settings(max_examples=60, deadline=None)
def test_sweep_density_is_even_and_holds_the_envelope_mask(ell1, ell2, delta, n, half_width,
                                                           weights):
    spec = HybridStateSpec(ell1, ell2, delta)
    grid = suggested_grid(spec, n) if half_width is None else GridSpec(half_width, n)
    envelope = coeff_field(spec, grid).mask.mean()
    for result in topology._sweep_results(spec, grid, weights, waist=1.0):
        assert (result.density == result.density[::-1]).all()
        assert (result.density == result.density[:, ::-1]).all()
        assert result.masked_fraction >= envelope


COUNTED = ("coeff_field", "stokes_field", "normalize_stokes")


@pytest.fixture
def calls(monkeypatch):
    """Calls of each COUNTED function, under every name the package holds it by."""
    counts = dict.fromkeys(COUNTED, 0)
    for name in COUNTED:
        original = getattr(qskyrmion, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in (qskyrmion, lgmodes, stokesfield, topology, cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("charges,weights,samples", [
    ((0, 3), README_WEIGHTS, 64), ((0, 3), README_WEIGHTS, 256), ((2, -5), README_WEIGHTS, 64),
    ((2, 2), README_WEIGHTS, 65), ((0, 3), README_WEIGHTS, 65), ((0, 3), [1.0, 0.5, 1e-7], 64),
    ((0, 3), [1.0, 1.5 * DEGENERACY_EPS], 64),
], ids=["even", "even-256", "even-dl7", "odd-dl0", "odd-grid", "tiny-weight",
        "one-and-a-half-eps"])
def test_even_grid_sweep_forms_no_whole_grid_field(calls, charges, weights, samples):
    # odd grids and tiny weights take the same block as even grids
    rows = run_sweep(sweep_config(HybridStateSpec(*charges), weights, samples))
    assert calls == dict.fromkeys(COUNTED, 0)
    for row in rows:
        # a pure state's |S| is 1, so p < DEGENERACY_EPS masks every point and
        # any larger weight keeps the set of p = 1
        if row.p < DEGENERACY_EPS:
            assert row.skyrmion_number == 0.0 and row.masked_fraction == 1.0
        else:
            assert (row.skyrmion_number, row.masked_fraction) == (
                rows[0].skyrmion_number, rows[0].masked_fraction)
