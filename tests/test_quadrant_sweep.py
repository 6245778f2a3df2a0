"""Analytic sweeps built from one quadrant of the grid.

``run_sweep`` takes an analytic sweep's numbers from ``topology._sweep_results``:
where the Stokes map passes the mirror check and the grid is even (or dl = 0),
it forms the coordinates, Stokes planes and unit texture of the quadrant and
its stencil halo alone (``lgmodes._coords_block``), and otherwise falls back
to ``channel_skyrmion_numbers`` over ``coeff_field``.  These tests hold the
block to ``coeff_field``'s planes bit for bit and the sweep's rows to those of
``channel_skyrmion_numbers``, which are ``skyrmion_number``'s of the whole
texture: bit for bit where it falls back, and within 1e-13 where it takes the
block (``test_quadrant_density.py`` holds the block's density to the whole
grid's stencil within the same bound).
"""

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


@given(
    ell1=st.integers(-8, 8),
    ell2=st.integers(-8, 8),
    delta=st.floats(-10.0, 10.0),
    n=st.sampled_from([16, 48, 65]),
    half_width=st.sampled_from([None, 30.0]),
    weights=st.lists(st.one_of(st.sampled_from([0.0, 1e-7, DEGENERACY_EPS]),
                               st.floats(1e-4, 1.0)), min_size=1, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_sweep_rows_are_those_of_the_channel(ell1, ell2, delta, n, half_width, weights):
    spec = HybridStateSpec(ell1, ell2, delta)
    cfg = sweep_config(spec, weights, n, half_width)
    rows = run_sweep(cfg)
    refs = list(channel_skyrmion_numbers(pure_state(spec), coeff_field(spec, cfg.grid()),
                                         weights))
    # the |S| of a pure state's texture is 1 wherever it is unmasked
    fallback = (n % 2 and spec.delta_ell) or any(0 < p < 1e-4 for p in weights)
    for row, ref in zip(rows, refs, strict=True):
        got = (row.skyrmion_number, row.residual, row.masked_fraction)
        if fallback:
            assert got == (ref.number, ref.residual, ref.masked_fraction)
        else:
            assert row.masked_fraction == ref.masked_fraction
            assert round(row.skyrmion_number) == ref.rounded
            assert abs(row.skyrmion_number - ref.number) <= TOLERANCE
            assert abs(row.residual - ref.residual) <= TOLERANCE


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


@pytest.mark.parametrize("charges,samples", [((0, 3), 64), ((0, 3), 256), ((2, -5), 64),
                                             ((2, 2), 65)],
                         ids=["even", "even-256", "even-dl7", "odd-dl0"])
def test_even_grid_sweep_forms_no_whole_grid_field(calls, charges, samples):
    rows = run_sweep(sweep_config(HybridStateSpec(*charges), README_WEIGHTS, samples))
    assert calls == dict.fromkeys(COUNTED, 0)
    assert rows[-1].skyrmion_number == 0.0 and rows[-1].masked_fraction == 1.0


@pytest.mark.parametrize("weights,samples", [(README_WEIGHTS, 65), ([1.0, 0.5, 1e-7], 64),
                                             ([1.0, 1.5 * DEGENERACY_EPS], 64)],
                         ids=["odd-grid", "tiny-weight", "below-twice-eps"])
def test_odd_grid_and_tiny_weight_take_the_channel(calls, weights, samples):
    # a pure state's |S| is 1, so 1.5 DEGENERACY_EPS grows no degenerate set, but
    # it is inside the margin the block's |S| is held to
    run_sweep(sweep_config(HybridStateSpec(0, 3), weights, samples))
    assert calls == dict.fromkeys(COUNTED, 1)
