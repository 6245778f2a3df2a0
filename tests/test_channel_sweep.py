"""One texture per analytic sweep against the per-point rho -> texture -> N chain.

Isotropic noise feeds S0 alone, so ``channel_skyrmion_numbers`` builds the
p = 1 texture and its density once and only grows the degenerate mask per
weight.  These tests hold it, and the analytic ``run_sweep`` built on it,
to the chain that evaluates every channel output on its own.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qskyrmion import (
    GridSpec,
    HybridStateSpec,
    UnitVectorField,
    apply_isotropic_noise,
    average_quantum_contrast,
    bloch_texture,
    channel_skyrmion_numbers,
    coeff_field,
    contrast_to_p,
    mle_reconstruct,
    normalize_stokes,
    pullback_skyrmion_number,
    pure_state,
    skyrmion_number,
    stokes_field,
    suggested_grid,
    witness_report,
)
from qskyrmion import cli, topology
from qskyrmion.cli import SweepConfig, run_sweep
from qskyrmion.stokesfield import DEGENERACY_EPS

README_WEIGHTS = [1.0 + i * -0.05 for i in range(21)]
SMALL_WEIGHTS = [1e-2, 1e-3, 1e-4]
STATES = [(0, 1), (0, 3), (0, -2), (2, -5), (0, 12)]


def sweep_config(spec, points, *, sweep_var="p", samples=64, pipeline="analytic"):
    return SweepConfig(state=spec, sweep_var=sweep_var, points=list(points),
                       pipeline=pipeline, samples=samples, half_width=None, waist=1.0,
                       pair_rate=1e5, window=25e-9, duration=1.0, seed=3)


def per_point(spec, coeffs, p):
    rho = apply_isotropic_noise(pure_state(spec), p)
    return skyrmion_number(normalize_stokes(stokes_field(rho, coeffs)))


def assert_same_number(number, residual, masked_fraction, ref):
    tol = 1e-12 * max(1.0, abs(ref.number))
    assert masked_fraction == ref.masked_fraction
    assert round(number) == ref.rounded
    assert abs(number - ref.number) <= tol
    assert abs(residual - ref.residual) <= tol


def assert_rows_match_chain(cfg, rows, weights):
    coeffs = coeff_field(cfg.state, cfg.grid(), waist=cfg.waist)
    assert [row.p for row in rows] == weights
    for row, p in zip(rows, weights):
        ref = per_point(cfg.state, coeffs, p)
        assert_same_number(row.skyrmion_number, row.residual, row.masked_fraction, ref)
        witnesses = witness_report(apply_isotropic_noise(pure_state(cfg.state), p), cfg.state)
        assert (row.purity, row.concurrence, row.fidelity) == (
            witnesses.purity, witnesses.concurrence, witnesses.fidelity)
        if p == 0.0:
            assert row.skyrmion_number == 0.0
            assert row.masked_fraction == 1.0


@pytest.mark.parametrize("samples", [64, 256])
@pytest.mark.parametrize("delta", [0.0, 0.7])
@pytest.mark.parametrize("ell1,ell2", STATES)
def test_analytic_sweep_matches_per_point_chain(ell1, ell2, delta, samples):
    weights = README_WEIGHTS + SMALL_WEIGHTS
    cfg = sweep_config(HybridStateSpec(ell1, ell2, delta), weights, samples=samples)
    assert_rows_match_chain(cfg, run_sweep(cfg), weights)


def test_contrast_sweep_matches_per_point_chain():
    contrasts = [1.0, 1.5, 2.0, 4.0, 8.0, 32.0, 1e6]
    cfg = sweep_config(HybridStateSpec(0, 3, 0.7), contrasts, sweep_var="qc")
    assert_rows_match_chain(cfg, run_sweep(cfg), [contrast_to_p(qc) for qc in contrasts])


def test_unordered_and_repeated_weights():
    weights = [0.3, 1.0, 0.0, 0.3, 1e-3, 1.0, 0.0, 0.65]
    cfg = sweep_config(HybridStateSpec(2, -5, 0.7), weights)
    rows = run_sweep(cfg)
    assert_rows_match_chain(cfg, rows, weights)
    assert rows[0] == rows[3] and rows[1] == rows[5] and rows[2] == rows[6]


def test_results_are_yielded_in_order_sharing_the_p1_density():
    spec = HybridStateSpec(0, -2, 0.4)
    coeffs = coeff_field(spec, suggested_grid(spec, 64))
    weights = [0.5, 1.0, 0.0, 1e-3]
    *results, grown = channel_skyrmion_numbers(pure_state(spec), coeffs,
                                               weights + [DEGENERACY_EPS])
    for result, p in zip(results, weights):
        ref = per_point(spec, coeffs, p)
        assert_same_number(result.number, result.residual, result.masked_fraction, ref)
        assert abs(result.density - ref.density).max() <= 1e-12 * abs(ref.density).max(
            initial=1.0)
        assert result.field.grid == coeffs.grid
    # weights that mask nothing beyond p = 1 share its read-only density
    assert results[0].density is results[1].density is results[3].density
    with pytest.raises(ValueError):
        results[0].density[:] = 1.0
    # at p = DEGENERACY_EPS the set grows, and its density is an array of its own
    assert grown.masked_fraction > results[1].masked_fraction
    assert not np.shares_memory(grown.density, results[1].density)


def test_texture_is_exactly_unchanged_above_the_degeneracy_threshold():
    # every unmasked |S| of a pure state is 1, so for p above DEGENERACY_EPS
    # the weight masks nothing new and N is the p = 1 number bit for bit;
    # the per-point chain's S3 carries rounding of order 1e-16 / p here
    spec = HybridStateSpec(0, 3, 0.7)
    coeffs = coeff_field(spec, suggested_grid(spec, 64))
    weights = [1.0, 0.05, 1e-4, 1e-5, 3e-6]
    results = list(channel_skyrmion_numbers(pure_state(spec), coeffs, weights))
    for result in results[1:]:
        assert (result.number, result.masked_fraction) == (
            results[0].number, results[0].masked_fraction)
        assert (result.density == results[0].density).all()


def test_growing_mask_zeroes_its_own_stencil_footprint():
    # weak polarization contrast and coherence put |S| between ~1e-7 and
    # ~4e-6, so the degenerate set grows at every weight below 1.  The stencil
    # on a grown texture gives the p = 1 density zeroed on the grown set's
    # footprint, and the channel zeroes that footprint of its own p = 1
    # density, the whole-grid one of skyrmion_number
    coeffs = coeff_field(HybridStateSpec(0, 1), GridSpec(3.0, 64))
    rho = np.diag([0.25 + 2e-6, 0.25 - 2e-6, 0.25 - 2e-6, 0.25 + 2e-6]).astype(complex)
    rho[0, 3] = rho[3, 0] = 1e-7
    raw = stokes_field(rho, coeffs)
    norm, field = raw.vector_norm(), normalize_stokes(raw)
    whole = skyrmion_number(field).density
    weights = [1.0, 0.8, 0.6, 0.4, 0.25]
    results = list(channel_skyrmion_numbers(rho, coeffs, weights))
    fractions = []
    for p, result in zip(weights, results):
        mask = (p * norm < DEGENERACY_EPS) | coeffs.mask
        vectors = np.where(mask[..., None], 0.0, field.vectors)
        ref = skyrmion_number(UnitVectorField(vectors, mask, coeffs.grid))
        footprint = topology._stencil_footprint(mask)
        assert (ref.density == np.where(footprint, 0.0, whole)).all()
        assert (result.density == np.where(footprint, 0.0, results[0].density)).all()
        assert result.masked_fraction == ref.masked_fraction
        fractions.append(result.masked_fraction)
    assert 0.0 < fractions[0] and all(np.diff(fractions) > 0) and fractions[-1] < 1.0


@pytest.mark.parametrize("weights", [[1.2], [0.5, -0.1], [math.nan]])
def test_rejects_weights_outside_unit_interval(weights):
    spec = HybridStateSpec(0, 1)
    coeffs = coeff_field(spec, suggested_grid(spec, 32))
    with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
        channel_skyrmion_numbers(pure_state(spec), coeffs, weights)


# Weights below 1e-4 are left to the exact test above: there the per-point
# chain's own rounding grows like 1e-16 / p (1.3e-12 of N at p = 3e-6), and
# at p = DEGENERACY_EPS both sides decide every point's |S| = p by rounding.
@given(
    ell1=st.integers(-6, 6),
    ell2=st.integers(-6, 6),
    delta=st.floats(0.0, 2.0 * math.pi),
    p=st.one_of(st.just(0.0), st.floats(1e-4, 1.0)),
)
@settings(max_examples=60, deadline=None)
def test_channel_numbers_match_per_point_chain(ell1, ell2, delta, p):
    spec = HybridStateSpec(ell1, ell2, delta)
    coeffs = coeff_field(spec, suggested_grid(spec, 48))
    (result,) = channel_skyrmion_numbers(pure_state(spec), coeffs, [p])
    ref = per_point(spec, coeffs, p)
    assert_same_number(result.number, result.residual, result.masked_fraction, ref)
    if p == 0.0:
        assert result.number == 0.0 and result.masked_fraction == 1.0


class CountingDensity:
    """Counts the densities built: every one, whole-grid (skyrmion_density)
    or from a quadrant (the analytic sweep), comes from topology._density."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self._density = topology._density
        monkeypatch.setattr(topology, "_density", self)

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self._density(*args, **kwargs)


def test_analytic_sweep_builds_one_density(monkeypatch):
    counter = CountingDensity(monkeypatch)
    run_sweep(sweep_config(HybridStateSpec(0, 3), README_WEIGHTS + SMALL_WEIGHTS))
    assert counter.calls == 1


def test_grown_degenerate_set_builds_no_density_of_its_own(monkeypatch):
    # the weak state of test_growing_mask_zeroes_its_own_stencil_footprint: its
    # set grows at every weight below 1, and each takes the p = 1 density
    coeffs = coeff_field(HybridStateSpec(0, 1), GridSpec(3.0, 64))
    rho = np.diag([0.25 + 2e-6, 0.25 - 2e-6, 0.25 - 2e-6, 0.25 + 2e-6]).astype(complex)
    rho[0, 3] = rho[3, 0] = 1e-7
    counter = CountingDensity(monkeypatch)
    results = list(channel_skyrmion_numbers(rho, coeffs, [1.0, 0.8, 0.4, 0.25, 0.0]))
    assert counter.calls == 1
    assert results[-1].masked_fraction == 1.0


def test_tomographic_sweep_builds_one_density(monkeypatch):
    # the OAM Bloch texture's; each reconstructed state's is pulled back from it
    counter = CountingDensity(monkeypatch)
    cfg = sweep_config(HybridStateSpec(0, 1), [1.0, 0.5, 0.0], samples=32,
                       pipeline="tomographic")
    rows = run_sweep(cfg, deterministic=True)
    assert counter.calls == 1
    assert rows[-1].masked_fraction == 1.0


def test_tomographic_sweep_rows_compose_per_point(monkeypatch):
    # one cli.mle_reconstruct call per point, in point order, and each row the
    # witnesses and pullback of that point's estimate with its record's contrast
    calls = []

    def recording_mle(record, *args, **kwargs):
        estimate = mle_reconstruct(record, *args, **kwargs)
        calls.append((record, estimate))
        return estimate

    monkeypatch.setattr(cli, "mle_reconstruct", recording_mle)
    spec = HybridStateSpec(0, 3, 0.4)
    weights = [1.0, 0.7, 0.4, 0.1, 0.7]
    cfg = sweep_config(spec, weights, pipeline="tomographic")
    rows = run_sweep(cfg)
    assert len(calls) == len(rows) == len(weights)
    assert [record.seed for record, _ in calls] == [cfg.seed + i for i in range(len(weights))]
    coeffs = coeff_field(spec, cfg.grid(), waist=cfg.waist)
    bloch = skyrmion_number(bloch_texture(coeffs))
    for row, p, (record, estimate) in zip(rows, weights, calls):
        assert record.mode == "poisson"
        witnesses = witness_report(estimate.rho, spec)
        result = pullback_skyrmion_number(estimate.rho, coeffs, bloch)
        assert (row.p, row.quantum_contrast, row.converged) == (
            p, average_quantum_contrast(record), estimate.converged)
        assert (row.purity, row.concurrence, row.fidelity) == (
            witnesses.purity, witnesses.concurrence, witnesses.fidelity)
        assert (row.skyrmion_number, row.residual, row.masked_fraction) == (
            result.number, result.residual, result.masked_fraction)
