"""The grid kernels' per-thread work arrays.

The kernels of an analytic sweep write their intermediates into work arrays
that are kept between calls (``qskyrmion._workspace``), so a repeated sweep
allocates only what it returns.  No work array may reach a caller: results,
coefficient fields and the lazy results of a sweep must not change when
later calls, on this thread or another, reuse the memory.
"""

import dataclasses
import sys
import threading
import tracemalloc

import numpy as np

from qskyrmion import (
    GridSpec,
    HybridStateSpec,
    _workspace,
    channel_skyrmion_numbers,
    coeff_field,
    pure_state,
    suggested_grid,
)
from qskyrmion.cli import SweepConfig, run_sweep, run_topology_gallery
from qskyrmion.stokesfield import DEGENERACY_EPS
from qskyrmion.topology import _sweep_results

README_WEIGHTS = [1.0 + i * -0.05 for i in range(21)]
# weights whose degenerate sets grow, so that their results read the sweep's norms
SMALL_WEIGHTS = [0.0, 1e-7, DEGENERACY_EPS, 3e-5]


def sweep_config(spec, samples, pipeline="analytic", weights=README_WEIGHTS):
    return SweepConfig(state=spec, sweep_var="p", points=list(weights), pipeline=pipeline,
                       samples=samples, half_width=None, waist=1.0, pair_rate=1e5,
                       window=25e-9, duration=1.0, seed=7)


def row_bytes(rows):
    return np.array([dataclasses.astuple(row) for row in rows], dtype=float).tobytes()


def result_bytes(results):
    return [(r.number, r.residual, r.masked_fraction, r.density.tobytes()) for r in results]


def test_repeated_readme_sweep_allocates_little():
    # the README sweep at 256^2 allocated 3.6 MB per run when every
    # intermediate was a new array, and 1.4 MB while its p = 0 row built a
    # zero density of its own; the density the rows share is 0.5 MB
    cfg = sweep_config(HybridStateSpec(0, 3), 256)
    run_sweep(cfg)
    tracemalloc.start()
    try:
        run_sweep(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_200_000


def test_frames_nest_without_sharing_memory():
    with _workspace.frame() as take:
        outer = take((3, 5))
        with _workspace.frame() as take_inner:
            inner = take_inner((7,), bool)
            assert not np.shares_memory(outer, inner)
        again = take((2, 2))
        assert not np.shares_memory(outer, again)
        assert outer.flags.c_contiguous and outer.dtype == float and inner.dtype == bool


def test_concurrent_sweeps_match_serial_ones():
    # more threads than cores, switching every microsecond, each on its own state and grid
    configs = [sweep_config(HybridStateSpec(0, 3, 0.4), 256, weights=README_WEIGHTS + SMALL_WEIGHTS),
               sweep_config(HybridStateSpec(2, -5, 1.1), 97, weights=SMALL_WEIGHTS + README_WEIGHTS),
               sweep_config(HybridStateSpec(0, -2, 0.7), 64, pipeline="tomographic"),
               sweep_config(HybridStateSpec(0, 1, 2.0), 128)]
    serial = [row_bytes(run_sweep(cfg)) for cfg in configs]
    start = threading.Barrier(len(configs))
    got = [[] for _ in configs]

    def worker(index):
        start.wait(timeout=60)
        for _ in range(8):
            got[index].append(row_bytes(run_sweep(configs[index])))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(configs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for rows, want in zip(got, serial):
        assert rows == [want] * 8


def test_a_thread_keeps_its_work_arrays_while_another_thread_reuses_memory():
    # two threads whose frames close out of order: were the stack shared, this
    # thread's next sweep would be handed the memory of the other's open frame
    cfg = sweep_config(HybridStateSpec(0, 3), 256)
    run_sweep(cfg)
    opened, resume, seen = threading.Event(), threading.Event(), []

    def hold():
        with _workspace.frame() as take:
            held = take((4, 64, 64))
            held.fill(1.0)
            opened.set()
            resume.wait(timeout=60)
            seen.append(bool((held == 1.0).all()))

    with _workspace.frame() as take:
        take((4, 64, 64))
        thread = threading.Thread(target=hold)
        thread.start()
        assert opened.wait(timeout=60)
    run_sweep(cfg)
    resume.set()
    thread.join(timeout=60)
    assert not thread.is_alive() and seen == [True]


def test_lazy_sweep_results_outlive_later_calls():
    spec, weights = HybridStateSpec(0, 1, 0.3), README_WEIGHTS + SMALL_WEIGHTS
    grid = GridSpec(6.0, 64)
    want = result_bytes(_sweep_results(spec, grid, weights, waist=1.0))
    pending = _sweep_results(spec, grid, weights, waist=1.0)
    other = HybridStateSpec(0, -2, 0.7)
    list(_sweep_results(other, suggested_grid(other, 129), weights, waist=1.0))
    run_sweep(sweep_config(other, 48, pipeline="tomographic"))
    assert result_bytes(pending) == want


def test_returned_arrays_are_not_reused():
    spec, grid = HybridStateSpec(0, 3, 0.2), GridSpec(7.0, 65)
    kept = list(_sweep_results(spec, grid, README_WEIGHTS + SMALL_WEIGHTS, waist=1.0))
    coeffs = coeff_field(spec, grid)
    channel = list(channel_skyrmion_numbers(pure_state(spec), coeffs, [1.0, 1e-7]))
    before = (result_bytes(kept), result_bytes(channel), coeffs.coords.tobytes(),
              coeffs.mask.tobytes())
    other = HybridStateSpec(1, -4, 2.0)
    for samples in (65, 128, 33):
        run_sweep(sweep_config(other, samples))
        run_sweep(sweep_config(other, samples, pipeline="tomographic", weights=[1.0, 0.0]))
    run_topology_gallery([other], 0.5, samples=64)
    assert (result_bytes(kept), result_bytes(channel), coeffs.coords.tobytes(),
            coeffs.mask.tobytes()) == before
