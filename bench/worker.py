"""One workload process: generate inputs, run timed operations, save outputs.

Started by ``run.py`` in a fresh interpreter whose BLAS pools are already
pinned to one thread.  It imports ``qskyrmion`` from the checkout's ``src``,
builds the inputs of the workload from ``--seed``, runs one untimed warm-up
operation and then ``--rounds`` whole rounds of operations, timing each call
into ``qskyrmion.cli.run_sweep`` or ``qskyrmion.cli.run_topology_gallery``.
Everything the output checks need is written as JSON to ``--out``; the
checks themselves run in ``run.py`` after this process has exited, so their
memory never counts towards the peak RSS measured here.

Modes: ``setup`` stops after the warm-up (it only reports ``setup_s``),
``measure`` is the untraced run and ``trace`` installs the tracer of
``tracer.py`` before the inputs are built.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import random
import resource
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# States rotated over by every workload: |dl| = 1, 3, 2 and 7.  Their auto
# windows differ while the grid size, and so the cost of an operation, stays
# the same.
STATES = [(0, 1), (0, 3), (0, -2), (2, -5)]

# The README's sweep: p from 1 to 0 in steps of 0.05 (21 points).
README_POINTS = [1.0 + i * -0.05 for i in range(21)]
# Seeded tomographic sweeps stop at p = 0.05: at p = 0 a seed-dependent
# ~0.5 % of Poisson records make mle_reconstruct stop after 0 iterations.
TOMO_POINTS = README_POINTS[:-1]
# One fixed, unseeded sweep per tomo_sweep round keeps p = 0: with seed 65
# its p = 0 point simulates the record with Poisson seed 85, one that hits
# that fault every time.  The operation counts as failed.
FAULT_SWEEP = {"ell1": 0, "ell2": 1, "delta": 0.0, "seed": 65, "points": README_POINTS,
               "samples": 128, "fixed_fault": True}
# The README's gallery states carry delta = 0.  A nonzero delta comes out
# as a texture phase of dl*phi + 2*delta, not dl*phi + delta; one fixed,
# unseeded gallery per gallery_write round shows it and counts as failed.
FAULT_GALLERY = {"states": [[0, 1, 0.7], [0, -2, 0.0]], "samples": 128, "fixed_fault": True}
GALLERY_P = 0.5


def _delta(rng: random.Random) -> float:
    return rng.uniform(0.0, 2.0 * math.pi)


def make_round(workload: str, rng: random.Random) -> list[dict]:
    """Plain-data specs of one round of operations, drawn from ``rng``."""
    if workload == "analytic_sweep":
        specs = [{"ell1": l1, "ell2": l2, "delta": _delta(rng), "seed": 1,
                  "points": README_POINTS, "samples": 256} for l1, l2 in STATES]
        rng.shuffle(specs)
        return specs
    if workload == "tomo_sweep":
        specs = [{"ell1": l1, "ell2": l2, "delta": _delta(rng),
                  "seed": rng.randrange(1000, 2**31 - 100), "points": TOMO_POINTS,
                  "samples": 128}
                 for l1, l2 in STATES]
        rng.shuffle(specs)
        return specs + [FAULT_SWEEP]
    if workload == "gallery_write":
        # swapping the charges keeps N, negating both flips its sign
        states = []
        for l1, l2 in STATES:
            if rng.random() < 0.5:
                l1, l2 = l2, l1
            if rng.random() < 0.5:
                l1, l2 = -l1, -l2
            states.append([l1, l2, 0.0])
        rng.shuffle(states)
        return [{"states": states[:2], "samples": 128},
                {"states": states[2:], "samples": 128}, FAULT_GALLERY]
    raise ValueError(f"unknown workload {workload!r}")


class Workload:
    """Turns plain specs into calls of the public cli entry points."""

    def __init__(self, name: str, outdir: Path):
        from qskyrmion import cli
        from qskyrmion.biphoton import HybridStateSpec

        self.name = name
        self.cli = cli
        self.spec_cls = HybridStateSpec
        self.outdir = outdir
        self.reconstructions: list = []
        if name == "tomo_sweep":
            # keep each reconstructed state for the physicality check
            mle = cli.mle_reconstruct

            def recording_mle(*args, **kwargs):
                result = mle(*args, **kwargs)
                self.reconstructions.append(result)
                return result

            cli.mle_reconstruct = recording_mle

    def prepare(self, spec: dict, index: int):
        """Build the program's input objects for one operation."""
        cli = self.cli
        if self.name == "gallery_write":
            states = [self.spec_cls(l1, l2, d) for l1, l2, d in spec["states"]]
            out = self.outdir / ("warmup" if index < 0 else f"op{index:04d}")
            return lambda: cli.run_topology_gallery(
                states, GALLERY_P, samples=spec["samples"], out_dir=out), out
        tomographic = self.name == "tomo_sweep"
        cfg = cli.SweepConfig(
            state=self.spec_cls(spec["ell1"], spec["ell2"], spec["delta"]),
            sweep_var="p",
            points=list(spec["points"]),
            pipeline="tomographic" if tomographic else "analytic",
            samples=spec["samples"],
            half_width=None,
            waist=1.0,
            pair_rate=1e5,
            window=25e-9,
            duration=1.0,
            seed=spec["seed"],
        )
        return lambda: cli.run_sweep(cfg), None

    def record(self, spec: dict, rows, out: Path | None) -> dict:
        """Plain-data outputs of one operation for the checks."""
        if self.name == "gallery_write":
            # the checks read the written files back
            return {"spec": spec, "out_dir": str(out),
                    "bytes": sum(f.stat().st_size for f in out.iterdir())}
        out = {"spec": spec, "bytes": 0, "rows": [dataclasses.asdict(r) for r in rows],
               "rhos": [[res.rho.matrix.real.tolist(), res.rho.matrix.imag.tolist()]
                        for res in self.reconstructions],
               "mle": [[res.iterations, res.converged] for res in self.reconstructions]}
        self.reconstructions.clear()
        return out


def _process_status() -> tuple[int, list[str]]:
    """Thread count and the OpenBLAS libraries mapped into this process."""
    threads = 0
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path.lower():
                libs.add(os.path.basename(path))
    return threads, sorted(libs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at launch")
    ap.add_argument("--out", required=True, help="result JSON path")
    ap.add_argument("--outdir", required=True, help="directory for written outputs")
    args = ap.parse_args(argv)

    import qskyrmion  # run.py puts the checkout's src first on PYTHONPATH

    if Path(qskyrmion.__file__).resolve().parent != SRC / "qskyrmion":
        raise SystemExit(f"imported qskyrmion from {qskyrmion.__file__}, not {SRC}")

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    work = Workload(args.workload, outdir)
    rng = random.Random(args.seed)
    warmup = make_round(args.workload, rng)[0]
    specs = [s for _ in range(args.rounds) for s in make_round(args.workload, rng)]
    prepared = [work.prepare(s, i) for i, s in enumerate(specs)]

    run_warmup, _ = work.prepare(warmup, -1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_warmup()
    work.reconstructions.clear()
    if tracer is not None:
        tracer.reset()
    setup_s = time.monotonic() - args.t0
    result = {"workload": args.workload, "seed": args.seed, "mode": args.mode,
              "setup_s": setup_s}
    if args.mode == "setup":
        Path(args.out).write_text(json.dumps(result))
        return 0

    # Operations take turns on the CPUs this process may use: another tenant
    # of the host can slow one CPU for minutes, and a run that stayed on it
    # would be slow throughout.  The full mask is restored before each
    # operation, so threads or processes the program starts may use every CPU.
    cpus = sorted(os.sched_getaffinity(0))
    ops = []
    for k, (spec, (run_op, out)) in enumerate(zip(specs, prepared)):
        os.sched_setaffinity(0, {cpus[k % len(cpus)]})
        os.sched_setaffinity(0, cpus)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if tracer is not None:
                tracer.begin_op()
            c0 = time.process_time()
            t0 = time.perf_counter()
            rows = run_op()
            t1 = time.perf_counter()
            c1 = time.process_time()
        op = work.record(spec, rows, out)
        op["wall_s"] = t1 - t0
        op["cpu_s"] = c1 - c0
        op["warnings"] = [f"{w.category.__name__}: {w.message}" for w in caught]
        if tracer is not None:
            op["layers"] = tracer.end_op(op["wall_s"])
        ops.append(op)

    threads, blas = _process_status()
    result.update(
        ops=ops,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        threads=threads,
        blas_libs=blas,
    )
    if tracer is not None:
        tracer.write_spans(outdir / "spans.jsonl")
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
