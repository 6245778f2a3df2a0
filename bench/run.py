"""Fixed-work benchmark of qskyrmion's sweep, tomography and gallery paths.

Usage, from the root of a checkout:

    python3 bench/run.py --workload analytic_sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload runs in fresh interpreters (``worker.py``) with every BLAS
thread pool pinned to one thread before numpy loads.  ``--seconds`` fixes
the amount of work, not a time budget: the run does ``seconds / ROUND_S``
whole rounds of operations, so every count repeats exactly for a given seed
and the share of failed operations is the same for every seed.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
``SETUPS`` fresh interpreters), ``ops_per_s``, ``op_ms_p50`` and
``peak_rss_mb``.  ``--trace 1`` prints the per-layer metrics: an untraced
run, a traced run of the same work and ``-X importtime`` runs of the import.
The last line of standard output is one JSON object; everything else goes
to standard error.  The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("analytic_sweep", "tomo_sweep", "gallery_write")
# Seconds charged to one round when --seconds is turned into a round count.
# Fixed constants, so the work of a run depends only on --seconds.  They are
# set so that a 20 s run times as many operations as it can while fewer
# than 40 of them succeed: 36 of analytic_sweep, 36 of 45 of tomo_sweep and
# 38 of 57 of gallery_write (about 22, 16 and 30 s at the README figures).
ROUND_S = {"analytic_sweep": 2.2, "tomo_sweep": 2.2, "gallery_write": 1.05}
SETUPS = 5
IMPORT_RUNS = 3
DEADLINE_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Layer functions reported by the traced run, in the order of the pipeline.
TRACED = [
    "biphoton.apply_isotropic_noise",
    "lgmodes.coeff_field",
    "stokesfield.stokes_field",
    "stokesfield.normalize_stokes",
    "topology.skyrmion_density",
    "topology.skyrmion_number",
    "tomography.simulate_counts",
    "tomography.linear_inversion",
    "tomography.mle_reconstruct",
    "tomography.witness_report",
]
WITH_CALLS = {"lgmodes.coeff_field", "stokesfield.stokes_field",
              "stokesfield.normalize_stokes", "topology.skyrmion_density",
              "topology.skyrmion_number"}
# Layer of a span label (its first dotted part) -> metric of its self-time share.
SHARES = {"biphoton": "share.biphoton", "lgmodes": "share.lgmodes",
          "stokesfield": "share.stokesfield", "topology": "share.topology",
          "tomography": "share.tomography", "cli": "share.cli_self"}


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list[str], deadline: float, **kwargs) -> subprocess.CompletedProcess:
    """Run one child to its end; subprocess.run kills and reaps it on timeout."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before " + " ".join(cmd[1:3]))
    try:
        proc = subprocess.run(cmd, env=worker_env(), timeout=remaining, **kwargs)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child timed out: {' '.join(cmd)}") from None
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}: {' '.join(cmd)}")
    return proc


def run_worker(workload: str, seed: int, rounds: int, mode: str, rundir: Path,
               tag: str, deadline: float) -> dict:
    out = rundir / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--rounds", str(rounds), "--mode", mode,
           "--out", str(out), "--outdir", str(rundir / tag)]
    cmd += ["--t0", repr(time.monotonic())]
    run_child(cmd, deadline, stdout=sys.stderr)
    return json.loads(out.read_text())


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)")


def import_times(stderr: str) -> dict:
    """Cumulative seconds of ``qskyrmion`` and of all scipy modules it pulls in.

    ``-X importtime`` prints a module after its own imports, indented two
    spaces per level; a scipy module counts once, at its outermost entry.
    """
    pending: dict[int, list] = {}
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            level = len(m.group(3)) // 2
            node = (m.group(4), int(m.group(2)) * 1e-6, pending.pop(level + 1, []))
            pending.setdefault(level, []).append(node)

    def scipy_s(node) -> float:
        name, cumulative, children = node
        if name == "scipy" or name.startswith("scipy."):
            return cumulative
        return sum(scipy_s(c) for c in children)

    roots = pending.get(0, [])
    own = [cum for name, cum, _ in roots if name == "qskyrmion"]
    if not own:
        raise BenchError("-X importtime output has no qskyrmion entry")
    return {"import.qskyrmion_s": own[0], "import.scipy_s": sum(scipy_s(r) for r in roots)}


def check_ops(workload: str, results: list[dict]) -> list[str]:
    """Mark each timed operation failed or not; return the check failures."""
    errors = []
    for result in results:
        for k, op in enumerate(result["ops"]):
            op["failed"], errs = checks.check_op(workload, op)
            errors += [f"{result['mode']} op {k}: {e}" for e in errs]
    return errors


def ok_walls(result: dict) -> list[float]:
    return [op["wall_s"] for op in result["ops"] if not op["failed"]]


def end_to_end(result: dict, setups: list[float]) -> dict:
    walls = ok_walls(result)
    if not walls:
        raise BenchError("no operation completed without failing")
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": len(walls) / sum(walls), "unit": "1/s"},
        "op_ms_p50": {"value": statistics.median(walls) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
    }


def per_layer(plain: dict, traced: dict, imports: list[dict]) -> dict:
    """Per-operation layer figures; means over every attempted operation."""
    ops = traced["ops"]
    n = len(ops)
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name in ("import.qskyrmion_s", "import.scipy_s"):
        put(name, statistics.median(i[name] for i in imports), "s")
    for label in TRACED:
        stats = [op["layers"]["stats"].get(label, [0.0, 0.0, 0]) for op in ops]
        put(f"{label}.ms", sum(s[0] for s in stats) * 1e3 / n, "ms")
        if label in WITH_CALLS:
            put(f"{label}.calls", sum(s[2] for s in stats) / n, "count")
    for key in ("tomography.mle_iterations", "tomography.mle_unconverged"):
        put(key, sum(op["layers"]["counts"][key] for op in ops) / n, "count")
    put("cli.self_ms", sum(op["layers"]["stats"]["cli.self"][1] for op in ops) * 1e3 / n, "ms")
    put("cli.bytes_written", sum(op["bytes"] for op in ops) / n, "B")

    wall = sum(op["wall_s"] for op in ops)
    for layer, name in SHARES.items():
        self_s = sum(s[1] for op in ops for label, s in op["layers"]["stats"].items()
                     if label.split(".")[0] == layer)
        put(name, 100.0 * self_s / wall, "%")

    plain_ops = plain["ops"]
    put("process.cpu_s", sum(op["cpu_s"] for op in plain_ops) / len(plain_ops), "s")
    put("process.cpu_per_wall", sum(op["cpu_s"] for op in plain_ops)
        / sum(op["wall_s"] for op in plain_ops), "ratio")
    put("process.threads", plain["threads"], "count")
    p50_plain = statistics.median(ok_walls(plain)) * 1e3
    p50_traced = statistics.median(ok_walls(traced)) * 1e3
    put("trace.op_ms_p50", p50_traced, "ms")
    put("trace.overhead_pct", 100.0 * (p50_traced / p50_plain - 1.0), "%")
    return metrics


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, list[str]]:
    deadline = time.monotonic() + DEADLINE_S
    rounds = max(1, int(seconds / ROUND_S[workload]))
    outroot = ROOT / ".bench_out"
    rundir = outroot / f"{workload}-seed{seed}-pid{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    try:
        if not trace:
            setups = [run_worker(workload, seed, rounds, "setup", rundir, f"setup{k}",
                                 deadline)["setup_s"] for k in range(SETUPS - 1)]
            counted = run_worker(workload, seed, rounds, "measure", rundir, "measure", deadline)
            errors = check_ops(workload, [counted])
            metrics = end_to_end(counted, setups + [counted["setup_s"]])
        else:
            plain = run_worker(workload, seed, rounds, "measure", rundir, "measure", deadline)
            traced = run_worker(workload, seed, rounds, "trace", rundir, "trace", deadline)
            errors = check_ops(workload, [plain, traced])
            imports = [import_times(run_child(
                [sys.executable, "-X", "importtime", "-c", "import qskyrmion"], deadline,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True).stderr)
                for _ in range(IMPORT_RUNS)]
            metrics = per_layer(plain, traced, imports)
            shutil.copyfile(rundir / "trace" / "spans.jsonl",
                            outroot / f"spans-{workload}-seed{seed}.jsonl")
            counted = traced
        print(f"{workload}: BLAS libraries {counted['blas_libs']}, "
              f"{counted['threads']} thread(s)", file=sys.stderr)
        ops = counted["ops"]
        summary = {"correct": not errors, "attempted": len(ops),
                   "failed": sum(op["failed"] for op in ops), "metrics": metrics}
        return summary, errors
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qskyrmion benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qskyrmion" / "__init__.py").is_file():
        print(f"bench: no qskyrmion sources at {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results, ok = {}, True
    for name in names:
        try:
            summary, errors = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 2
        for e in errors:
            print(f"bench: {name}: check failed: {e}", file=sys.stderr)
        ok &= summary["correct"]
        results[name] = summary
        print(f"{name}: attempted {summary['attempted']}, failed {summary['failed']}, "
              f"correct {summary['correct']}", file=sys.stderr)
        for metric, m in summary["metrics"].items():
            print(f"  {metric:36s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
