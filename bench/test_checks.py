"""Negative controls: the output checks reject perturbed outputs.

Runs one round of each workload through ``worker.py``, confirms that its
real outputs pass, then perturbs them one way at a time and confirms that
``checks.check_op`` rejects each perturbation.  Run from the root of a
checkout:

    python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import checks
import run as bench

SEED = 5


@pytest.fixture(scope="module")
def outputs():
    """Outputs of one untraced round of every workload, keyed by workload."""
    base = bench.ROOT / ".bench_out" / f"test-checks-{os.getpid()}"
    results = {}
    try:
        for workload in bench.WORKLOADS:
            out = base / f"{workload}.json"
            subprocess.run(
                [sys.executable, str(bench.HERE / "worker.py"), "--workload", workload,
                 "--seed", str(SEED), "--rounds", "1", "--mode", "measure",
                 "--t0", repr(time.monotonic()), "--out", str(out),
                 "--outdir", str(base / workload)],
                env=bench.worker_env(), check=True, timeout=170)
            results[workload] = json.loads(out.read_text())["ops"]
        yield results
    finally:
        shutil.rmtree(base, ignore_errors=True)


def verdict(workload: str, op: dict) -> tuple[bool, list[str]]:
    return checks.check_op(workload, op)


def first_seeded(ops: list[dict]) -> dict:
    return next(op for op in ops if not op["spec"].get("fixed_fault"))


def test_real_outputs_pass(outputs):
    for workload, ops in outputs.items():
        for op in ops:
            failed, errors = verdict(workload, op)
            assert errors == [], (workload, errors)
            # only the fixed operation of each round hits a named fault
            assert failed == bool(op["spec"].get("fixed_fault")), workload


def row_at(op: dict, p: float) -> dict:
    return next(r for r in op["rows"] if abs(r["p"] - p) < 1e-12)


@pytest.mark.parametrize("p, key, delta", [
    (0.5, "skyrmion_number", 1.0),
    (0.0, "skyrmion_number", 1e-3),
    (0.5, "purity", 1e-9),
    (0.5, "concurrence", 1e-6),
    (0.5, "fidelity", 1e-8),
])
def test_sweep_rejects(outputs, p, key, delta):
    op = copy.deepcopy(first_seeded(outputs["analytic_sweep"]))
    row_at(op, p)[key] += delta
    failed, errors = verdict("analytic_sweep", op)
    assert not failed and errors


def nonphysical(op: dict, index: int, matrix: np.ndarray) -> None:
    op["rhos"][index] = [matrix.real.tolist(), matrix.imag.tolist()]


@pytest.mark.parametrize("perturb", [
    lambda op: nonphysical(op, 3, np.diag([0.6, 0.3, 0.2, -0.1]).astype(complex)),
    lambda op: nonphysical(op, 3, np.eye(4, dtype=complex) * 0.2525),
    lambda op: nonphysical(op, 19, np.diag([0.25, 0.25, 0.25 + 1e-6j, 0.25])),
    lambda op: row_at(op, 0.5).__setitem__("skyrmion_number",
                                           row_at(op, 0.5)["skyrmion_number"] + 1.0),
    lambda op: row_at(op, 0.3).__setitem__("purity", row_at(op, 0.3)["purity"] + 0.05),
    lambda op: op["warnings"].append("RuntimeWarning: overflow encountered"),
])
def test_tomo_rejects(outputs, perturb):
    op = copy.deepcopy(first_seeded(outputs["tomo_sweep"]))
    perturb(op)
    failed, errors = verdict("tomo_sweep", op)
    assert not failed and errors


MLE_WARNING = "UserWarning: MLE did not converge after {} iterations: ABNORMAL: "


def test_tomo_mle_stop_at_start_counts_as_failed(outputs):
    op = copy.deepcopy(first_seeded(outputs["tomo_sweep"]))
    op["mle"][19] = [0, False]
    op["warnings"].append(MLE_WARNING.format(0))
    assert verdict("tomo_sweep", op) == (True, [])


def test_tomo_mle_stop_after_progress_is_checked_not_failed(outputs):
    op = copy.deepcopy(first_seeded(outputs["tomo_sweep"]))
    op["mle"][3] = [8, False]
    op["warnings"].append(MLE_WARNING.format(8))
    assert verdict("tomo_sweep", op) == (False, [])
    row_at(op, 0.85)["purity"] += 0.05
    assert verdict("tomo_sweep", op)[1]


def test_tomo_rejects_warning_without_unconverged_result(outputs):
    op = copy.deepcopy(first_seeded(outputs["tomo_sweep"]))
    op["warnings"].append(MLE_WARNING.format(0))
    failed, errors = verdict("tomo_sweep", op)
    assert not failed and errors


def copy_gallery(op: dict, name: str) -> dict:
    op = copy.deepcopy(op)
    target = Path(op["out_dir"]).with_name(name)
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(op["out_dir"], target)
    op["out_dir"] = str(target)
    return op


def edit_texture(op: dict, state: list, tag: str, edit) -> None:
    """Rewrite one texture CSV with ``edit`` applied to its (n*n, 5) data."""
    path = Path(op["out_dir"]) / f"texture_{state[0]}_{state[1]}_{tag}.csv"
    lines = path.read_text().splitlines()
    head = [ln for ln in lines if ln.startswith("#")] + ["x,y,s1,s2,s3"]
    data = checks.read_texture(path)
    edit(data)
    path.write_text("\n".join(head + [",".join(format(v, ".12g") for v in row)
                                      for row in data]) + "\n")


def scale_row(data):
    live = np.flatnonzero(np.any(data[:, 2:] != 0.0, axis=1))
    data[live[len(live) // 2], 2:] *= 1.01


def rotate_row(data):
    live = np.flatnonzero(np.any(data[:, 2:] != 0.0, axis=1))
    s1, s2 = data[live[0], 2:4]
    c, s = np.cos(1e-6), np.sin(1e-6)
    data[live[0], 2:4] = c * s1 - s * s2, s * s1 + c * s2


@pytest.mark.parametrize("tag, edit", [
    ("clean", scale_row),
    ("noisy", scale_row),
    ("clean", rotate_row),
])
def test_gallery_rejects_texture(outputs, tag, edit):
    op = copy_gallery(first_seeded(outputs["gallery_write"]), f"perturbed-{tag}-{edit.__name__}")
    edit_texture(op, op["spec"]["states"][0], tag, edit)
    failed, errors = verdict("gallery_write", op)
    assert not failed and errors


def test_gallery_rejects_unmatched_table(outputs):
    op = copy_gallery(first_seeded(outputs["gallery_write"]), "perturbed-table")
    path = Path(op["out_dir"]) / "gallery.csv"
    lines = path.read_text().splitlines()
    lines[2] = lines[2][:-1] + "0"
    path.write_text("\n".join(lines) + "\n")
    failed, errors = verdict("gallery_write", op)
    assert not failed and errors


def test_gallery_fault_op_rejects_other_errors(outputs):
    """The fixed gallery fails only through the doubled phase; any other
    wrong output of it is an error."""
    fixed = next(op for op in outputs["gallery_write"] if op["spec"].get("fixed_fault"))
    op = copy_gallery(fixed, "perturbed-fixed")
    edit_texture(op, op["spec"]["states"][1], "noisy", scale_row)
    failed, errors = verdict("gallery_write", op)
    assert not failed and errors


def test_gallery_fault_op_passes_once_phase_is_right(outputs):
    """The fixed delta != 0 gallery stops counting as failed once its
    textures carry the relative phase dl*phi + delta."""
    fixed = next(op for op in outputs["gallery_write"] if op["spec"].get("fixed_fault"))
    op = copy_gallery(fixed, "mended-phase")
    for state in op["spec"]["states"]:
        def mend(data, state=state):
            live = np.any(data[:, 2:] != 0.0, axis=1)
            data[live, 2:] = checks.closed_form_texture(*state, data[live, 0], data[live, 1])
        for tag in ("clean", "noisy"):
            edit_texture(op, state, tag, mend)
    assert verdict("gallery_write", op) == (False, [])
