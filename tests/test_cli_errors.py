"""Validation errors of the command line, and output files opened before the work.

Every case exits 1 with exactly one ``error:`` line on standard error.  A
config error carries the ``line N: `` prefix of the line it names; errors
that no single line holds (a range missing a key, no sweep points at all)
carry none.  ``tomo --out``, ``skyrmion --density-out`` and ``converge
--out`` open their file before the work, so a path that cannot be written
fails before anything is printed or computed, but after the checks of
charges, weight and resolutions (and, for ``run_convergence``, of the waist
and the window; for ``tomo``, after its record is simulated from the source),
so rejected input leaves no file.
"""

import re

import pytest

from qskyrmion import HybridStateSpec, cli, topology
from qskyrmion.cli import main

BASE = "ell1 = 0\nell2 = 1\nsamples = 16\n"


def run_error(capsys, argv):
    """Exit code 1, no stdout, and the one ``error:`` line's message."""
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    return err[len("error: "):-1]


@pytest.mark.parametrize("lines,message", [
    ("sweep = x\nvalues = 1", "line 4: sweep must be 'p' or 'qc', got 'x'"),
    ("values = a,b", "line 4: cannot parse values list 'a,b'"),
    ("values = ,", "line 4: values list is empty"),
    ("start = 0\nstep = 0.5", "range sweep needs 'start', 'stop' and 'step'; missing 'stop'"),
    ("start = 0\nstop = 1\nstep = 0", "line 6: step must be nonzero"),
    ("", "sweep needs 'values' or 'start'/'stop'/'step'"),
    ("values = 1\npipeline = foo",
     "line 5: pipeline must be 'analytic' or 'tomographic', got 'foo'"),
    # pair rate x window x duration beyond ~9e15 rounds the contrast ceiling to 1
    ("values = 0.8\npipeline = tomographic\npair_rate = 1e24",
     "pair rate x window x duration = 2.5e+16 leaves no quantum contrast above 1"),
    ("values = 0.8\npipeline = tomographic\nwindow = 1e-300\npair_rate = 1e-300",
     "pair rate x window x duration = 1.0e-600 underflows double precision"),
], ids=["sweep", "values", "empty-values", "missing-stop", "zero-step", "no-points",
        "pipeline", "no-contrast-headroom", "underflowing-source"])
def test_config_error_names_its_line(tmp_path, capsys, lines, message):
    path = tmp_path / "s.cfg"
    path.write_text(BASE + lines + "\n")
    assert run_error(capsys, ["sweep", "--config", str(path)]) == message


@pytest.mark.parametrize("argv,message", [
    (["gallery", "--state", "0,x"], "cannot parse state spec '0,x'"),
    (["converge", "--ell1", "0", "--ell2", "1", "--resolutions", "64,abc"],
     "cannot parse resolutions '64,abc'"),
    (["converge", "--ell1", "0", "--ell2", "1", "--resolutions", ","],
     "at least one resolution is required"),
    (["tomo", "--ell1", "0", "--ell2", "1", "--pair-rate", "1e24"],
     "pair rate x window x duration = 2.5e+16 leaves no quantum contrast above 1"),
], ids=["state-spec", "resolutions", "no-resolutions", "no-contrast-headroom"])
def test_flag_error(capsys, argv, message):
    assert run_error(capsys, argv) == message


def test_underflowing_source_writes_no_sweep_table(tmp_path, capsys):
    path = tmp_path / "s.cfg"
    path.write_text(BASE + "values = 0.8\npipeline = tomographic\nwindow = 1e-300\n"
                    "pair_rate = 1e-300\n")
    out = tmp_path / "results"
    assert run_error(capsys, ["sweep", "--config", str(path), "--out", str(out)]) == (
        "pair rate x window x duration = 1.0e-600 underflows double precision")
    assert not (out / "sweep.csv").exists()


def test_sweep_seed_flag_overrides_the_config_seed(tmp_path, capsys):
    def sweep(seed, flags=()):
        path = tmp_path / f"seed{seed}.cfg"
        path.write_text(BASE + f"values = 0.8\npipeline = tomographic\nseed = {seed}\n")
        main(["sweep", "--config", str(path), *flags])
        return capsys.readouterr().out

    overridden = sweep(7, ["--seed", "11"])
    assert overridden == sweep(11)
    assert overridden != sweep(7)


@pytest.mark.parametrize("argv,flag", [
    (["tomo", "--ell1", "0", "--ell2", "1", "--p", "0.7"], "--out"),
    (["skyrmion", "--ell1", "0", "--ell2", "1", "--samples", "16"], "--density-out"),
], ids=["tomo", "skyrmion"])
def test_unwritable_output_file_fails_before_any_output(tmp_path, capsys, argv, flag):
    message = run_error(capsys, [*argv, flag, str(tmp_path / "missing" / "f.csv")])
    assert "No such file or directory" in message


def test_converge_unwritable_output_fails_before_the_scan(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "_convergence_rows", lambda *a, **k: calls.append(a))
    argv = ["converge", "--ell1", "0", "--ell2", "1", "--resolutions", "16,32",
            "--out", str(tmp_path / "missing" / "c.csv")]
    assert "No such file or directory" in run_error(capsys, argv)
    assert calls == []


@pytest.mark.parametrize("argv,message", [
    (["skyrmion", "--ell1", "0", "--ell2", "1", "--samples", "32", "--p", "1.5",
      "--density-out"], "noise weight p must lie in [0, 1], got 1.5"),
    (["converge", "--ell1", "0", "--ell2", "1", "--p", "1.5", "--out"],
     "noise weight p must lie in [0, 1], got 1.5"),
    (["converge", "--ell1", "0", "--ell2", "1", "--resolutions", ",", "--out"],
     "at least one resolution is required"),
    (["skyrmion", "--ell1", "0", "--ell2", "300", "--half-width", "5", "--samples", "32",
      "--density-out"], "|ell| = 300 exceeds 170"),
    (["converge", "--ell1", "0", "--ell2", "300", "--half-width", "5", "--resolutions", "16",
      "--out"], "|ell| = 300 exceeds 170"),
    # the auto window scales with the waist: a spacing outside [2^-511, 2^511] would
    # make the charge density subnormal, or inf - inf
    (["skyrmion", "--ell1", "0", "--ell2", "1", "--waist", "1e-300", "--density-out"],
     "grid spacing "),
    (["skyrmion", "--ell1", "0", "--ell2", "1", "--waist", "1e300", "--density-out"],
     "grid spacing "),
    (["skyrmion", "--ell1", "0", "--ell2", "1", "--half-width", "1e308", "--density-out"],
     "grid spacing "),
    # a source whose pair rate x window x duration a double cannot hold, or whose
    # contrast ceiling rounds to 1
    (["tomo", "--ell1", "0", "--ell2", "1", "--pair-rate", "1e-200", "--window", "1e-200",
      "--out"], "pair rate x window x duration = 1.0e-400 underflows double precision"),
    (["tomo", "--ell1", "0", "--ell2", "1", "--pair-rate", "1e300", "--window", "1e-300",
      "--duration", "1e-300", "--out"],
     "pair rate x window x duration = 1.0e-300 underflows double precision in window x duration"),
    (["tomo", "--ell1", "0", "--ell2", "1", "--pair-rate", "1e-300", "--window", "1e-10",
      "--duration", "1e-10", "--out"],
     "pair rate x window x duration = 1.0e-320 underflows double precision"),
    (["tomo", "--ell1", "0", "--ell2", "1", "--pair-rate", "1e24", "--out"],
     "pair rate x window x duration = 2.5e+16 leaves no quantum contrast above 1"),
], ids=["skyrmion-p", "converge-p", "converge-no-resolutions", "skyrmion-charge",
        "converge-charge", "tiny-waist", "huge-waist", "huge-window", "tomo-underflow",
        "tomo-window-duration-underflow", "tomo-subnormal", "tomo-no-headroom"])
def test_rejected_input_creates_no_output(tmp_path, capsys, argv, message):
    # weight, charge, resolution and grid rules run before the output file is created
    out = tmp_path / "f.csv"
    assert run_error(capsys, [*argv, str(out)]).startswith(message)
    assert not out.exists()
    out.write_bytes(b"old table\n")
    assert run_error(capsys, [*argv, str(out)]).startswith(message)
    assert out.read_bytes() == b"old table\n"


@pytest.mark.parametrize("kwargs,message", [
    ({"waist": -1.0}, "waist must be positive and finite, got -1.0"),
    ({"half_width": -2.0}, "half_width must be positive, got -2.0"),
], ids=["waist", "half-width"])
def test_convergence_window_is_checked_before_the_output_is_created(tmp_path, kwargs, message):
    # the command line checks both flags itself; a library caller of run_convergence
    # gets the same rule: no file, and a file that was there keeps its bytes
    out = tmp_path / "w.csv"
    with pytest.raises(ValueError, match=re.escape(message)):
        cli.run_convergence(HybridStateSpec(0, 1), [32], out=str(out), **kwargs)
    assert not out.exists()
    out.write_bytes(b"old table\n")
    with pytest.raises(ValueError, match=re.escape(message)):
        cli.run_convergence(HybridStateSpec(0, 1), [32], out=str(out), **kwargs)
    assert out.read_bytes() == b"old table\n"


def test_failure_after_the_output_is_opened_leaves_it_empty(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise ValueError("scan failed")

    monkeypatch.setattr(cli, "_convergence_rows", fail)
    out = tmp_path / "c.csv"
    out.write_text("old table\n")
    argv = ["converge", "--ell1", "0", "--ell2", "1", "--resolutions", "16", "--out", str(out)]
    assert run_error(capsys, argv) == "scan failed"
    assert out.read_text() == ""


def test_allocation_failure_is_a_validation_error(capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 11.9 GiB for an array")

    monkeypatch.setattr(topology, "coeff_field", no_memory)
    argv = ["skyrmion", "--ell1", "0", "--ell2", "1", "--samples", "40000"]
    assert run_error(capsys, argv) == "Unable to allocate 11.9 GiB for an array"
