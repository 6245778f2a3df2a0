"""Negative seeds are validation errors; a collapsed texture is no numerical warning.

A seed reaches numpy's Poisson draws only in tomographic runs, but it is
checked wherever it is given: at its line of a sweep config and on the
``--seed`` flags of ``sweep`` and ``tomo``, for analytic and
``--deterministic`` runs too.  A fully masked texture has N = 0 with
residual 0, so ``skyrmion``, ``sweep`` and ``converge`` at p = 0 exit 0.
"""

import pytest

from qskyrmion.cli import ConfigError, load_config, main


def write_config(tmp_path, pipeline, seed):
    path = tmp_path / "sweep.cfg"
    path.write_text(f"ell1 = 0\nell2 = 2\nvalues = 1, 0.5, 0\nsamples = 64\n"
                    f"pipeline = {pipeline}\nseed = {seed}\n")
    return path


@pytest.mark.parametrize("pipeline", ["analytic", "tomographic"])
@pytest.mark.parametrize("deterministic", [False, True])
def test_negative_config_seed_fails_at_its_line(tmp_path, capsys, pipeline, deterministic):
    path = write_config(tmp_path, pipeline, -3)
    with pytest.raises(ConfigError, match="^line 6: seed must be non-negative$"):
        load_config(path)
    argv = ["sweep", "--config", str(path)] + (["--deterministic"] if deterministic else [])
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: line 6: seed must be non-negative\n"


def test_zero_config_seed_is_accepted(tmp_path):
    assert load_config(write_config(tmp_path, "tomographic", 0)).seed == 0


@pytest.mark.parametrize("pipeline", ["analytic", "tomographic"])
@pytest.mark.parametrize("deterministic", [False, True])
def test_negative_sweep_seed_flag_is_rejected(tmp_path, capsys, pipeline, deterministic):
    path = write_config(tmp_path, pipeline, 1)
    argv = ["sweep", "--config", str(path), "--seed", "-1", "--out", str(tmp_path / "out")]
    assert main(argv + (["--deterministic"] if deterministic else [])) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --seed must be non-negative\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("deterministic", [False, True])
def test_negative_tomo_seed_is_rejected(tmp_path, capsys, deterministic):
    argv = ["tomo", "--ell1", "0", "--ell2", "1", "--seed", "-1",
            "--out", str(tmp_path / "record.csv")]
    assert main(argv + (["--deterministic"] if deterministic else [])) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --seed must be non-negative\n"
    assert not (tmp_path / "record.csv").exists()


def test_tomo_accepts_seed_zero(capsys):
    assert main(["tomo", "--ell1", "0", "--ell2", "1", "--seed", "0", "--deterministic"]) == 0


def test_skyrmion_at_zero_weight_exits_0(capsys):
    assert main(["skyrmion", "--ell1", "0", "--ell2", "1", "--p", "0", "--samples", "32"]) == 0
    assert capsys.readouterr().out.startswith("N = 0.000000  (rounded 0, residual 0.00e+00, "
                                              "masked 1.000)")


def test_analytic_sweep_ending_at_zero_weight_exits_0(tmp_path, capsys):
    assert main(["sweep", "--config", str(write_config(tmp_path, "analytic", 1))]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.split(",")[0] == "0" and last.split(",")[-3:] == ["0", "0", "1"]


def test_converge_at_zero_weight_exits_0(capsys):
    argv = ["converge", "--ell1", "0", "--ell2", "1", "--p", "0", "--resolutions", "32,64"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["32,0,0", "64,0,0"]
