import functools
import math

import numpy as np
import pytest

from qskyrmion import (
    GridSpec,
    HybridStateSpec,
    apply_isotropic_noise,
    contrast_from_p,
    contrast_to_purity,
    pure_state,
    skyrmion_number,
    suggested_grid,
    texture_for_state,
    witness_report,
)
from qskyrmion import cli
from qskyrmion.cli import (
    ConfigError,
    load_config,
    main,
    run_convergence,
    run_sweep,
    run_topology_gallery,
    write_sweep_csv,
)

SWEEP_CFG = """\
# descending noise sweep
ell1 = 0
ell2 = 3
delta = 0.0
sweep = p
start = 1.0
stop = 0.0
step = -0.25
pipeline = analytic
samples = 96
half_width = auto
seed = 3
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadConfig:
    def test_parses_full_config(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, SWEEP_CFG))
        assert cfg.state == HybridStateSpec(0, 3, 0.0)
        assert cfg.sweep_var == "p"
        assert cfg.points == pytest.approx([1.0, 0.75, 0.5, 0.25, 0.0])
        assert cfg.pipeline == "analytic"
        assert cfg.samples == 96
        assert cfg.half_width is None

    def test_values_list(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, "ell1=0\nell2=1\nsweep=qc\nvalues=1, 2, 4, 8\n"))
        assert cfg.points == [1.0, 2.0, 4.0, 8.0]

    def test_unknown_key_reports_line(self, tmp_path):
        path = write_cfg(tmp_path, "ell1 = 0\nell2 = 1\nbogus = 1\nvalues = 0.5\n")
        with pytest.raises(ConfigError, match="line 3"):
            load_config(path)

    def test_bad_value_reports_line(self, tmp_path):
        path = write_cfg(tmp_path, "ell1 = zero\nell2 = 1\nvalues = 0.5\n")
        with pytest.raises(ConfigError, match="line 1"):
            load_config(path)

    def test_values_and_range_conflict(self, tmp_path):
        path = write_cfg(tmp_path,
                         "ell1=0\nell2=1\nvalues=0.5\nstart=0\nstop=1\nstep=0.5\n")
        with pytest.raises(ConfigError, match="not both"):
            load_config(path)

    def test_out_of_range_sweep_value(self, tmp_path):
        path = write_cfg(tmp_path, "ell1=0\nell2=1\nvalues=1.5\n")
        with pytest.raises(ConfigError, match="outside"):
            load_config(path)
        path = write_cfg(tmp_path, "ell1=0\nell2=1\nsweep=qc\nvalues=0.5\n", "b.cfg")
        with pytest.raises(ConfigError, match="below 1"):
            load_config(path)

    def test_missing_required_key(self, tmp_path):
        path = write_cfg(tmp_path, "ell1 = 0\nvalues = 0.5\n")
        with pytest.raises(ConfigError, match="ell2"):
            load_config(path)

    def test_step_direction_validated(self, tmp_path):
        path = write_cfg(tmp_path, "ell1=0\nell2=1\nstart=1.0\nstop=0.0\nstep=0.25\n")
        with pytest.raises(ConfigError, match="direction"):
            load_config(path)

    def test_range_never_passes_stop(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, "ell1=0\nell2=1\nstart=1\nstop=0.2\nstep=-0.5\n"))
        assert cfg.points == [1.0, 0.5]
        # a stop the steps reach only up to rounding is still swept: 0.3 / 0.1 < 3
        cfg = load_config(write_cfg(tmp_path, "ell1=0\nell2=1\nstart=0\nstop=0.3\nstep=0.1\n"))
        assert cfg.points == pytest.approx([0.0, 0.1, 0.2, 0.3])
        cfg = load_config(write_cfg(tmp_path, "ell1=0\nell2=1\nstart=1\nstop=0\nstep=-0.05\n"))
        assert len(cfg.points) == 21  # the README range

    @pytest.mark.parametrize("sweep,expected", [
        ("values = 0.5, 1.5\n", "line 3: sweep value p=1.5 outside"),
        ("sweep = qc\nvalues = 2, 0.5\n", "line 4: sweep value qc=0.5 below 1"),
        # the range's points are reported on its step line
        ("start = 1.5\nstop = 0\nstep = -0.5\n", "line 5: sweep value p=1.5 outside"),
        # the range's last point, 0.9 - 2 * 0.5, lies below 0
        ("step = -0.5\nstart = 0.9\nstop = -0.1\n",
         r"line 3: sweep value p=-0\.0999+\d* outside"),
    ])
    def test_out_of_range_sweep_value_reports_line(self, tmp_path, capsys, sweep, expected):
        path = write_cfg(tmp_path, "ell1 = 0\nell2 = 1\n" + sweep)
        with pytest.raises(ConfigError, match=expected):
            load_config(path)
        assert main(["sweep", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: " + expected.split(":")[0] + ":")

    def test_too_few_samples_reports_line(self, tmp_path):
        path = write_cfg(tmp_path, "ell1 = 0\nell2 = 1\nsamples = 8\nvalues = 0.5\n")
        with pytest.raises(ConfigError, match="line 3: samples must be at least 16"):
            load_config(path)


# one config per key whose line carries a non-finite number; unchecked, some
# of them run to a result and others fail later without a line number
NONFINITE_CFGS = {
    "start": "start = nan\nstop = 0\nstep = -0.5\n",
    "stop": "start = 1\nstop = inf\nstep = -0.5\n",
    "step": "start = 1\nstop = 0\nstep = nan\n",
    "values": "values = 1, nan, 0.5\n",
    "half_width": "values = 1\nhalf_width = -inf\n",
    "waist": "values = 1\nwaist = nan\n",
    "pair_rate": "values = 1\npair_rate = nan\n",
    "window": "values = 1\nwindow = inf\n",
    "duration": "values = 1\nduration = nan\n",
}


class TestNonFiniteConfig:
    @pytest.mark.parametrize("key", sorted(NONFINITE_CFGS))
    def test_sweep_rejects_non_finite_value(self, tmp_path, capsys, key):
        text = "ell1 = 0\nell2 = 1\nsamples = 32\n" + NONFINITE_CFGS[key]
        lineno = next(i for i, ln in enumerate(text.splitlines(), start=1)
                      if ln.startswith(f"{key} ="))
        code = main(["sweep", "--config", str(write_cfg(tmp_path, text))])
        assert code == 1
        err = capsys.readouterr().err
        assert f"line {lineno}: {key} must be finite" in err


class TestRunSweep:
    def test_analytic_sweep_holds_topology_until_collapse(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, SWEEP_CFG))
        rows = run_sweep(cfg)
        assert [r.p for r in rows] == pytest.approx([1.0, 0.75, 0.5, 0.25, 0.0])
        for r in rows[:-1]:
            assert r.skyrmion_number == pytest.approx(3.0, abs=1e-2)
            assert r.residual < 1e-2
        assert rows[-1].skyrmion_number == 0.0
        assert rows[-1].masked_fraction == 1.0
        # purity decays from 1 to the maximally mixed floor
        assert rows[0].purity == pytest.approx(1.0, abs=1e-10)
        assert rows[-1].purity == pytest.approx(0.25, abs=1e-10)

    def test_contrast_sweep_reproduces_purity_curve(self, tmp_path):
        text = ("ell1=0\nell2=1\nsweep=qc\nvalues=1, 1.5, 2, 4, 8, 32\n"
                "pipeline=analytic\nsamples=64\nhalf_width=8\n")
        cfg = load_config(write_cfg(tmp_path, text))
        rows = run_sweep(cfg)
        for row, qc in zip(rows, [1.0, 1.5, 2.0, 4.0, 8.0, 32.0]):
            assert row.purity == pytest.approx(contrast_to_purity(qc), abs=1e-10)
            if qc > 1.0:
                assert row.quantum_contrast == pytest.approx(qc, rel=1e-12)

    def test_deterministic_tomographic_sweep_matches_analytic(self, tmp_path):
        base = ("ell1=0\nell2=1\ndelta=0\nsweep=p\nvalues=0.9, 0.5, 0.2\n"
                "samples=64\nhalf_width=8\nseed=5\n")
        cfg_a = load_config(write_cfg(tmp_path, base + "pipeline=analytic\n", "a.cfg"))
        cfg_t = load_config(write_cfg(tmp_path, base + "pipeline=tomographic\n", "t.cfg"))
        rows_a = run_sweep(cfg_a)
        rows_t = run_sweep(cfg_t, deterministic=True)
        for ra, rt in zip(rows_a, rows_t):
            assert rt.purity == pytest.approx(ra.purity, abs=1e-6)
            assert round(rt.skyrmion_number) == round(ra.skyrmion_number)

    def test_reproducible_csv_bytes(self, tmp_path):
        text = ("ell1=0\nell2=2\nsweep=p\nvalues=0.8, 0.4\npipeline=tomographic\n"
                "samples=64\nhalf_width=8\nseed=21\n")
        cfg = load_config(write_cfg(tmp_path, text))
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        write_sweep_csv(run_sweep(cfg), cfg, out1)
        write_sweep_csv(run_sweep(cfg), cfg, out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_changes_poisson_rows(self, tmp_path):
        text = ("ell1=0\nell2=2\nsweep=p\nvalues=0.8\npipeline=tomographic\n"
                "samples=64\nhalf_width=8\nseed=21\n")
        cfg = load_config(write_cfg(tmp_path, text))
        row1 = run_sweep(cfg)[0]
        cfg.seed = 22
        row2 = run_sweep(cfg)[0]
        assert row1.quantum_contrast != row2.quantum_contrast

    def test_unconverged_reconstruction_is_reported(self, tmp_path, monkeypatch):
        # one iteration from the linear inversion leaves the KKT gap of this
        # pure-state record far above its tolerance
        monkeypatch.setattr(cli, "mle_reconstruct",
                            functools.partial(cli.mle_reconstruct, max_iters=1))
        text = ("ell1=0\nell2=1\nsweep=p\nvalues=1\npipeline=tomographic\n"
                "samples=32\nseed=85\n")
        path = write_cfg(tmp_path, text)
        with pytest.warns(UserWarning, match="did not converge"):
            rows = run_sweep(load_config(path))
        assert rows[0].converged is False
        # this point's residual alone would also give exit code 2; lift that gate
        monkeypatch.setattr(cli, "RESIDUAL_WARN", math.inf)
        with pytest.warns(UserWarning, match="did not converge"):
            assert main(["sweep", "--config", str(path)]) == 2

    def test_analytic_rows_are_converged(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, SWEEP_CFG))
        assert all(r.converged for r in run_sweep(cfg))


class TestGallery:
    def test_six_topologies_equal_pairs(self, tmp_path):
        specs = [HybridStateSpec(0, ell) for ell in (-3, -2, -1, 1, 2, 3)]
        rows = run_topology_gallery(specs, 0.5, samples=128, out_dir=tmp_path)
        for row, expected in zip(rows, (-3, -2, -1, 1, 2, 3)):
            assert row.matched
            assert round(row.number_clean) == expected

    def test_pairwise_equality_and_files(self, tmp_path):
        specs = [HybridStateSpec(0, 1), HybridStateSpec(0, -2)]
        rows = run_topology_gallery(specs, 0.5, samples=96, out_dir=tmp_path)
        for row, expected in zip(rows, (1, -2)):
            assert row.matched
            assert round(row.number_clean) == expected
        table = (tmp_path / "gallery.csv").read_text()
        assert "n_clean,n_noisy" in table
        texture = tmp_path / "texture_0_1_noisy.csv"
        assert texture.exists()
        header = texture.read_text().splitlines()
        assert header[-1].count(",") == 4  # x, y, s1, s2, s3

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            run_topology_gallery([HybridStateSpec(0, 1)], 1.5)


class TestMain:
    def test_state_command(self, capsys):
        code = main(["state", "--ell1", "0", "--ell2", "1", "--p", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "purity      = 0.437500" in out
        assert "concurrence = 0.250000" in out

    def test_skyrmion_command(self, capsys):
        code = main(["skyrmion", "--ell1", "0", "--ell2", "3", "--p", "0.5",
                     "--samples", "96"])
        out = capsys.readouterr().out
        assert code == 0
        assert "rounded 3" in out

    def test_skyrmion_density_export(self, tmp_path, capsys):
        dens = tmp_path / "density.csv"
        code = main(["skyrmion", "--ell1", "0", "--ell2", "3", "--samples", "64",
                     "--half-width", "6", "--density-out", str(dens)])
        assert code == 0
        text = dens.read_text().splitlines()
        assert text[0].startswith("# samples_per_axis")
        assert text[3] == "x,y,density"
        assert len(text) == 4 + 64 * 64

    def test_sweep_command_writes_csv(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SWEEP_CFG)
        code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "sweep.csv").exists()

    def test_sweep_validation_error_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "ell1 = 0\nnope = 3\n")
        code = main(["sweep", "--config", str(cfg)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_missing_config_file_exit_code(self, tmp_path, capsys):
        code = main(["sweep", "--config", str(tmp_path / "absent.cfg")])
        assert code == 1

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["skyrmion", "--ell1", "0"])  # missing --ell2
        assert exc.value.code == 1

    def test_gallery_command(self, tmp_path, capsys):
        code = main(["gallery", "--state", "0,1", "--state", "0,-1", "--p", "0.4",
                     "--samples", "96", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert (tmp_path / "gallery.csv").exists()
        assert "0,1," in out

    def test_gallery_bad_state_arg(self, capsys):
        code = main(["gallery", "--state", "0;1", "--p", "0.4"])
        assert code == 1

    def test_tomo_command(self, tmp_path, capsys):
        rec = tmp_path / "rec.csv"
        code = main(["tomo", "--ell1", "0", "--ell2", "1", "--p", "0.7",
                     "--deterministic", "--out", str(rec)])
        out = capsys.readouterr().out
        assert code == 0
        assert "average quantum contrast" in out
        assert "purity      = 0.617500" in out  # gamma(0.7)
        assert rec.exists()

    def test_tomo_prints_kkt_gap(self, capsys):
        code = main(["tomo", "--ell1", "0", "--ell2", "1", "--p", "1", "--seed", "4"])
        line = next(ln for ln in capsys.readouterr().out.splitlines()
                    if ln.startswith("mle:"))
        fields = dict(field.split("=") for field in line.split()[1:])
        assert code == 0
        assert sorted(fields) == ["converged", "gap", "iterations"]
        assert fields["converged"] == "True"
        assert int(fields["iterations"]) > 0
        assert 0 <= float(fields["gap"]) < 1e-2

    def test_converge_command(self, tmp_path, capsys):
        out_csv = tmp_path / "conv.csv"
        code = main(["converge", "--ell1", "0", "--ell2", "3",
                     "--resolutions", "48,64", "--out", str(out_csv)])
        assert code in (0, 2)
        lines = out_csv.read_text().splitlines()
        assert lines[2] == "resolution,skyrmion_number,residual"
        assert len(lines) == 5

    def test_high_residual_exit_code(self, capsys):
        # minimal window and coarse sampling leave a visibly unconverged number
        code = main(["skyrmion", "--ell1", "0", "--ell2", "1", "--samples", "24",
                     "--half-width", "3"])
        assert code == 2


def fmt_line(values) -> str:
    return ",".join(format(float(v), ".12g") for v in values)


def split_csv(path):
    """(header lines, column line, data lines) of a written CSV."""
    lines = path.read_text().splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    return header, lines[len(header)], lines[len(header) + 1:]


def grid_lines(grid, values):
    x = grid.axis()
    n = grid.samples_per_axis
    return [fmt_line((x[i], x[j], *np.atleast_1d(values[i, j])))
            for i in range(n) for j in range(n)]


@pytest.mark.parametrize("argv,first_row", [
    (["state", "--ell1", "0", "--ell2", "1"], "[[0.5+0.j 0. +0.j 0. +0.j 0.5+0.j]"),
    (["tomo", "--ell1", "0", "--ell2", "1", "--deterministic"],
     "[[0.5+0.j 0. +0.j 0. +0.j 0.5+0.j]"),
], ids=["state", "tomo"])
def test_printed_matrix_leaves_print_options_as_they_were(capsys, argv, first_row):
    before = np.get_printoptions()
    assert main(argv) == 0
    assert np.get_printoptions() == before
    # the matrix itself still prints at 4 digits; rounding-level entries print
    # as 0, never -0, whatever the sign of their rounding
    assert first_row in capsys.readouterr().out.splitlines()


class TestCsvContent:
    """Every data line equals the .12g formatting of values recomputed
    through the public pipeline."""

    def test_texture(self, tmp_path):
        spec = HybridStateSpec(0, -2, 0.4)
        run_topology_gallery([spec], 0.5, samples=32, out_dir=tmp_path)
        for tag, p in (("clean", 1.0), ("noisy", 0.5)):
            field = texture_for_state(spec, p, samples=32)
            header, columns, data = split_csv(tmp_path / f"texture_0_-2_{tag}.csv")
            assert header[1] == f"# p = {p:.12g}"
            assert columns == "x,y,s1,s2,s3"
            assert data == grid_lines(field.grid, field.vectors)

    def test_density(self, tmp_path, capsys):
        path = tmp_path / "density.csv"
        main(["skyrmion", "--ell1", "0", "--ell2", "3", "--delta", "0.4", "--p", "0.6",
              "--samples", "32", "--half-width", "6", "--density-out", str(path)])
        grid = GridSpec(6.0, 32)
        result = skyrmion_number(texture_for_state(HybridStateSpec(0, 3, 0.4), 0.6, grid))
        header, columns, data = split_csv(path)
        assert header[2] == f"# skyrmion_number = {result.number:.12g}"
        assert columns == "x,y,density"
        assert data == grid_lines(grid, result.density)

    def test_sweep(self, tmp_path, capsys):
        text = ("ell1=0\nell2=3\ndelta=0.4\nsweep=p\nvalues=1, 0.5, 0.2, 0\n"
                "pipeline=analytic\nsamples=32\nhalf_width=6\nwaist=1.5\n")
        cfg = write_cfg(tmp_path, text)
        main(["sweep", "--config", str(cfg), "--out", str(tmp_path)])
        spec, grid = HybridStateSpec(0, 3, 0.4), GridSpec(9.0, 32)
        expected = []
        for p in (1.0, 0.5, 0.2, 0.0):
            w = witness_report(apply_isotropic_noise(pure_state(spec), p), spec)
            res = skyrmion_number(texture_for_state(spec, p, grid, waist=1.5))
            expected.append(fmt_line((p, contrast_from_p(p), w.purity, w.concurrence,
                                      w.fidelity, res.number, res.residual,
                                      res.masked_fraction)))
        header, columns, data = split_csv(tmp_path / "sweep.csv")
        assert header[3] == "# grid = 32 x 32, half_width = 9"
        assert columns.split(",") == ["p", "quantum_contrast", "purity", "concurrence",
                                      "fidelity", "skyrmion_number", "residual",
                                      "masked_fraction"]
        assert data == expected
        stdout = capsys.readouterr().out.splitlines()
        assert stdout[:5] == [columns, *expected]

    def test_gallery_summary(self, tmp_path):
        specs = [HybridStateSpec(0, 1), HybridStateSpec(2, -5, 0.7)]
        run_topology_gallery(specs, 0.3, samples=32, out_dir=tmp_path)
        expected = []
        for spec in specs:
            clean = skyrmion_number(texture_for_state(spec, 1.0, samples=32))
            noisy = skyrmion_number(texture_for_state(spec, 0.3, samples=32))
            matched = round(clean.number) == round(noisy.number)
            expected.append(fmt_line((spec.ell1, spec.ell2, spec.delta, clean.number,
                                      noisy.number, clean.residual, noisy.residual, matched)))
        header, columns, data = split_csv(tmp_path / "gallery.csv")
        assert header == ["# p = 0.3"]
        assert columns == "ell1,ell2,delta,n_clean,n_noisy,residual_clean,residual_noisy,matched"
        assert data == expected
        assert data[1].startswith("2,-5,0.7,")

    def test_convergence(self, tmp_path):
        spec = HybridStateSpec(0, 2, 0.4)
        path = tmp_path / "conv.csv"
        run_convergence(spec, [32, 48], p=0.7, out=path)
        expected = []
        for n in (32, 48):
            res = skyrmion_number(texture_for_state(spec, 0.7, suggested_grid(spec, n)))
            expected.append(fmt_line((n, res.number, res.residual)))
        header, columns, data = split_csv(path)
        assert columns == "resolution,skyrmion_number,residual"
        assert data == expected
        assert data[0].startswith("32,")
