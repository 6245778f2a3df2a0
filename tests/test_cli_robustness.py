"""Malformed inputs fail with a validation error and exit code 1, never a traceback.

Hypothesis feeds arbitrary and config-shaped text and bytes into
``load_config`` and ``record_from_csv``; each may raise ``ConfigError`` or
``ValueError`` only.  The sweep command runs only on configs that fail to
load, so no generated sweep is ever computed.
"""

import contextlib
import io
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qskyrmion import (
    GridSpec,
    HybridStateSpec,
    ModeSpec,
    apply_isotropic_noise,
    coeff_field,
    lg_amplitude,
    pure_state,
    record_from_csv,
    record_to_csv,
    simulate_counts,
)
from qskyrmion import cli
from qskyrmion.cli import MAX_SWEEP_POINTS, ConfigError, load_config, main
from qskyrmion.lgmodes import MAX_CHARGE

SRC = Path(__file__).resolve().parent.parent / "src"
KEYS = ["ell1", "ell2", "delta", "sweep", "values", "start", "stop", "step", "pipeline",
        "samples", "half_width", "waist", "pair_rate", "window", "duration", "seed", "out"]
FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def range_config(tmp_path, step, start="0", stop="1"):
    path = tmp_path / "range.cfg"
    path.write_text(f"ell1 = 0\nell2 = 1\nstart = {start}\nstop = {stop}\nstep = {step}\n")
    return path


@pytest.mark.parametrize("start,stop,step", [
    ("0", "1", "1e-300"),  # 1e300 points
    ("0", "1", "5e-324"),  # the point count overflows to inf
    ("-1e308", "1e308", "1"),  # so does the span
    ("0", "1", str(1.0 / MAX_SWEEP_POINTS)),  # one point over the limit
])
def test_range_sweep_over_point_limit_is_rejected(tmp_path, capsys, start, stop, step):
    path = range_config(tmp_path, step, start, stop)
    with pytest.raises(ConfigError, match=f"line 5: range sweep has more than {MAX_SWEEP_POINTS}"):
        load_config(path)
    assert main(["sweep", "--config", str(path)]) == 1
    assert "line 5: range sweep has more than" in capsys.readouterr().err


def test_range_sweep_at_point_limit_is_accepted(tmp_path):
    cfg = load_config(range_config(tmp_path, 1.0 / (MAX_SWEEP_POINTS - 1)))
    assert len(cfg.points) == MAX_SWEEP_POINTS
    assert cfg.points[0] == 0.0 and cfg.points[-1] == pytest.approx(1.0)


def test_directory_as_config_exits_1_without_traceback(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "qskyrmion.cli", "sweep", "--config", str(tmp_path)],
        capture_output=True, text=True, env={"PYTHONPATH": str(SRC)}, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "Is a directory" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_charge_beyond_float_range_loads_as_an_integer(tmp_path):
    # the state's finiteness check once converted it to float and overflowed;
    # the charge is parsed as an integer and rejected at its line
    path = tmp_path / "big.cfg"
    path.write_text(f"ell1 = 0\nell2 = {'9' * 400}\nvalues = 1\n")
    with pytest.raises(ConfigError, match=r"line 2: \|ell\| = "):
        load_config(path)


@pytest.mark.parametrize("value", ["0", "-1", "inf"])
@pytest.mark.parametrize("flag", ["--pair-rate", "--window", "--duration"])
def test_tomo_rejects_rates_not_positive_and_finite(capsys, flag, value):
    assert main(["tomo", "--ell1", "0", "--ell2", "1", f"{flag}={value}"]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[0] == f"error: {flag} must be positive and finite"
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["0", "-1", "inf", "nan"])
@pytest.mark.parametrize("argv", [
    ["skyrmion", "--ell1", "0", "--ell2", "1", "--samples", "16"],
    ["gallery", "--state", "0,1", "--samples", "16"],
    ["converge", "--ell1", "0", "--ell2", "1", "--resolutions", "16"],
], ids=["skyrmion", "gallery", "converge"])
def test_waist_not_positive_and_finite_is_rejected(tmp_path, capsys, argv, value):
    out = tmp_path / "d"
    extra = ["--out", str(out)] if argv[0] == "gallery" else []
    assert main([*argv, f"--waist={value}", *extra]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[0] == "error: --waist must be positive and finite"
    assert not out.exists()


# --- fuzzing ----------------------------------------------------------------

NUMBERS = st.one_of(
    st.integers(-3, 40).map(str),
    st.integers().map(str),
    st.just("9" * 400),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["auto", "p", "qc", "analytic", "tomographic", "1e-300", "5e-324",
                     "-0.05", "0", "1"]),
)
VALUES = st.one_of(
    NUMBERS,
    st.lists(NUMBERS, max_size=6).map(", ".join),
    st.text(max_size=20),
)
LINES = st.one_of(
    st.tuples(st.sampled_from(KEYS + ["", "nope"]), VALUES).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.text(max_size=30),
    st.sampled_from(["# comment", "", "=", "ell1 =", "= 3"]),
)
CONFIG_TEXT = st.one_of(st.text(), st.lists(LINES, max_size=12).map("\n".join))


def check_config(path):
    """``load_config`` fails cleanly or succeeds; a failing file makes the
    sweep command exit 1 with one ``error:`` line and nothing else."""
    try:
        load_config(path)
    except ValueError:  # ConfigError is a ValueError
        pass
    else:
        return
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["sweep", "--config", str(path)])
    assert code == 1
    assert err.getvalue().startswith("error: ")


@given(text=CONFIG_TEXT)
@FUZZ
def test_fuzz_config_text(tmp_path, text):
    path = tmp_path / "fuzz.cfg"
    path.write_text(text, encoding="utf-8", errors="surrogatepass")
    check_config(path)


@given(data=st.binary(max_size=200))
@FUZZ
def test_fuzz_config_bytes(tmp_path, data):
    path = tmp_path / "fuzz.cfg"
    path.write_bytes(data)
    check_config(path)


@pytest.fixture(scope="module")
def record_lines(tmp_path_factory):
    rho = apply_isotropic_noise(pure_state(HybridStateSpec(0, 1)), 0.6)
    record = simulate_counts(rho, pair_rate=1e5, noise_rate_a=2e4, noise_rate_b=2e4,
                             mode="poisson", seed=3)
    path = tmp_path_factory.mktemp("record") / "record.csv"
    record_to_csv(record, path)
    return path.read_text().splitlines()


def check_record(path):
    try:
        record_from_csv(path)
    except ValueError:
        pass


@given(edits=st.lists(st.tuples(st.integers(0, 44), st.one_of(
    st.text(max_size=40), st.lists(NUMBERS, min_size=1, max_size=8).map(",".join),
)), max_size=4), drop=st.booleans())
@FUZZ
def test_fuzz_record_edits(tmp_path, record_lines, edits, drop):
    lines = list(record_lines)
    for index, text in edits:
        index %= len(lines)
        if drop:
            del lines[index]
        else:
            lines[index] = text
    path = tmp_path / "record.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogatepass")
    check_record(path)


@given(data=st.one_of(st.binary(max_size=400), st.text().map(
    lambda t: t.encode("utf-8", "surrogatepass"))))
@FUZZ
def test_fuzz_record_bytes(tmp_path, data):
    path = tmp_path / "record.csv"
    path.write_bytes(data)
    check_record(path)


# --- OAM charges beyond the envelope limit ------------------------------------

@pytest.mark.parametrize("argv", [
    ["skyrmion", "--ell1", "0", "--ell2", "171", "--samples", "32"],  # 171! overflows a double
    ["skyrmion", "--ell1", "0", "--ell2", "200", "--samples", "32"],  # 0!/200! underflows to 0
    ["skyrmion", "--ell1", "-171", "--ell2", "3", "--samples", "32", "--half-width", "5"],
    ["skyrmion", "--ell1", "0", "--ell2", "9" * 400, "--samples", "32"],
    ["gallery", "--state", "0,200", "--samples", "32"],
    ["gallery", "--state", "0,1", "--state=-171,2", "--samples", "32"],
    ["converge", "--ell1", "0", "--ell2", "300", "--resolutions", "32"],
])
def test_charge_beyond_envelope_limit_exits_1(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: |ell| = ") and f"exceeds {MAX_CHARGE}" in err


def test_gallery_charge_beyond_envelope_limit_writes_nothing(tmp_path, capsys):
    out = tmp_path / "d"
    argv = ["gallery", "--state", "0,1", "--state", "0,200", "--samples", "16", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: |ell| = ")
    assert not out.exists()


@pytest.mark.parametrize("by_key", [False, True], ids=["flag", "config-key"])
def test_sweep_out_under_a_file_fails_before_the_sweep(tmp_path, capsys, by_key):
    # the output directory is made before the sweep runs, so a path that cannot
    # be a directory prints no row
    results = tmp_path / "afile" / "results"
    results.parent.write_text("")
    path = tmp_path / "s.cfg"
    text = "ell1 = 0\nell2 = 1\nvalues = 1, 0.5\nsamples = 16\n"
    path.write_text(text + f"out = {results}\n" if by_key else text)
    argv = ["sweep", "--config", str(path)] + ([] if by_key else ["--out", str(results)])
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("ell", ["171", "-200", "9" * 400], ids=["171", "-200", "400-digits"])
def test_sweep_charge_beyond_envelope_limit_reports_line(tmp_path, capsys, ell):
    path = tmp_path / "big.cfg"
    path.write_text(f"ell1 = 0\nell2 = {ell}\nvalues = 1\n")
    assert main(["sweep", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: line 2: |ell| = ")
    path.write_text(f"# charges swapped\nell2 = 1\nell1 = {ell}\nvalues = 1\n")
    assert main(["sweep", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: line 3: |ell| = ")


def test_charge_at_envelope_limit_forms_a_texture(capsys):
    # exit 2 is the quadrature-residual warning: a 32^2 grid cannot resolve N = 170
    assert main(["skyrmion", "--ell1", "0", "--ell2", str(MAX_CHARGE), "--samples", "32"]) == 2
    assert capsys.readouterr().out.startswith("N = ")
    lg_amplitude(1.0, 0.0, ModeSpec(-MAX_CHARGE))
    with pytest.raises(ValueError, match=f"exceeds {MAX_CHARGE}"):
        lg_amplitude(1.0, 0.0, ModeSpec(MAX_CHARGE + 1))
    with pytest.raises(ValueError, match=f"exceeds {MAX_CHARGE}"):
        coeff_field(HybridStateSpec(MAX_CHARGE + 1, 0), GridSpec(5.0, 16))


@pytest.mark.parametrize("command", ["state", "tomo"])
def test_state_and_tomo_accept_any_charge(capsys, command):
    # neither forms an envelope, so no charge limit applies
    assert main([command, "--ell1", "0", "--ell2", "9" * 400, "--p", "0.7"]) == 0
    assert "fidelity" in capsys.readouterr().out


# --- flags checked before any output -------------------------------------------

def test_state_with_weight_outside_unit_interval_prints_nothing(capsys):
    assert main(["state", "--ell1", "0", "--ell2", "1", "--p", "1.5"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("command,extra", [
    ("skyrmion", ["--samples", "32"]),
    ("converge", ["--resolutions", "32"]),
])
def test_half_width_that_is_not_a_number_names_the_flag(capsys, command, extra):
    argv = [command, "--ell1", "0", "--ell2", "1", "--half-width", "abc", *extra]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --half-width must be a number or 'auto', got 'abc'\n"


@pytest.mark.parametrize("command,extra", [
    ("skyrmion", ["--samples", "32"]),
    ("converge", ["--resolutions", "32"]),
])
def test_half_width_auto_is_read_in_any_case(capsys, command, extra):
    argv = [command, "--ell1", "0", "--ell2", "1", *extra, "--half-width"]
    code = main([*argv, "auto"])
    expected = capsys.readouterr()
    for spelling in ("AUTO", "Auto"):
        assert main([*argv, spelling]) == code
        assert capsys.readouterr() == expected


@pytest.mark.parametrize("argv", [
    ["skyrmion", "--ell1", "0", "--ell2", "1"],
    ["gallery", "--state", "0,1"],
], ids=["skyrmion", "gallery"])
def test_too_few_samples_names_the_flag(tmp_path, capsys, argv):
    out = tmp_path / "s8"
    extra = ["--out", str(out)] if argv[0] == "gallery" else []
    assert main([*argv, "--samples", "8", *extra]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err == "error: --samples must be at least 16\n"
    assert not out.exists()


@pytest.mark.parametrize("resolutions,bad", [("8,64", 8), ("64,15", 15)])
def test_too_few_resolution_samples_names_the_flag(tmp_path, capsys, resolutions, bad):
    # every entry is held to the --samples condition before any scan runs
    out = tmp_path / "conv.csv"
    argv = ["converge", "--ell1", "0", "--ell2", "1", "--resolutions", resolutions,
            "--out", str(out)]
    assert main(argv) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err == f"error: --resolutions entries must be at least 16, got {bad}\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-3", "inf", "nan"])
@pytest.mark.parametrize("command,extra", [
    ("skyrmion", ["--samples", "32"]),
    ("converge", ["--resolutions", "32"]),
])
def test_half_width_not_positive_and_finite_names_the_flag(capsys, command, extra, value):
    argv = [command, "--ell1", "0", "--ell2", "1", f"--half-width={value}", *extra]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --half-width must be positive and finite\n"


def test_gallery_weight_that_is_not_a_number_is_named(tmp_path, capsys):
    out = tmp_path / "gal"
    argv = ["gallery", "--state", "0,1", "--samples", "16", "--p", "nan", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: noise weight p must lie in [0, 1], got nan\n"
    assert not out.exists()


def test_every_setting_default_meets_its_condition():
    for name, (cast, default, _, holds) in cli._SETTINGS.items():
        assert type(default) is cast and holds(default), name


def test_tomo_seed_beyond_float_range_runs(capsys):
    # an integer flag is never passed to math.isfinite, which would overflow
    assert main(["tomo", "--ell1", "0", "--ell2", "1", "--seed", "9" * 400]) == 0
    assert "mle: iterations=" in capsys.readouterr().out
