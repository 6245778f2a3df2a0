"""Reference outputs: the output contract of the command line, kept in one place.

Every command of ``CASES`` is run in-process through ``cli.main`` and its
stdout, exit code and written files are compared with the copies committed
under ``tests/reference/<case>/``, field by field:

- text, header lines (``#``), CSV column lines, integers, exit codes and every
  column that ``TOLERANCES`` does not name must match exactly;
- a number in a column that ``TOLERANCES`` names must satisfy
  ``|a - b| <= atol + rtol * |b|``, with ``b`` the reference.

A CSV row's numbers are named by its column line; a number in free text by
the last word before it on its line (``gap=7.26e-09`` is ``gap``), and the
entries of a printed density matrix are ``rho``.  On failure the message
lists every column that moved, with its file, its largest absolute and
relative move, and whether it is beyond its tolerance.

``python tests/reference/make.py`` rewrites the reference files from the same
``CASES`` and prints every column that moved, within its tolerance or not;
nothing switches this test into writing them.
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import math
import re
from dataclasses import dataclass
from pathlib import Path

import pytest

from qskyrmion import cli

REFERENCE = Path(__file__).parent / "reference"

# column: (atol, rtol).  Each atol is at least 10x the largest move measured when
# the outputs were rerun with OpenBLAS's Haswell, SkylakeX, Zen, Sandybridge,
# Nehalem and Prescott kernels and with numpy's AVX2 and AVX512 loops switched
# off (numpy 2.4, x86-64); CI runs other CPUs and numpy 2.0.  A CSV value has 12
# significant digits, whose last one any move can flip at a rounding boundary, so
# every bound also covers two units of that digit: rtol 2e-11, or a larger atol.
TOLERANCES = {
    # Skyrmion numbers and residuals, residual = |N - round(N)| moving with N: a
    # tomographic row's N moved by up to 1.4e-15, an analytic one's by up to 9e-16
    # (w @ D @ w in another kernel) and the converge residual at 256^2 by 4e-16
    "skyrmion_number": (1e-13, 2e-11),
    "n_clean": (1e-13, 2e-11),
    "n_noisy": (1e-13, 2e-11),
    "N": (1e-13, 2e-11),
    "residual": (1e-13, 2e-11),
    "residual_clean": (1e-13, 2e-11),
    "residual_noisy": (1e-13, 2e-11),
    # witnesses of a maximum-likelihood state, which is known only to its stop rule:
    # the tomographic concurrence moved by up to 4.7e-9.  `tomo` prints them with 6
    # decimals, and its fidelity lies 4e-9 from a rounding boundary, so the bound is
    # two units of the 6th decimal
    "purity": (2e-6, 0.0),
    "concurrence": (2e-6, 0.0),
    "fidelity": (2e-6, 0.0),
    # the printed density matrix has 4 decimals; two units of the last, as above
    "rho": (2e-4, 0.0),
    # the KKT gap certifies the stop rule and is no value of the state: `tomo`'s
    # 7.26e-09 read 7.22e-09, a 0.55 % move
    "gap": (0.0, 0.1),
    # no move measured: the contrast of --deterministic records, Stokes textures
    # and Skyrmion densities; 1e-14, ~50 ulp of 1, covers entries near 0
    "quantum_contrast": (0.0, 2e-11),
    "s1": (1e-14, 2e-11),
    "s2": (1e-14, 2e-11),
    "s3": (1e-14, 2e-11),
    "density": (1e-14, 2e-11),
}


@dataclass(frozen=True)
class Case:
    """One command; ``{cfg}`` in its arguments is ``config`` written to a file,
    ``{out}`` the directory its files go to."""

    name: str
    argv: str
    config: str | None = None
    keep: tuple[str, ...] | None = None  # the written files stored whole; None for all


README_SWEEP = """\
# charge-3 state swept from pure to maximally mixed
ell1 = 0
ell2 = 3
delta = 0.0
sweep = p            # or qc
start = 1.0
stop = 0.0
step = -0.05         # or: values = 1, 1.5, 2, 4, 8, 32
pipeline = analytic  # or tomographic
samples = 256
half_width = auto    # waist units; "auto" sizes the window to the state
waist = 1.0
pair_rate = 1e5      # Hz
window = 25e-9       # coincidence window, s
duration = 1.0       # integration time, s
seed = 7
"""
TOMOGRAPHIC_SWEEP = (README_SWEEP.replace("pipeline = analytic", "pipeline = tomographic")
                     .replace("samples = 256", "samples = 128"))

CASES = [
    Case("sweep_analytic", "sweep --config {cfg} --out {out}/results", README_SWEEP),
    Case("sweep_tomographic_deterministic",
         "sweep --config {cfg} --out {out}/results --deterministic", TOMOGRAPHIC_SWEEP),
    Case("sweep_tomographic_poisson", "sweep --config {cfg} --out {out}/results",
         TOMOGRAPHIC_SWEEP),
    # the texture files of a 256^2 grid are ~5 MB each
    Case("gallery_readme", "gallery --state 0,1 --state 0,-2 --p 0.5 --out {out}/gallery",
         keep=("gallery/gallery.csv",)),
    # the noisy texture is the clean one, so both files have one body
    Case("gallery_textures", "gallery --state 0,-2,0.7 --samples 32 --out {out}/gallery"),
    # an odd grid has its centre row and column in the computed quadrant
    Case("gallery_odd_grid", "gallery --state=-3,1,1.3 --state 2,-5 --samples 97 --out {out}/g",
         keep=("g/gallery.csv",)),
    Case("converge", "converge --ell1 0 --ell2 2 --out {out}/converge.csv"),
    Case("tomo", "tomo --ell1 0 --ell2 1 --p 0.7 --seed 5 --out {out}/record.csv"),
    Case("state", "state --ell1 0 --ell2 1 --p 0.8"),
    Case("skyrmion",
         "skyrmion --ell1 0 --ell2 3 --p 0.5 --samples 32 --density-out {out}/density.csv"),
]


def run_case(case: Case, tmp: Path) -> tuple[str, int, Path]:
    """Run ``case`` with its files under ``tmp``: its stdout, exit code and output directory."""
    out = tmp / "out"
    out.mkdir(parents=True)
    cfg = tmp / "sweep.cfg"
    if case.config is not None:
        cfg.write_text(case.config)
    argv = [arg.format(cfg=cfg, out=out) for arg in case.argv.split()]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    return stdout.getvalue(), code, out


def outputs(case: Case, tmp: Path) -> dict[str, str]:
    """What the reference stores of ``case``, by path under its directory:
    ``stdout.txt`` with ``tmp``'s output directory as ``{out}``, ``run.txt``
    with the exit code and every file written, and the kept files under ``out/``."""
    stdout, code, out = run_case(case, tmp)
    written = sorted(path.relative_to(out).as_posix() for path in out.rglob("*")
                     if path.is_file())
    kept = written if case.keep is None else [name for name in written if name in case.keep]
    return {
        "stdout.txt": stdout.replace(str(out), "{out}"),
        "run.txt": "".join([f"exit code {code}\n", *(f"wrote {name}\n" for name in written)]),
        **{f"out/{name}": (out / name).read_text() for name in kept},
    }


def stored() -> dict[str, str]:
    """The reference files, by path under ``REFERENCE``."""
    return {path.relative_to(REFERENCE).as_posix(): path.read_text()
            for path in sorted(REFERENCE.rglob("*"))
            if path.is_file() and path.parent != REFERENCE}


# --- comparison ---------------------------------------------------------------

_NUMBER = re.compile(r"(?<![A-Za-z_])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_WORD = re.compile(r"[A-Za-z_]\w*")
_COLUMN_LINE = re.compile(r"[a-z_]\w*(?:,[a-z_]\w*)+")


def _fields(lines):
    """Per line: its text with every number taken out (whitespace dropped, since
    it pads numbers), and the (column, number) pairs taken out of it."""
    columns = None
    for line in lines:
        if line.startswith("#") or _COLUMN_LINE.fullmatch(line):
            if not line.startswith("#"):
                columns = line.split(",")
            yield line, []
            continue
        numbers = []
        for match in _NUMBER.finditer(line):
            before = line[: match.start()]
            if columns is not None and len(columns) == line.count(",") + 1:
                column = columns[before.count(",")]
            elif line.lstrip().startswith("["):
                column = "rho"
            else:
                words = _WORD.findall(before)
                column = words[-1] if words else ""
            numbers.append((column, match.group()))
        yield "".join(_NUMBER.sub("#", line).split()), numbers


def movement(reference: dict[str, str], produced: dict[str, str]) -> tuple[list[str], dict]:
    """How ``produced`` differs from ``reference``, both mapping file names to
    their text: the differences no tolerance covers (files missing or extra,
    line counts, text and column names), and per (file, column) whose numbers
    moved, [largest absolute move, largest relative move, beyond tolerance]."""
    problems = [f"missing file {name}" for name in sorted(reference.keys() - produced.keys())]
    problems += [f"extra file {name}" for name in sorted(produced.keys() - reference.keys())]
    moves = {}
    for name in sorted(reference.keys() & produced.keys()):
        want, got = reference[name].splitlines(), produced[name].splitlines()
        if len(want) != len(got):
            problems.append(f"{name}: {len(got)} lines, reference has {len(want)}")
        for lineno, (want_line, got_line, (want_text, want_nums), (got_text, got_nums)) in \
                enumerate(zip(want, got, _fields(want), _fields(got)), start=1):
            if want_text != got_text or [c for c, _ in want_nums] != [c for c, _ in got_nums]:
                problems.append(f"{name}:{lineno}: {got_line!r}, reference {want_line!r}")
                continue
            for (column, b), (_, a) in zip(want_nums, got_nums):
                a, b = float(a), float(b)
                if a == b:
                    continue
                atol, rtol = TOLERANCES.get(column, (0.0, 0.0))
                move = abs(a - b)
                relative = move / abs(b) if b else math.inf
                entry = moves.setdefault((name, column), [0.0, 0.0, False])
                entry[0], entry[1] = max(entry[0], move), max(entry[1], relative)
                entry[2] |= move > atol + rtol * abs(b)
    return problems, moves


def report(problems: list[str], moves: dict) -> str:
    """The lines of :func:`movement`'s result: each problem, then every column
    that moved with its largest moves and its tolerance."""
    lines = [*problems, "columns that moved (file, column: largest absolute and relative move):"]
    for (name, column), (move, relative, beyond) in moves.items():
        atol, rtol = TOLERANCES.get(column, (0.0, 0.0))
        lines.append(f"  {name} {column}: {move:.3g} abs, {relative:.3g} rel"
                     f" (atol {atol:g}, rtol {rtol:g}){'  BEYOND TOLERANCE' if beyond else ''}")
    return "\n".join(lines)


def compare(reference: dict[str, str], produced: dict[str, str]) -> str:
    """Every difference of ``produced`` from ``reference`` as a report, empty when
    none is beyond its tolerance.  Both map file names to their text."""
    problems, moves = movement(reference, produced)
    if not problems and not any(beyond for _, _, beyond in moves.values()):
        return ""
    return report(problems, moves)


def test_reference_outputs(tmp_path):
    produced = {f"{case.name}/{name}": text for case in CASES
                for name, text in outputs(case, tmp_path / case.name).items()}
    report = compare(stored(), produced)
    assert not report, "reference outputs moved\n" + report


# --- the ledger's own checks ----------------------------------------------------

SWEEP_CSV = "sweep_analytic/out/results/sweep.csv"


def planted(text: str, p: str, column: str, value: str) -> tuple[str, float]:
    """``text``, a sweep table, with ``column`` of the row of weight ``p`` set to
    ``value``, and the value it replaced."""
    lines = text.splitlines(keepends=True)
    columns = next(line for line in lines if line.startswith("p,")).strip().split(",")
    row = next(i for i, line in enumerate(lines) if line.split(",")[0] == p)
    fields = lines[row].rstrip("\n").split(",")
    old = float(fields[columns.index(column)])
    fields[columns.index(column)] = value
    lines[row] = ",".join(fields) + "\n"
    return "".join(lines), old


def test_move_beyond_tolerance_names_file_column_and_moves():
    reference = stored()
    text, old = planted(reference[SWEEP_CSV], "0.5", "skyrmion_number", "3")
    report = compare(reference, {**reference, SWEEP_CSV: text})
    move = 3 - old
    assert report.splitlines() == [
        "columns that moved (file, column: largest absolute and relative move):",
        f"  {SWEEP_CSV} skyrmion_number: {move:.3g} abs, {move / old:.3g} rel"
        " (atol 1e-13, rtol 2e-11)  BEYOND TOLERANCE",
    ]


def test_move_within_tolerance_passes():
    # one unit of the 12th significant digit, which any move can flip
    reference = stored()
    _, old = planted(reference[SWEEP_CSV], "0.5", "skyrmion_number", "")
    text, _ = planted(reference[SWEEP_CSV], "0.5", "skyrmion_number", "%.12g" % (old + 1e-11))
    assert text != reference[SWEEP_CSV]
    assert compare(reference, {**reference, SWEEP_CSV: text}) == ""


def test_missing_and_extra_files_fail():
    reference = stored()
    missing = {name: text for name, text in reference.items() if name != SWEEP_CSV}
    assert f"missing file {SWEEP_CSV}" in compare(reference, missing).splitlines()
    extra = {**reference, "state/out/extra.csv": "x\n"}
    assert "extra file state/out/extra.csv" in compare(reference, extra).splitlines()


def test_changed_text_and_exact_columns_fail():
    reference = stored()
    for column, value in (("masked_fraction", "1e-300"), ("p", "0.5000000000001")):
        text, _ = planted(reference[SWEEP_CSV], "0.5", column, value)
        assert f"{SWEEP_CSV} {column}:" in compare(reference, {**reference, SWEEP_CSV: text})
    header = {**reference, SWEEP_CSV: reference[SWEEP_CSV].replace("# seed = 7", "# seed = 8")}
    assert compare(reference, header).startswith(f"{SWEEP_CSV}:5: '# seed = 8'")


# --- determinism --------------------------------------------------------------

@pytest.mark.parametrize("name", ["sweep_analytic", "gallery_readme", "sweep_tomographic_poisson"])
def test_same_config_and_seed_give_the_same_bytes(tmp_path, name):
    # every byte of stdout and of every file written, the 256^2 textures included
    case = next(case for case in CASES if case.name == name)
    (first, code1, out1), (second, code2, out2) = (run_case(case, tmp_path / run)
                                                   for run in ("1", "2"))
    assert (first.replace(str(out1), "{out}"), code1) == (second.replace(str(out2), "{out}"), code2)
    files = sorted(path.relative_to(out1) for path in out1.rglob("*") if path.is_file())
    assert files == sorted(path.relative_to(out2) for path in out2.rglob("*") if path.is_file())
    assert files
    for path in files:
        assert filecmp.cmp(out1 / path, out2 / path, shallow=False), path
