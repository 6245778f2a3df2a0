"""Experiment runner: noise sweeps, topology galleries, convergence scans.

Drives the full pipelines from a key-value config file or command-line
flags and writes plot-ready CSV tables (quantum_contrast, purity,
concurrence, fidelity, skyrmion_number columns).  Exit codes: 0 success,
1 validation error, 2 numerical warning (non-convergence or high
residual).
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import ExitStack
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .biphoton import (
    HybridStateSpec,
    _check_weight,
    _isotropic_mix,
    apply_isotropic_noise,
    contrast_from_p,
    contrast_to_p,
    pure_state,
)
from .lgmodes import GridSpec, check_charge, coeff_field
from .stokesfield import bloch_texture
from .tomography import (
    _contrast_ceiling,
    _witnesses,
    average_quantum_contrast,
    mle_reconstruct,
    noise_rate_for_contrast,
    record_to_csv,
    simulate_counts,
    witness_report,
)
from .topology import (
    _convergence_grids,
    _convergence_rows,
    _sweep_results,
    _window_grid,
    channel_skyrmion_numbers,
    pullback_skyrmion_number,
    skyrmion_number,
    suggested_grid,
    texture_for_state,
)

RESIDUAL_WARN = 1e-2
# most points a start/stop/step sweep may expand to, checked before the list is built
MAX_SWEEP_POINTS = 10_000
# rows formatted per piece of CSV text; bounds the memory a large grid takes
_CSV_CHUNK_ROWS = 1024

# the type, default and condition of each setting of both the config (key pair_rate) and the
# flags (--pair-rate); a float flag must also be finite.  half_width is in waist units
_SETTINGS = {
    "samples": (int, 256, "at least 16", lambda v: v >= 16),
    "half_width": (float, 5.0, "positive", lambda v: v > 0),
    "waist": (float, 1.0, "positive", lambda v: v > 0),
    "pair_rate": (float, 1e5, "positive", lambda v: v > 0),
    "window": (float, 25e-9, "positive", lambda v: v > 0),
    "duration": (float, 1.0, "positive", lambda v: v > 0),
    "seed": (int, 1, "non-negative", lambda v: v >= 0),
}


class ConfigError(ValueError):
    """Config validation failure with a line-level message."""

    def __init__(self, message: str, line: int | None = None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


@dataclass
class SweepConfig:
    """Validated sweep description."""

    state: HybridStateSpec
    sweep_var: str  # "p" or "qc"
    points: list[float]
    pipeline: str  # "analytic" or "tomographic"
    samples: int
    half_width: float | None  # None = auto window
    waist: float
    pair_rate: float
    window: float
    duration: float
    seed: int
    out_dir: str | None = None

    def grid(self) -> GridSpec:
        return _window_grid(self.state, self.samples, _half_width_arg(self), waist=self.waist)


_SWEEP_COLUMNS = ("p,quantum_contrast,purity,concurrence,fidelity,skyrmion_number,"
                  "residual,masked_fraction")


@dataclass
class SweepRow:
    p: float
    quantum_contrast: float
    purity: float
    concurrence: float
    fidelity: float
    skyrmion_number: float
    residual: float
    masked_fraction: float
    converged: bool = True  # False if the point's MLE reconstruction did not converge


_KNOWN_KEYS = {"ell1", "ell2", "delta", "sweep", "values", "start", "stop", "step",
               "pipeline", "out", *_SETTINGS}


def _parse_scalar(raw: str, line: int, key: str, cast):
    try:
        value = cast(raw)
    except ValueError:
        raise ConfigError(f"cannot parse {key} value {raw!r}", line) from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {raw!r}", line)
    return value


def load_config(path) -> SweepConfig:
    """Parse a ``key = value`` config file into a SweepConfig.

    Lines may carry ``#`` comments; unknown keys, malformed values and
    out-of-range sweeps are reported with their line number.
    """
    entries: dict[str, tuple[str, int]] = {}
    text = Path(path).read_text()
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {rawline!r}", lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in entries:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        if not value:
            raise ConfigError(f"empty value for {key!r}", lineno)
        entries[key] = (value, lineno)

    def take(key, cast=str, default=None, required=False):
        if key not in entries:
            if required:
                raise ConfigError(f"missing required key {key!r}")
            return default
        value, lineno = entries[key]
        return _parse_scalar(value, lineno, key, cast)

    def setting(key):
        cast, default, condition, holds = _SETTINGS[key]
        if key not in entries:
            return default
        raw, lineno = entries[key]
        value = _parse_scalar(raw, lineno, key, _read_half_width if key == "half_width" else cast)
        if value is not None and not holds(value):
            raise ConfigError(f"{key} must be {condition}", lineno)
        return value

    ell1 = take("ell1", int, required=True)
    ell2 = take("ell2", int, required=True)
    for key, ell in (("ell1", ell1), ("ell2", ell2)):
        try:  # a charge whose envelope no sweep's texture can form
            check_charge(ell)
        except ValueError as exc:
            raise ConfigError(str(exc), entries[key][1]) from None
    delta = take("delta", float, 0.0)
    state = HybridStateSpec(ell1, ell2, delta)

    sweep_var = take("sweep", str, "p").lower()
    if sweep_var not in ("p", "qc"):
        raise ConfigError(f"sweep must be 'p' or 'qc', got {sweep_var!r}",
                          entries["sweep"][1] if "sweep" in entries else None)

    has_values = "values" in entries
    has_range = any(k in entries for k in ("start", "stop", "step"))
    if has_values and has_range:
        raise ConfigError("give either 'values' or 'start'/'stop'/'step', not both",
                          entries["values"][1])
    if has_values:
        raw, points_line = entries["values"]
        try:
            points = [float(v) for v in raw.split(",") if v.strip()]
        except ValueError:
            raise ConfigError(f"cannot parse values list {raw!r}", points_line) from None
        if not points:
            raise ConfigError("values list is empty", points_line)
        if not all(math.isfinite(v) for v in points):
            raise ConfigError(f"values must be finite, got {raw!r}", points_line)
    elif has_range:
        for k in ("start", "stop", "step"):
            if k not in entries:
                raise ConfigError(f"range sweep needs 'start', 'stop' and 'step'; missing {k!r}")
        start = take("start", float)
        stop = take("stop", float)
        step = take("step", float)
        points_line = entries["step"][1]  # where a range's generated points are reported
        if step == 0:
            raise ConfigError("step must be nonzero", points_line)
        steps = (stop - start) / step  # inf when the quotient overflows
        if steps < 0:
            raise ConfigError("step direction does not reach stop from start", points_line)
        # the last point never passes stop; 1e-9 of a step forgives rounding short of it
        count = math.floor(min(steps, MAX_SWEEP_POINTS) + 1e-9) + 1
        if count > MAX_SWEEP_POINTS:
            raise ConfigError(f"range sweep has more than {MAX_SWEEP_POINTS} points",
                              points_line)
        points = [start + i * step for i in range(count)]
    else:
        raise ConfigError("sweep needs 'values' or 'start'/'stop'/'step'")

    for v in points:
        if sweep_var == "p" and not 0.0 <= v <= 1.0:
            raise ConfigError(f"sweep value p={v} outside [0, 1]", points_line)
        if sweep_var == "qc" and v < 1.0:
            raise ConfigError(f"sweep value qc={v} below 1", points_line)

    pipeline = take("pipeline", str, "analytic").lower()
    if pipeline not in ("analytic", "tomographic"):
        raise ConfigError(f"pipeline must be 'analytic' or 'tomographic', got {pipeline!r}",
                          entries["pipeline"][1] if "pipeline" in entries else None)

    return SweepConfig(
        state=state,
        sweep_var=sweep_var,
        points=points,
        pipeline=pipeline,
        **{key: setting(key) for key in _SETTINGS},
        out_dir=take("out", str, None),
    )


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _csv_chunks(columns: str, rows):
    """The column line, then one line per row in chunks of text, every value
    formatted like :func:`_fmt` (integers print without a decimal point)."""
    rows = np.asarray(rows, dtype=float).reshape(-1, columns.count(",") + 1)
    line = ",".join(["%.12g"] * rows.shape[1]) + "\n"
    yield columns + "\n"
    for start in range(0, len(rows), _CSV_CHUNK_ROWS):
        chunk = rows[start : start + _CSV_CHUNK_ROWS]
        yield (line * len(chunk)) % tuple(chunk.ravel().tolist())


def _create_output(path) -> None:
    """Create, or empty, the output file ``path`` before the work that fills
    it, so that a path that cannot be written fails first."""
    open(path, "w").close()


def _check_texture_inputs(spec: HybridStateSpec, p: float) -> None:
    """The charge and weight rules of forming the texture of ``spec`` at
    channel weight ``p``, for a command to run before it creates its output."""
    check_charge(spec.ell1)
    check_charge(spec.ell2)
    _check_weight(p)


def _write_csv(path, header_lines, columns: str, rows) -> None:
    with open(path, "w") as fh:
        fh.writelines(h + "\n" for h in header_lines)
        fh.writelines(_csv_chunks(columns, rows))


def _write_grid_csv(targets, columns: str, grid, values) -> None:
    """One row (x, y, values at that point...) per grid point in [i, j] order,
    the same text as :func:`_write_csv` gives those rows.

    ``targets`` is a list of (path, header lines): every file gets its own
    header and the same body.  The grid has only n distinct coordinates per
    axis, so each is formatted once and spliced into the row templates as
    text; only ``values`` go through ``%.12g``, one block of whole grid rows
    at a time, and each block is formatted once for all targets.
    """
    n = grid.samples_per_axis
    values = np.asarray(values, dtype=float).reshape(n, n, -1)
    coords = ["%.12g" % c for c in grid.axis().tolist()]
    y_rows = [y + ",%.12g" * values.shape[2] for y in coords]
    block = max(1, _CSV_CHUNK_ROWS // n)
    with ExitStack() as stack:
        files = [stack.enter_context(open(path, "w")) for path, _ in targets]
        for fh, (_, header_lines) in zip(files, targets):
            fh.writelines(h + "\n" for h in header_lines)
            fh.write(columns + "\n")
        for start in range(0, n, block):
            template = "".join([x + "," + ("\n" + x + ",").join(y_rows) + "\n"
                                for x in coords[start : start + block]])
            text = template % tuple(values[start : start + block].ravel().tolist())
            for fh in files:
                fh.write(text)


def _simulate_record(rho, p: float, source, deterministic: bool, seed: int):
    """Record of ``rho`` at the pair rate, window and duration of ``source``,
    with the noise rate that targets the contrast channel weight ``p`` implies."""
    qc_ceiling = _contrast_ceiling(source.pair_rate, source.window, source.duration)
    target = min(max(contrast_from_p(p), 1.005), qc_ceiling)
    noise = noise_rate_for_contrast(target, pair_rate=source.pair_rate,
                                    window=source.window, duration=source.duration)
    return simulate_counts(
        rho, pair_rate=source.pair_rate, noise_rate_a=noise, noise_rate_b=noise,
        window=source.window, duration=source.duration,
        mode="deterministic" if deterministic else "poisson", seed=seed,
    )


def run_sweep(cfg: SweepConfig, deterministic: bool = False) -> list[SweepRow]:
    """Run the configured sweep; rows come back in the order of the sweep points.

    For a ``qc`` sweep each point is mapped to its channel weight first;
    every row carries both p and the contrast it implies.  Every point's
    state and witnesses come first (a tomographic point's record, Poisson
    seed ``seed`` plus its index, and one :func:`mle_reconstruct` call), then
    every number, from :func:`_sweep_results` or
    :func:`pullback_skyrmion_number`: interleaved with the grid work, each
    point's 4x4 work would start cold.
    """
    grid = cfg.grid()
    weights = [value if cfg.sweep_var == "p" else contrast_to_p(value) for value in cfg.points]
    contrasts = [contrast_from_p(p) for p in weights]  # every weight is checked here
    mats = _isotropic_mix(pure_state(cfg.state).matrix, np.array(weights)[:, None, None])
    if cfg.pipeline == "tomographic":
        coeffs = coeff_field(cfg.state, grid, waist=cfg.waist)
        estimates = []
        for index, (p, rho) in enumerate(zip(weights, mats)):
            record = _simulate_record(rho, p, cfg, deterministic, cfg.seed + index)
            estimates.append(mle_reconstruct(record))
            contrasts[index] = average_quantum_contrast(record)
        mats = np.array([estimate.rho.matrix for estimate in estimates]).reshape(-1, 4, 4)
        converged = [estimate.converged for estimate in estimates]
        bloch = skyrmion_number(bloch_texture(coeffs))
        results = (pullback_skyrmion_number(rho, coeffs, bloch) for rho in mats)
    else:
        converged = [True] * len(weights)
        results = _sweep_results(cfg.state, grid, weights, waist=cfg.waist)
    witnesses = zip(*_witnesses(mats, cfg.state))
    return [
        SweepRow(p, qc, *map(float, values), result.number, result.residual,
                 result.masked_fraction, ok)
        for p, qc, values, result, ok in zip(weights, contrasts, witnesses, results, converged)
    ]


def _sweep_table(rows: list[SweepRow]) -> list[list[float]]:
    return [[getattr(r, key) for key in _SWEEP_COLUMNS.split(",")] for r in rows]


def write_sweep_csv(rows: list[SweepRow], cfg: SweepConfig, path) -> None:
    grid = cfg.grid()
    _write_csv(path, [
        f"# state = ({cfg.state.ell1}, {cfg.state.ell2}, delta={_fmt(cfg.state.delta)})",
        f"# pipeline = {cfg.pipeline}",
        f"# sweep = {cfg.sweep_var}",
        f"# grid = {grid.samples_per_axis} x {grid.samples_per_axis},"
        f" half_width = {_fmt(grid.half_width)}",
        f"# seed = {cfg.seed}",
    ], _SWEEP_COLUMNS, _sweep_table(rows))


@dataclass
class GalleryRow:
    state: HybridStateSpec
    number_clean: float
    number_noisy: float
    residual_clean: float
    residual_noisy: float

    @property
    def matched(self) -> bool:
        return round(self.number_clean) == round(self.number_noisy)


def run_topology_gallery(
    specs: list[HybridStateSpec],
    p: float,
    *,
    samples: int = 256,
    waist: float = 1.0,
    out_dir=None,
) -> list[GalleryRow]:
    """Textures and Skyrmion numbers for each spec, clean and noisy.

    Each state is evaluated at p = 1 and at the supplied channel weight on
    its tail-safe window, by :func:`channel_skyrmion_numbers`; matching
    rounded numbers across the pair is the noise-invariance statement and
    is reported per row.  When ``out_dir`` is set, the normalized textures
    (x, y, S1, S2, S3) and a summary table are written there, one formatted
    body for both files while the noisy result is the clean one; file names
    hold the charges alone, so two specs of the same charges then raise
    ValueError before anything is written.
    """
    _check_weight(p)
    # every state's window, and so its charges, is checked before any file is written
    grids = [suggested_grid(spec, samples, waist=waist) for spec in specs]
    rows = []
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        charges = [(spec.ell1, spec.ell2) for spec in specs]
        twice = [pair for pair in charges if charges.count(pair) > 1]
        if twice:
            raise ValueError(f"two states with charges {twice[0]} would write the same "
                             "texture files")
        out.mkdir(parents=True, exist_ok=True)
    for spec, grid in zip(specs, grids):
        clean, noisy = channel_skyrmion_numbers(
            pure_state(spec), coeff_field(spec, grid, waist=waist), [1.0, p])
        if out is not None:
            targets = [(out / f"texture_{spec.ell1}_{spec.ell2}_{tag}.csv", [
                f"# state = ({spec.ell1}, {spec.ell2}, delta={_fmt(spec.delta)})",
                f"# p = {_fmt(weight)}",
                f"# skyrmion_number = {_fmt(res.number)}",
                f"# half_width = {_fmt(grid.half_width)}",
            ]) for tag, weight, res in (("clean", 1.0, clean), ("noisy", p, noisy))]
            if noisy is clean:
                _write_grid_csv(targets, "x,y,s1,s2,s3", grid, clean.field.vectors)
            else:
                for target, res in zip(targets, (clean, noisy)):
                    _write_grid_csv([target], "x,y,s1,s2,s3", grid, res.field.vectors)
        rows.append(GalleryRow(
            state=spec,
            number_clean=clean.number,
            number_noisy=noisy.number,
            residual_clean=clean.residual,
            residual_noisy=noisy.residual,
        ))
        del clean, noisy  # their textures are not held while the next state's is built
    if out is not None:
        _write_csv(out / "gallery.csv", [f"# p = {_fmt(p)}"],
                   "ell1,ell2,delta,n_clean,n_noisy,residual_clean,residual_noisy,matched",
                   [[r.state.ell1, r.state.ell2, r.state.delta, r.number_clean, r.number_noisy,
                     r.residual_clean, r.residual_noisy, r.matched] for r in rows])
    return rows


# the CSV column line of a convergence table, one column per ConvergenceRow field in order
_CONVERGENCE_COLUMNS = "resolution,skyrmion_number,residual"


def run_convergence(
    spec: HybridStateSpec,
    resolutions,
    *,
    p: float = 1.0,
    half_width: float | None = None,
    waist: float = 1.0,
    out=None,
):
    """Convergence table across resolutions, optionally persisted as CSV
    (the file ``out`` is created before the scan, once the charges, the
    weight, the waist, the resolutions and their windows are checked)."""
    if out is not None:
        _check_texture_inputs(spec, p)
    grids = _convergence_grids(spec, resolutions, half_width, waist)
    if out is not None:
        _create_output(out)
    rows = _convergence_rows(spec, p, grids, waist)
    if out is not None:
        _write_csv(out, [
            f"# state = ({spec.ell1}, {spec.ell2}, delta={_fmt(spec.delta)})",
            f"# p = {_fmt(p)}",
        ], _CONVERGENCE_COLUMNS, [astuple(row) for row in rows])
    return rows


# --- command-line front-end -------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; remap to the validation code
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_state_args(p):
    p.add_argument("--ell1", type=int, required=True, help="first OAM charge")
    p.add_argument("--ell2", type=int, required=True, help="second OAM charge")
    p.add_argument("--delta", type=float, default=0.0, help="relative phase (rad)")
    p.add_argument("--p", type=float, default=1.0, help="isotropic channel weight in [0, 1]")


def _add_settings(p, *names) -> None:
    for name in names:
        cast, default, _, _ = _SETTINGS[name]
        p.add_argument("--" + name.replace("_", "-"), dest=name, type=cast, default=default)


def _check_flags(args) -> None:
    """Hold each flag of a setting that the parsed command has to the setting's condition."""
    for name, (cast, _, condition, holds) in _SETTINGS.items():
        value = getattr(args, name, None)
        flag = "--" + name.replace("_", "-")
        if name == "half_width" and isinstance(value, str):
            try:
                value = args.half_width = _read_half_width(value)
            except ValueError:
                raise ConfigError(f"{flag} must be a number or 'auto', got {value!r}") from None
        if value is None:
            continue
        finite = cast is not float or math.isfinite(value)  # an int may not fit a float
        if not (finite and holds(value)):
            also = " and finite" if cast is float else ""
            raise ConfigError(f"{flag} must be {condition}{also}")


def _read_half_width(raw: str) -> float | None:
    """A written half-width: None for 'auto' in any case, else its float."""
    return None if raw.lower() == "auto" else float(raw)


def _half_width_arg(settings) -> float | None:
    """The half-width of parsed flags or a config in length units, or None for the auto window."""
    return None if settings.half_width is None else settings.half_width * settings.waist


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qskyrmion",
                     description="nonlocal skyrmionic biphoton states through isotropic noise")
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", help="print the density matrix and witnesses")
    _add_state_args(p_state)

    p_sky = sub.add_parser("skyrmion", help="compute one Skyrmion number")
    _add_state_args(p_sky)
    _add_settings(p_sky, "samples")
    p_sky.add_argument("--half-width", dest="half_width", default="auto",
                       help="window half-width in waist units, or 'auto'")
    _add_settings(p_sky, "waist")
    p_sky.add_argument("--density-out", dest="density_out", default=None,
                       help="write the charge density as CSV")

    p_sweep = sub.add_parser("sweep", help="run a configured noise sweep")
    p_sweep.add_argument("--config", required=True, help="key = value config file")
    p_sweep.add_argument("--out", default=None, help="output directory")
    p_sweep.add_argument("--seed", type=int, default=None, help="override config seed")
    p_sweep.add_argument("--deterministic", action="store_true",
                         help="expectation-value counts instead of Poisson samples")

    p_gal = sub.add_parser("gallery", help="textures and N for a list of states")
    p_gal.add_argument("--state", action="append", required=True, metavar="L1,L2[,DELTA]",
                       help="repeatable state spec")
    p_gal.add_argument("--p", type=float, default=0.5)
    _add_settings(p_gal, "samples", "waist")
    p_gal.add_argument("--out", default=None, help="output directory")

    p_tomo = sub.add_parser("tomo", help="simulate and reconstruct one record")
    _add_state_args(p_tomo)
    _add_settings(p_tomo, "pair_rate", "window", "duration", "seed")
    p_tomo.add_argument("--deterministic", action="store_true")
    p_tomo.add_argument("--out", default=None, help="write the record CSV here")

    p_conv = sub.add_parser("converge", help="Skyrmion number convergence scan")
    _add_state_args(p_conv)
    p_conv.add_argument("--resolutions", default="64,128,256",
                        help="comma-separated samples-per-axis list")
    p_conv.add_argument("--half-width", dest="half_width", default="auto")
    _add_settings(p_conv, "waist")
    p_conv.add_argument("--out", default=None, help="output CSV path")

    return parser


def _print_state(rho, target: HybridStateSpec) -> None:
    """The density matrix and its witnesses against the pure target state."""
    witnesses = witness_report(rho, target)
    with np.printoptions(precision=4, suppress=True):
        # + 0j turns the -0 of rounding-level entries into 0, so signs do not flicker
        print(np.round(rho.matrix, 4) + 0j)
    print(f"purity      = {witnesses.purity:.6f}")
    print(f"concurrence = {witnesses.concurrence:.6f}")
    print(f"fidelity    = {witnesses.fidelity:.6f}")


def _cmd_state(args) -> int:
    state = HybridStateSpec(args.ell1, args.ell2, args.delta)
    rho = apply_isotropic_noise(pure_state(state), args.p)
    print(f"state: ({state.ell1}, {state.ell2}), delta={state.delta:g}, p={args.p:g}")
    print("basis: {|l1,P1>, |l1,P2>, |l2,P1>, |l2,P2>}")
    _print_state(rho, state)
    return 0


def _cmd_skyrmion(args) -> int:
    state = HybridStateSpec(args.ell1, args.ell2, args.delta)
    _check_texture_inputs(state, args.p)
    grid = _window_grid(state, args.samples, _half_width_arg(args), waist=args.waist)
    if args.density_out:
        _create_output(args.density_out)
    result = skyrmion_number(texture_for_state(state, args.p, grid, waist=args.waist))
    print(f"N = {result.number:.6f}  (rounded {result.rounded}, "
          f"residual {result.residual:.2e}, masked {result.masked_fraction:.3f})")
    if args.density_out:
        _write_grid_csv([(args.density_out, [
            f"# samples_per_axis = {grid.samples_per_axis}",
            f"# half_width = {_fmt(grid.half_width)}",
            f"# skyrmion_number = {_fmt(result.number)}",
        ])], "x,y,density", grid, result.density)
        print(f"density written to {args.density_out}")
    return 2 if result.residual > RESIDUAL_WARN else 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    if cfg.out_dir is not None:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
    rows = run_sweep(cfg, deterministic=args.deterministic)
    sys.stdout.writelines(_csv_chunks(_SWEEP_COLUMNS, _sweep_table(rows)))
    if cfg.out_dir is not None:
        write_sweep_csv(rows, cfg, out / "sweep.csv")
        print(f"sweep written to {out / 'sweep.csv'}")
    high = [r for r in rows if r.residual > RESIDUAL_WARN]
    return 2 if high or not all(r.converged for r in rows) else 0


def _parse_state_arg(raw: str) -> HybridStateSpec:
    parts = raw.split(",")
    if len(parts) not in (2, 3):
        raise ConfigError(f"state spec must be 'L1,L2' or 'L1,L2,DELTA', got {raw!r}")
    try:
        ell1, ell2 = int(parts[0]), int(parts[1])
        delta = float(parts[2]) if len(parts) == 3 else 0.0
    except ValueError:
        raise ConfigError(f"cannot parse state spec {raw!r}") from None
    return HybridStateSpec(ell1, ell2, delta)


def _cmd_gallery(args) -> int:
    specs = [_parse_state_arg(s) for s in args.state]
    rows = run_topology_gallery(specs, args.p, samples=args.samples,
                                waist=args.waist, out_dir=args.out)
    sys.stdout.writelines(_csv_chunks("ell1,ell2,n_clean,n_noisy,matched", [
        [r.state.ell1, r.state.ell2, r.number_clean, r.number_noisy, r.matched] for r in rows
    ]))
    return 0 if all(r.matched for r in rows) else 2


def _cmd_tomo(args) -> int:
    state = HybridStateSpec(args.ell1, args.ell2, args.delta)
    rho_in = apply_isotropic_noise(pure_state(state), args.p)
    record = _simulate_record(rho_in, args.p, args, args.deterministic, args.seed)
    if args.out:
        _create_output(args.out)
    estimate = mle_reconstruct(record)
    print(f"average quantum contrast = {average_quantum_contrast(record):.4f}")
    _print_state(estimate.rho, state)
    print(f"mle: iterations={estimate.iterations} converged={estimate.converged} "
          f"gap={estimate.gap:.3g}")
    if args.out:
        record_to_csv(record, args.out)
        print(f"record written to {args.out}")
    return 0 if estimate.converged else 2


def _cmd_converge(args) -> int:
    state = HybridStateSpec(args.ell1, args.ell2, args.delta)
    try:
        resolutions = [int(v) for v in args.resolutions.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse resolutions {args.resolutions!r}") from None
    _, _, condition, holds = _SETTINGS["samples"]
    for samples in resolutions:
        if not holds(samples):
            raise ConfigError(f"--resolutions entries must be {condition}, got {samples}")
    rows = run_convergence(state, resolutions, p=args.p, half_width=_half_width_arg(args),
                           waist=args.waist, out=args.out)
    sys.stdout.writelines(_csv_chunks(_CONVERGENCE_COLUMNS, [astuple(row) for row in rows]))
    return 2 if rows[-1].residual > RESIDUAL_WARN else 0


_COMMANDS = {
    "state": _cmd_state,
    "skyrmion": _cmd_skyrmion,
    "sweep": _cmd_sweep,
    "gallery": _cmd_gallery,
    "tomo": _cmd_tomo,
    "converge": _cmd_converge,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, MemoryError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
