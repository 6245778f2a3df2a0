"""The gallery builds one texture per state, and its noisy file is the clean one.

Isotropic noise scales (S1, S2, S3) by p, so the unit texture at weight p is
that of p = 1 with a degenerate set that can only grow.  The gallery builds
each state's texture once and writes the noisy file from it: byte for byte
the clean body while the set is unchanged, the clean body with the grown
set zeroed while it grows, all zeros once the texture collapses.
"""

import numpy as np
import pytest

from qskyrmion import (
    GridSpec,
    HybridStateSpec,
    UnitVectorField,
    coeff_field,
    lgmodes,
    normalize_stokes,
    pure_state,
    skyrmion_number,
    stokes_field,
    stokesfield,
    topology,
)
from qskyrmion import cli
from qskyrmion.cli import _write_grid_csv, run_topology_gallery

SPECS = [HybridStateSpec(0, -2, 0.4), HybridStateSpec(2, -5)]


class CountingCalls:
    """Counts calls of the named layer functions through every module binding them."""

    def __init__(self, monkeypatch, *names):
        self.calls = dict.fromkeys(names, 0)
        for name in names:
            for module in (lgmodes, stokesfield, topology, cli):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, self._counting(name, getattr(module, name)))

    def _counting(self, name, fn):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return counted


def test_gallery_builds_one_texture_per_state(tmp_path, monkeypatch):
    # topology._density builds every density, through skyrmion_density
    names = ("coeff_field", "stokes_field", "normalize_stokes", "_density")
    counter = CountingCalls(monkeypatch, *names)
    run_topology_gallery(SPECS, 0.5, samples=32, out_dir=tmp_path)
    assert counter.calls == dict.fromkeys(names, len(SPECS))


def read_texture(path):
    lines = path.read_text().splitlines(keepends=True)
    return lines[:4], lines[4:]


@pytest.mark.parametrize("p", [0.5, 0.3, 1e-3])
def test_noisy_texture_body_is_the_clean_body(tmp_path, p):
    rows = run_topology_gallery(SPECS, p, samples=32, out_dir=tmp_path)
    for spec, row in zip(SPECS, rows):
        stem = tmp_path / f"texture_{spec.ell1}_{spec.ell2}"
        clean_header, clean_body = read_texture(stem.with_name(stem.name + "_clean.csv"))
        noisy_header, noisy_body = read_texture(stem.with_name(stem.name + "_noisy.csv"))
        assert noisy_body == clean_body
        assert row.number_noisy == row.number_clean
        assert clean_header[1:3] == ["# p = 1\n",
                                     f"# skyrmion_number = {row.number_clean:.12g}\n"]
        assert noisy_header[1:3] == [f"# p = {p:.12g}\n",
                                     f"# skyrmion_number = {row.number_noisy:.12g}\n"]
        assert noisy_header[::3] == clean_header[::3]  # state and half-width


@pytest.mark.parametrize("p", [0.0, 1e-7])
def test_collapsed_noisy_texture_is_all_zero(tmp_path, p):
    rows = run_topology_gallery(SPECS, p, samples=32, out_dir=tmp_path)
    for spec, row in zip(SPECS, rows):
        assert row.number_noisy == 0.0 and row.residual_noisy == 0.0
        header, body = read_texture(tmp_path / f"texture_{spec.ell1}_{spec.ell2}_noisy.csv")
        assert header[2] == "# skyrmion_number = 0\n"
        grid = topology.suggested_grid(spec, 32)
        x = ["%.12g" % c for c in grid.axis()]
        assert body[1:] == [f"{xi},{yj},0,0,0\n" for xi in x for yj in x]
    table = (tmp_path / "gallery.csv").read_text().splitlines()[2:]
    assert [line.split(",")[4] for line in table] == ["0", "0"]


def test_partly_grown_noisy_texture_zeroes_only_the_new_points(tmp_path):
    # a pure state's |S| is 1 to a few ulps, so at p = DEGENERACY_EPS / |S|
    # with |S| the median of the measured norms the threshold splits the
    # texture (at 32^2, 12 % -> 44 %, 0 -> 41 % and 0 -> 41 % of the points)
    specs = [HybridStateSpec(0, 1), *SPECS]
    textures = []
    for spec in specs:
        coeffs = coeff_field(spec, topology.suggested_grid(spec, 32))
        raw = stokes_field(pure_state(spec), coeffs)
        textures.append((coeffs, raw, normalize_stokes(raw)))
    norms = np.concatenate([raw.vector_norm()[~clean.mask] for _, raw, clean in textures])
    p = stokesfield.DEGENERACY_EPS / np.median(norms)
    rows = run_topology_gallery(specs, p, samples=32, out_dir=tmp_path)
    for spec, row, (coeffs, raw, clean) in zip(specs, rows, textures):
        mask = (p * raw.vector_norm() < stokesfield.DEGENERACY_EPS) | clean.mask
        grown = (mask & ~clean.mask).ravel()
        assert 0 < grown.sum() and not mask.all()
        stem = tmp_path / f"texture_{spec.ell1}_{spec.ell2}"
        _, clean_body = read_texture(stem.with_name(stem.name + "_clean.csv"))
        _, noisy_body = read_texture(stem.with_name(stem.name + "_noisy.csv"))
        assert len(noisy_body) == len(clean_body) == grown.size + 1
        assert noisy_body[0] == clean_body[0]
        for new, clean_row, noisy_row in zip(grown, clean_body[1:], noisy_body[1:]):
            if new:
                assert noisy_row == ",".join(clean_row.split(",")[:2] + ["0,0,0\n"])
            else:
                assert noisy_row == clean_row
        vectors = np.where(mask[..., None], 0.0, clean.vectors)
        ref = skyrmion_number(UnitVectorField(vectors, mask, coeffs.grid))
        assert (row.number_noisy, row.residual_noisy) == (ref.number, ref.residual)


def test_multi_target_writer_shares_one_body(tmp_path, monkeypatch):
    # blocks of 200 // 17 = 11 grid rows, which do not divide the 17 rows
    monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", 200)
    grid = GridSpec(3.0, 17)
    values = np.random.default_rng(5).normal(size=(17, 17, 2))
    targets = [(tmp_path / "a.csv", ["# a"]), (tmp_path / "b.csv", ["# b", "# second"])]
    _write_grid_csv(targets, "x,y,u,v", grid, values)
    _write_grid_csv([(tmp_path / "single.csv", [])], "x,y,u,v", grid, values)
    single = (tmp_path / "single.csv").read_text()
    X, Y = grid.mesh()
    lines = [",".join(format(float(v), ".12g") for v in row)
             for row in np.column_stack([X.ravel(), Y.ravel(), values.reshape(-1, 2)])]
    assert single == "\n".join(["x,y,u,v", *lines]) + "\n"
    assert (tmp_path / "a.csv").read_text() == "# a\n" + single
    assert (tmp_path / "b.csv").read_text() == "# b\n# second\n" + single
