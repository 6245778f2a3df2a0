"""Texture and density CSVs equal a row-by-row reference, character for character.

The reference builds every row from ``grid.mesh()`` and formats each value
with ``format(x, ".12g")``.  The grids include sizes that do not divide the
writer's block of rows, and a single-row block.
"""

import numpy as np
import pytest

from qskyrmion import GridSpec, HybridStateSpec, skyrmion_number, texture_for_state
from qskyrmion import cli
from qskyrmion.cli import main, run_topology_gallery


def reference_text(header, columns, grid, values):
    X, Y = grid.mesh()
    rows = np.column_stack([X.ravel(), Y.ravel(), np.asarray(values).reshape(X.size, -1)])
    lines = [",".join(format(float(v), ".12g") for v in row) for row in rows]
    return "\n".join([*header, columns, *lines]) + "\n"


@pytest.mark.parametrize("samples", [16, 17, 97, 129])
def test_gallery_textures_match_reference(tmp_path, samples):
    # p = 0 makes every noisy row (x, y, 0, 0, 0)
    specs = [HybridStateSpec(0, -2, 0.7), HybridStateSpec(2, -5)]
    run_topology_gallery(specs, 0.0, samples=samples, out_dir=tmp_path)
    for spec in specs:
        for tag, p in (("clean", 1.0), ("noisy", 0.0)):
            field = texture_for_state(spec, p, samples=samples)
            header = [
                f"# state = ({spec.ell1}, {spec.ell2}, delta={spec.delta:.12g})",
                f"# p = {p:.12g}",
                f"# skyrmion_number = {skyrmion_number(field).number:.12g}",
                f"# half_width = {field.grid.half_width:.12g}",
            ]
            text = (tmp_path / f"texture_{spec.ell1}_{spec.ell2}_{tag}.csv").read_text()
            assert text == reference_text(header, "x,y,s1,s2,s3", field.grid, field.vectors)
            if p == 0.0:
                assert not field.vectors.any()


@pytest.mark.parametrize("chunk_rows", [1024, 200, 1])  # blocks of 10, 2 and 1 grid rows
def test_density_export_matches_reference(tmp_path, capsys, monkeypatch, chunk_rows):
    monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", chunk_rows)
    path = tmp_path / "density.csv"
    main(["skyrmion", "--ell1", "0", "--ell2", "3", "--delta", "0.4", "--p", "0.6",
          "--samples", "97", "--half-width", "6", "--density-out", str(path)])
    grid = GridSpec(6.0, 97)
    result = skyrmion_number(texture_for_state(HybridStateSpec(0, 3, 0.4), 0.6, grid))
    header = [
        "# samples_per_axis = 97",
        "# half_width = 6",
        f"# skyrmion_number = {result.number:.12g}",
    ]
    assert path.read_text() == reference_text(header, "x,y,density", grid, result.density)
