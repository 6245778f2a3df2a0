"""Gallery texture files are named by the charges alone, so two states with the
same charges cannot both be written: the gallery refuses them before it
creates its directory."""

import pytest

from qskyrmion import HybridStateSpec
from qskyrmion.cli import main, run_topology_gallery

SAME_CHARGES = [HybridStateSpec(0, 2), HybridStateSpec(0, 1), HybridStateSpec(0, 1, 0.7)]


def test_same_charges_are_refused_before_anything_is_written(tmp_path):
    out = tmp_path / "gallery"
    with pytest.raises(ValueError, match=r"charges \(0, 1\)"):
        run_topology_gallery(SAME_CHARGES, 0.5, samples=16, out_dir=out)
    assert not out.exists()


def test_same_charges_without_files_are_two_rows():
    rows = run_topology_gallery(SAME_CHARGES, 0.5, samples=16)
    assert [row.state for row in rows] == SAME_CHARGES


def test_cli_same_charges_exit_1_with_one_error_line(tmp_path, capsys):
    out = tmp_path / "gallery"
    argv = ["gallery", "--state", "0,1", "--state", "0,1,0.7", "--samples", "16",
            "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: two states with charges (0, 1) would write the same texture files"]
    assert not out.exists()
