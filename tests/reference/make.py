"""Rewrite the reference outputs from the commands of ``test_reference.CASES``.

    PYTHONPATH=src python tests/reference/make.py

Every case directory under ``tests/reference/`` is deleted and written again.
Then the columns that moved against the files it replaced are printed, each
with its largest absolute and relative move and its tolerance, whether or
not the move is within it: the movement a change that regenerates the files
records.
"""

import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from test_reference import CASES, REFERENCE, movement, outputs, report, stored  # noqa: E402


def main() -> None:
    committed = stored()
    for directory in REFERENCE.iterdir():
        if directory.is_dir():
            shutil.rmtree(directory)
    produced = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            for name, text in outputs(case, Path(tmp) / case.name).items():
                path = REFERENCE / case.name / name
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text)
                produced[f"{case.name}/{name}"] = text
    problems, moves = movement(committed, produced)
    print(report(problems, moves) if problems or moves else "no output moved")


if __name__ == "__main__":
    main()
