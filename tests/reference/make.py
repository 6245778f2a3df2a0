"""Rewrite the reference outputs from the commands of ``test_reference.CASES``.

    PYTHONPATH=src python tests/reference/make.py

Every case directory under ``tests/reference/`` is deleted and written again.
"""

import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from test_reference import CASES, REFERENCE, outputs  # noqa: E402


def main() -> None:
    for directory in REFERENCE.iterdir():
        if directory.is_dir():
            shutil.rmtree(directory)
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            for name, text in outputs(case, Path(tmp) / case.name).items():
                path = REFERENCE / case.name / name
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text)


if __name__ == "__main__":
    main()
