"""Rewrite the golden files that ``tests/test_golden.py`` compares against.

    python tests/golden/regen.py

Runs every case of ``tests/test_golden.py`` with the checkout's ``src/`` and
writes its output files to ``tests/golden/<case>/``, plus the Python and
numpy versions to ``tests/golden/versions.json``.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]

import test_golden as golden  # noqa: E402


def main() -> None:
    for case in golden.CASES:
        target = HERE / case
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir()
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in golden.produce(case, Path(tmp)).items():
                (target / name).write_bytes(data)
        print(f"wrote {target}")
    doc = json.dumps(golden.versions(), indent=2, sort_keys=True) + "\n"
    (HERE / "versions.json").write_text(doc)


if __name__ == "__main__":
    main()
