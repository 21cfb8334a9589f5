"""Capture the reference tables that `closed_form_tables` checks at the default seed.

    python3 bench/capture_reference.py

Run only at a commit whose outputs are known good: the file it writes is
what later commits are compared against (within 1e-12 absolute).
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import REFERENCE, capture_reference  # noqa: E402

if __name__ == "__main__":
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=ROOT / ".bench_out"))
    try:
        tables = capture_reference(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(tables, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")
