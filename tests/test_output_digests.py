"""tests/output_digests.py, the byte-identity check of the catalogued outputs, gives the same lines run after run."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "output_digests.py"


def test_digests_of_a_subset_repeat_line_for_line():
    argv = [sys.executable, str(SCRIPT), "--only", "report 4/3", "--only", "subspace 8/7", "--only", "table3"]
    runs = [subprocess.run(argv, capture_output=True, text=True, check=True).stdout for _ in range(2)]
    assert runs[0] == runs[1]
    lines = runs[0].splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S.*", line) for line in lines)
    assert [line[66:] for line in lines] == [
        "report 4/3",
        "table3 all",
        "subspace 8/7 json",
        "subspace 8/7 text",
        "full_report 4/3@1089",
        "full_report 4/3@2025",
    ]
