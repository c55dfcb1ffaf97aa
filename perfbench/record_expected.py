"""Write expected.json: the seed-independent answers the benchmark checks.

Run from the repository root only when the package's answers change on
purpose:

    python3 perfbench/record_expected.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads as wl  # noqa: E402


def main():
    doc = {}
    for workload in wl.WORKLOAD_TASKS:
        state = wl.setup(workload, wl.REFERENCE_SEED)
        outputs = wl.run_pass(state).outputs
        doc[workload] = checks.expected_values(state, outputs)
    checks.EXPECTED_PATH.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
