#!/usr/bin/env python3
"""Run one convret benchmark workload in this process.

    python3 perfbench/run.py --workload train --seed 1 --seconds 17 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory. See perfbench/README.md for the workloads and metrics.
"""

import os
import sys
from pathlib import Path

# Single-threaded BLAS, set before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    sys.path.insert(0, str(SRC))
    try:
        import convret
    except ImportError as exc:
        print(f"perfbench: cannot import convret from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(convret.__file__).resolve().parent != SRC / "convret":
        print(f"perfbench: imported convret from {convret.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import bench
    return bench.main(sys.argv[1:], ROOT / ".perfbench-work")


if __name__ == "__main__":
    sys.exit(main())
