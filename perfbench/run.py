"""Benchmark entry point: three closed-loop workloads over the simulator.

Run from the repository root::

    python3 perfbench/run.py --workload paper_cold --seed 0 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ledger with ``--trace 1``.  The line before
it carries host-noise diagnostics.  See ``perfbench/README.md``.
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

if __name__ == "__main__":
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no simulator sources at {SRC_DIR}; run from a repository checkout")
    # cache compiled bytecode, whatever the caller's environment says,
    # inside the benchmark's own directory: set-up time then measures a
    # normal import, not a compile
    sys.dont_write_bytecode = False
    sys.pycache_prefix = str(BENCH_DIR / ".pycache")
    sys.path.insert(0, str(SRC_DIR))
    from harness import main

    sys.exit(main())
