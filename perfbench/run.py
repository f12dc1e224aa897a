"""Benchmark command.

    python3 perfbench/run.py --workload {solve,transient,shifted,exact,all} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from src/.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is nonzero when a correctness
gate fails.
"""

import os
import sys
from pathlib import Path

# BLAS stays on one thread in this process (the LAPACK yardstick is the only
# BLAS user); set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]
sys.dont_write_bytecode = True

if __name__ == "__main__":
    from perfbench.harness import main
    sys.exit(main())
