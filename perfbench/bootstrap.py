"""Process set-up shared by run.py and setup_probe.py.

Call prepare() before anything imports numpy: BLAS reads its thread
count once, at load.
"""

import os
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def prepare():
    """Pin BLAS to one thread and import blockpotts from this checkout's src/.

    Exits with a message when the checkout holds no blockpotts source, so
    the benchmark never measures an installed copy by mistake.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    if not (SRC / "blockpotts" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no blockpotts source under {SRC}")
    sys.path.insert(0, str(SRC))
    import blockpotts

    if Path(blockpotts.__file__).resolve().parent != SRC / "blockpotts":
        raise SystemExit(f"perfbench: imported blockpotts from {blockpotts.__file__}, "
                         f"not from {SRC}")
