"""Set-up phase of a benchmark run: import aggdiff, then build the kernel of
the workload's main uniform grid.

Run as a script it performs one set-up in a fresh interpreter and prints its
wall time in seconds; ``run.py`` takes its repeated set-up samples this way,
because an import can only be timed once per process:

    python3 perfbench/setup_probe.py N_CELLS R_MAX     # N_CELLS 0: import only

This module imports nothing heavy at load time, so that the import it times
includes numpy and scipy.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Working point of every workload: d = 3, s = 1.25 (m = 7/6, alpha = 1/2).
D, S = 3, 1.25


def pin_blas_threads() -> None:
    """One BLAS thread. Must run before numpy is imported: on a 2-core box
    default threading made the N = 1024 matvec up to 14x slower."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_aggdiff():
    """Import aggdiff (and its CLI) from this checkout's ``src``, never from
    an installed copy."""
    package = SRC / "aggdiff"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no aggdiff sources at {package}")
    sys.path.insert(0, str(SRC))
    import aggdiff
    import aggdiff.cli  # noqa: F401 - the dichotomy workload drives it

    if Path(aggdiff.__file__).resolve().parent != package.resolve():
        raise ImportError(f"aggdiff was imported from {aggdiff.__file__}, not {package}")
    return aggdiff


def build_workspace(ad, n_cells: int, r_max: float, build_kernel: bool) -> dict:
    """Parameters, constants, the main uniform grid and (optionally) its kernel."""
    params = ad.ModelParams(d=D, s=S)
    grid = ad.RadialGrid.uniform(n_cells, r_max, d=D)
    kernel = ad.riesz.build_kernel(grid, params.s) if build_kernel else None
    return {"ad": ad, "params": params, "consts": ad.derived_constants(params),
            "grid": grid, "kernel": kernel}


def main(argv) -> None:
    n_cells, r_max = int(argv[0]), float(argv[1])
    pin_blas_threads()
    start = time.perf_counter()
    ad = import_aggdiff()
    if n_cells:
        build_workspace(ad, n_cells, r_max, build_kernel=True)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1:])
