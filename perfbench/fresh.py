"""Fresh-process timings: package import, then the first call a workload makes.

Run as ``python3 perfbench/fresh.py <grid|oracle|cli|scipy> [rho.json sigma.json]``
with the package on ``PYTHONPATH``.  Prints one JSON line with ``import_s``
and, except for ``scipy``, ``first_call_s``.
"""

import contextlib
import io
import json
import sys
import time

clock = time.perf_counter


def main(argv):
    what = argv[0]
    if what == "scipy":
        import numpy  # noqa: F401  (numpy is timed apart from scipy.special)

        t0 = clock()
        import scipy.special  # noqa: F401

        return {"import_s": clock() - t0}
    t0 = clock()
    if what == "cli":
        from petz_renyi.cli import main as cli_main
    else:
        import petz_renyi as pr
    t1 = clock()
    if what == "grid":
        rho = pr.DisplacedThermalSpec(pr.ModeVector([1.0]), [1.0])
        sigma = pr.DisplacedThermalSpec(pr.ModeVector([2.0]), [0j])
        pr.d_alpha_displaced(rho, sigma, 1.5)
    elif what == "oracle":
        rho = pr.DisplacedThermalSpec(pr.ModeVector([1.0]), [1.0])
        sigma = pr.DisplacedThermalSpec(pr.ModeVector([2.0]), [0j])
        pr.oracle_trace(rho, sigma, 0.3, 96)
    elif what == "cli":
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli_main(["threshold", argv[1], argv[2]])
    else:
        raise SystemExit(f"unknown target {what!r}")
    return {"import_s": t1 - t0, "first_call_s": clock() - t1}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
