"""Cross-validate the closed forms against the truncated Fock-space oracle.

Runs the default validation cases (thermal at 1e-10, displaced at 1e-6) at
per-mode truncation 96 and exits nonzero on any deviation.  The oracle sums
the trace argument over the exact thermal spectra and the exact Fock-basis
entries of the relative Weyl unitary, from one Laguerre recurrence; the JSON
on stdout gives each case's deviation.  No entry is clamped, so no clamp
count is printed; ``OracleTrace.clamped`` is always 0 and stays only for the
benchmark's traced oracle loop, which reads it.
"""

import sys

from petz_renyi.cli import main


def run():
    return main(["validate", "--dim", "96"])


if __name__ == "__main__":
    sys.exit(run())
