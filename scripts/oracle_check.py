"""Cross-validate the closed forms against the truncated Fock-space oracle.

Runs the default validation cases (thermal at 1e-10, displaced at 1e-6) at
per-mode truncation 96 and exits nonzero on any deviation.  The oracle sums
the trace argument over the exact thermal spectra and the eigh-built
displacement unitaries; the JSON on stdout gives each case's deviation and
the number of roundoff entries it clamped (above order one only).
"""

import sys

from petz_renyi.cli import main


def run():
    return main(["validate", "--dim", "96"])


if __name__ == "__main__":
    sys.exit(run())
