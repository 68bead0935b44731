"""The set-up every workload pays before its first operation.

Run as a script it starts from a fresh interpreter, imports gwtree and its
command line, and fills the lazy tables and the BLAS thread pool; the
benchmark times the whole process as `setup_s`.  run.py calls warm() in
its own process too, so no timed pass pays these costs.
"""

from __future__ import annotations

import os
import sys

# the benchmark directory sits at the root of the checkout, beside src/
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def import_program():
    """Import gwtree from the checkout's src/, never from elsewhere; raises
    ImportError when the checkout holds no program."""
    if not os.path.isfile(os.path.join(SRC, "gwtree", "__init__.py")):
        raise ImportError(f"no gwtree package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import gwtree
    import gwtree.cli
    return gwtree


def warm() -> None:
    """Import the program and fill what it computes lazily on first use."""
    gw = import_program()
    import numpy as np
    gw.extinction_prob(2.0)
    gw.pgw1_log_degree_constant()
    gw.sample_coupled_trees(1.5, 2.0, 1, 0)  # offspring and bush-size tables
    iu = np.triu_indices(64, k=1)
    gw.log_spanning_trees(gw.SparseGraph(64, np.stack(iu, axis=1)))  # BLAS


if __name__ == "__main__":
    warm()
