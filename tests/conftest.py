"""Test-session set-up, loaded by pytest before any test module."""

import os

# The BLAS thread default of gwtree/__init__.py, applied before the test
# modules import numpy, so the tests factorize as the CLI does.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
