"""Test-session set-up, loaded by pytest before any test module."""

import os

# The BLAS thread default of gwtree/__init__.py, applied before the test
# modules import numpy, so the tests factorize as the CLI does.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def pytest_configure(config):
    # a warning fails the test that raised it; set here rather than in
    # pyproject.toml so that it covers these tests alone
    config.addinivalue_line("filterwarnings", "error")
