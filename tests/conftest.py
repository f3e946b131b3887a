"""Shared fixtures."""
import pytest

from oraclebench import subroutines


@pytest.fixture
def blas_counts():
    """Set every bundled OpenBLAS to two threads; yield a reader of their counts.

    The reader returns {package: thread count} for each library found, so an
    assertion on it covers numpy's and scipy's builds alike. The counts are
    restored afterwards.
    """
    apis = subroutines._openblas_threads()
    if not apis:
        pytest.skip("neither numpy nor scipy bundles OpenBLAS here")
    before = {name: get() for name, (get, _) in apis.items()}
    for _, put in apis.values():
        put(2)
    try:
        yield lambda: {name: get() for name, (get, _) in apis.items()}
    finally:
        for name, (_, put) in apis.items():
            put(before[name])
