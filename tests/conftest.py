"""Shared fixtures."""
import pytest

from oraclebench import subroutines


@pytest.fixture
def blas_counts():
    """Set numpy's bundled OpenBLAS to two threads; yield a reader of its count.

    The reader returns {"numpy": thread count}; that build is the only BLAS
    the library calls. The count is restored afterwards.
    """
    api = subroutines._openblas_threads()
    if api is None:
        pytest.skip("numpy bundles no OpenBLAS here")
    get, put = api
    before = get()
    put(2)
    try:
        yield lambda: {"numpy": get()}
    finally:
        put(before)
