"""The crossing recorder and the serial-BLAS guard: both nest and unwind independently."""
import sys
import threading

import numpy as np
import pytest

from oraclebench import subroutines


def _labels(entries) -> list:
    return [e["label"] for e in entries]


def test_nested_captures_unwind_by_identity():
    depth = len(subroutines._stack)
    with subroutines.capture() as outer:
        with subroutines.capture() as inner:
            subroutines.eigh(np.eye(3), label="inside")
        # outer and inner are equal lists here; only the inner one may go
        subroutines.eigh(np.eye(2), label="between")
    assert _labels(outer) == ["inside", "between"]
    assert _labels(inner) == ["inside"]
    assert len(subroutines._stack) == depth
    subroutines.svd(np.eye(2), label="after")
    assert _labels(inner) == ["inside"] and len(outer) == 2


def test_one_blas_thread_nests_and_restores():
    api = subroutines._openblas_threads()
    if api is None:
        pytest.skip("numpy does not bundle OpenBLAS here")
    get, put = api
    before = get()
    put(2)
    try:
        with subroutines.one_blas_thread():
            assert get() == 1
            with subroutines.one_blas_thread():
                assert get() == 1
            # the inner exit must not restore while the outer block still runs
            assert get() == 1
            subroutines.eigh(np.eye(3), label="serial")
        assert get() == 2
    finally:
        put(before)


def test_one_blas_thread_holds_under_overlapping_threads():
    api = subroutines._openblas_threads()
    if api is None:
        pytest.skip("numpy does not bundle OpenBLAS here")
    get, put = api
    before, interval = get(), sys.getswitchinterval()
    put(2)
    outside = []

    def churn():
        for _ in range(200):
            with subroutines.one_blas_thread():
                if get() != 1:
                    outside.append(get())

    workers = [threading.Thread(target=churn) for _ in range(6)]
    sys.setswitchinterval(1e-5)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
        assert not any(w.is_alive() for w in workers)
        # a lost update in the user count would restore too early or never
        assert outside == []
        assert get() == 2
    finally:
        sys.setswitchinterval(interval)
        put(before)
