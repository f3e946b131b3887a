"""The crossing recorder: nested captures record and unwind independently."""
import numpy as np

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
