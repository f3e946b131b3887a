from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oraclebench import seeds
from oraclebench.seeds import SeedPath, as_generator


def test_same_path_same_stream():
    a = SeedPath(7).child("n", 3).child("m", 5)
    b = SeedPath(7).child("n", 3).child("m", 5)
    assert np.array_equal(a.rng().standard_normal(16), b.rng().standard_normal(16))


def test_sibling_paths_differ():
    root = SeedPath(7)
    x = root.child("n", 3).rng().standard_normal(8)
    y = root.child("n", 4).rng().standard_normal(8)
    z = root.child("m", 3).rng().standard_normal(8)
    assert not np.allclose(x, y)
    assert not np.allclose(x, z)


def test_evaluation_order_irrelevant():
    # lazily derived siblings must not depend on which one was drawn first
    first = SeedPath(1).child("draw", 0).rng().standard_normal(4)
    _ = SeedPath(1).child("draw", 1).rng().standard_normal(4)
    again = SeedPath(1).child("draw", 0).rng().standard_normal(4)
    assert np.array_equal(first, again)


def test_describe():
    assert SeedPath(42).describe() == "42"
    assert SeedPath(42).child("n", 2).child("m", 0).describe() == "42/n:2/m:0"


def test_empty_label_rejected():
    with pytest.raises(ValueError):
        SeedPath(0).child("")


@given(
    master=st.integers(min_value=-(2**63), max_value=2**63 - 1),
    labels=st.lists(
        st.tuples(st.text(min_size=1, max_size=8), st.integers(0, 2**30)), max_size=4
    ),
)
@settings(deadline=None, max_examples=60)
def test_mixed_is_deterministic_uint64(master, labels):
    p = SeedPath(master)
    for lab, idx in labels:
        p = p.child(lab, idx)
    v = p.mixed()
    assert 0 <= v < 2**64
    assert v == p.mixed()


def test_as_generator_accepts_all_forms():
    g1 = as_generator(SeedPath(3))
    g2 = as_generator(123)
    g3 = as_generator(np.random.default_rng(5))
    for g in (g1, g2, g3):
        assert isinstance(g, np.random.Generator)


def _random_paths(n: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    letters = list("abcdefghij\u00e9\u4e2d")
    paths = []
    for _ in range(n):
        p = SeedPath(int(rng.integers(-(2**63), 2**63)))
        for _ in range(rng.integers(0, 5)):
            p = p.child("".join(rng.choice(letters, rng.integers(1, 6))), int(rng.integers(0, 2**40)))
        paths.append(p)
    return paths


def test_batch_generators_equal_the_per_path_generators():
    paths = _random_paths(2000, 1)
    for p, g in zip(paths, seeds.generators(paths), strict=True):
        want = p.rng()
        assert g.bit_generator.state == want.bit_generator.state
        assert g.standard_normal() == want.standard_normal()
    assert seeds.generators([]) == []


def test_vectorised_seed_mixing_equals_seed_sequence():
    # a digest below 2^32 is one entropy word for SeedSequence, two here
    ms = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    ms += np.random.default_rng(2).integers(0, 2**64, 2000, dtype=np.uint64, endpoint=False).tolist()
    words = seeds._seed_words(np.array(ms, dtype=np.uint64))
    assert words.shape == (len(ms), 4) and words.dtype == np.uint64
    for m, row in zip(ms, words):
        assert np.array_equal(row, np.random.SeedSequence(m).generate_state(4, np.uint64)), m


def test_normals_rows_equal_each_paths_draws():
    paths = _random_paths(300, 3)
    block = seeds.normals(paths, 37)
    assert block.shape == (300, 37)
    for p, row in zip(paths, block):
        assert np.array_equal(row, p.rng().standard_normal(37))
        # two successive draws read the same row
        g = p.rng()
        assert np.array_equal(row, np.concatenate([g.standard_normal(12), g.standard_normal(25)]))
    assert seeds.normals([], 5).shape == (0, 5)
