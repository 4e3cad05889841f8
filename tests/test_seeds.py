"""The array port of numpy's SeedSequence against numpy itself.

`seeds.seed_words` must give, bit for bit, the PCG64 seed words
`SeedSequence(entropy, spawn_key=key).generate_state(4, np.uint64)` for
every row of a stack, and a generator seeded through `SeedWords` must draw
what `default_rng(SeedSequence(...))` draws.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biozsim.seeds import SeedWords, seed_grid, seed_words

#: Entropy ints of every width the assembly distinguishes: 0, one word,
#: two words at 2**32 and past it, and several words.
ints = st.one_of(st.just(0), st.integers(0, 2**32 - 1), st.just(2**32),
                 st.integers(2**32, 2**64), st.integers(0, 2**130))


def numpy_words(entropy, key=()):
    return np.random.SeedSequence(entropy, spawn_key=key).generate_state(4, np.uint64)


@settings(max_examples=300, deadline=None)
@given(st.lists(ints, min_size=1, max_size=4), st.lists(st.integers(0, 2**32 - 1), max_size=2),
       st.booleans())
def test_words_equal_numpys(entropy, key, bare):
    # a one-int entropy may be given bare or as a sequence of one
    entropy = entropy[0] if bare and len(entropy) == 1 else entropy
    got = seed_words(entropy, key)
    assert got.shape == (1, 4) and got.dtype == np.uint64
    assert got[0].tobytes() == numpy_words(entropy, key).tobytes()


@settings(max_examples=50, deadline=None)
@given(st.lists(ints, min_size=1, max_size=3), st.lists(st.integers(0, 2**32 - 1), max_size=2))
def test_first_normals_equal_numpys(entropy, key):
    ours = np.random.default_rng(SeedWords(seed_words(entropy, key)[0])).standard_normal(64)
    theirs = np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=key))
    assert ours.tobytes() == theirs.standard_normal(64).tobytes()


@pytest.mark.parametrize("master", [0, 7, 2**32 - 1, 2**32, 2**40 + 3, 2**70])
def test_a_sweep_stack_is_its_measure_seeds(master):
    # rows (master, frequency index, repeat), as `bioz sweep` seeds them
    idx, rep = np.repeat(np.arange(11), 10), np.tile(np.arange(10), 11)
    words = seed_words((master, idx, rep), ())
    for row, i, r in zip(words, idx.tolist(), rep.tolist()):
        assert row.tobytes() == numpy_words((master, i, r)).tobytes()


def test_spawned_children_are_their_spawn_keys():
    # as `bioz calibrate` seeds them: child r of child i of the master
    children = [c.spawn(4) for c in np.random.SeedSequence(9).spawn(19)]
    i, r = np.repeat(np.arange(19), 4), np.tile(np.arange(4), 19)
    for row, a, b in zip(seed_words(9, (i, r)), i.tolist(), r.tolist()):
        assert row.tobytes() == children[a][b].generate_state(4, np.uint64).tobytes()


def test_seed_grid_splits_rows_into_groups():
    # 3 groups of 2 repeats, rows group by group, each row's (k, r) its own
    grid = seed_grid(3, 2, lambda k, r: seed_words((3, k, r), ()))
    assert [len(g) for g in grid] == [2, 2, 2]
    for k, group in enumerate(grid):
        for r, seed in enumerate(group):
            assert seed.words.tobytes() == numpy_words((3, k, r)).tobytes()


@pytest.mark.parametrize("entropy,key", [(-1, ()), ((3, -2), ()), (3, (-1,)),
                                         ((3, np.array([0, 2**32])), ()), (3, (np.array([-1]),))])
def test_negative_or_oversized_values_are_rejected(entropy, key):
    with pytest.raises(ValueError):
        seed_words(entropy, key)


def test_seed_words_serve_pcg64_only():
    seed = SeedWords(seed_words(1, ())[0])
    with pytest.raises(ValueError):
        seed.generate_state(624, np.uint32)  # as MT19937 would ask
    assert seed.generate_state(4, np.uint64) is seed.words
