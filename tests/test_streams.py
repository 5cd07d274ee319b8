import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levygof.streams import RandomStream, _SeedWords, _seed_words


def test_same_key_same_bytes():
    a = RandomStream(123, 7).generator().random(1000)
    b = RandomStream(123, 7).generator().random(1000)
    assert a.tobytes() == b.tobytes()


def test_different_index_different_stream():
    a = RandomStream(123, 0).generator().random(100)
    b = RandomStream(123, 1).generator().random(100)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "7"])
def test_invalid_seed_rejected(seed):
    with pytest.raises(ValueError):
        RandomStream(seed)


def test_stream_outside_a_block_keeps_seed_sequence():
    want = np.random.Generator(np.random.PCG64(np.random.SeedSequence([123, 7]))).random(100)
    stream = RandomStream(123, 7)
    assert stream._words is None
    assert stream.generator().random(100).tobytes() == want.tobytes()


# Seeds and ranges where the entropy changes length: a value >= 2**32 takes two
# words, 0 takes one, and the last index is 2**64 - 1.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
EDGE_RANGES = [(0, 5), (2**32 - 3, 2**32 + 3), (2**64 - 4, 2**64), (9, 9), (2**64, 2**64)]


def seed_sequence_words(seed, start, stop):
    rows = [np.random.SeedSequence([seed, i]).generate_state(4, np.uint64)
            for i in range(start, stop)]
    return np.array(rows, dtype=np.uint64).reshape(-1, 4)


@pytest.mark.parametrize("seed", EDGE_SEEDS)
@pytest.mark.parametrize("start, stop", EDGE_RANGES)
def test_port_matches_seed_sequence_at_word_boundaries(seed, start, stop):
    got = _seed_words(seed, start, stop)
    assert got.dtype == np.uint64
    assert np.array_equal(got, seed_sequence_words(seed, start, stop))


@settings(max_examples=150, deadline=None)
@given(seed=st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1)),
       start=st.one_of(st.integers(0, 2**64), st.integers(2**32 - 20, 2**32 + 20),
                       st.integers(2**64 - 20, 2**64)),
       length=st.integers(0, 24))
def test_port_matches_seed_sequence(seed, start, length):
    stop = min(start + length, 2**64)
    assert np.array_equal(_seed_words(seed, start, stop), seed_sequence_words(seed, start, stop))


@pytest.mark.parametrize("seed, start", [(0, 0), (7, 2**32 - 10), (2**40 + 3, 500), (2**64 - 1, 0),
                                         (2**64 - 1, 2**64 - 20)])  # ends at the last stream
def test_block_streams_draw_the_same_bytes(seed, start):
    block = RandomStream(seed, start).block(20)
    assert [s.stream_index for s in block] == list(range(start, start + 20))
    for s in block:
        alone = RandomStream(seed, s.stream_index)
        assert s == alone and hash(s) == hash(alone) and repr(s) == repr(alone)
        g, h = s.generator(), alone.generator()
        for draw in (lambda r: r.standard_normal(31),
                     lambda r: r.gamma(0.3, size=40),       # rejection: a variable draw count
                     lambda r: r.wald(1.0, 0.5, size=40)):
            assert draw(g).tobytes() == draw(h).tobytes()


def test_block_generators_held_at_once_do_not_share_state():
    a, b = RandomStream(5, 0).block(2)
    ga, gb, ga_again = a.generator(), b.generator(), a.generator()
    head, b_head, tail = ga.random(3), gb.random(4), ga.random(3)
    want_a = RandomStream(5, 0).generator().random(6)
    want_b = RandomStream(5, 1).generator().random(6)
    assert np.concatenate([head, tail]).tobytes() == want_a.tobytes()
    assert np.concatenate([b_head, gb.random(2)]).tobytes() == want_b.tobytes()
    assert ga_again.random(6).tobytes() == want_a.tobytes()


@pytest.mark.parametrize("seed, start", [(0, -1), (-1, 0), (2**64, 0), (0, 0.5)])
def test_bad_seed_or_start_is_refused_before_a_block(seed, start):
    with pytest.raises(ValueError):
        RandomStream(seed, start)


@pytest.mark.parametrize("start, rows", [(5, -1), (0, "3"), (0, 0.5), (2**64 - 1, 2),
                                         (2**64 - 4, 5)])
def test_block_rejects_bad_ranges(start, rows):
    with pytest.raises(ValueError):
        RandomStream(0, start).block(rows)


def test_empty_block():
    assert RandomStream(3, 7).block(0) == []
    assert RandomStream(3, 2**64 - 1).block(0) == []


def test_block_of_numpy_integers_matches_python_ints():
    got = RandomStream(np.uint64(2**40 + 3), np.int64(9)).block(np.int32(4))
    want = RandomStream(2**40 + 3, 9).block(4)
    assert got == want
    for g, w in zip(got, want):
        assert np.array_equal(g._words, w._words)
        assert g.generator().random(8).tobytes() == w.generator().random(8).tobytes()


@pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (8, np.uint64), (2, np.uint64),
                                            (8, np.uint32)])
def test_seed_words_serve_only_pcg64s_request(n_words, dtype):
    words = _seed_words(3, 0, 1)[0]
    assert _SeedWords(words).generate_state(4, np.uint64) is words
    with pytest.raises(ValueError):
        _SeedWords(words).generate_state(n_words, dtype)
