"""The seeded query stream."""

from e2ebench.querygen import LENGTH, query_stream, universe


def test_same_seed_same_stream():
    assert query_stream(7) == query_stream(7)


def test_different_seeds_differ():
    assert query_stream(7) != query_stream(8)


def test_shape_of_a_stream():
    items = set(universe())
    assert len(items) >= 100
    for seed in range(5):
        stream = query_stream(seed)
        assert len(stream) == LENGTH
        assert set(stream) == items


def test_stream_is_skewed():
    stream = query_stream(0)
    counts = sorted((stream.count(q) for q in set(stream)), reverse=True)
    assert counts[0] > 10 * counts[len(counts) // 2]
