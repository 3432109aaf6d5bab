"""stream_normals reproduces numpy's per-index streams bit for bit.

The rows rely on NEP 19's promise that SeedSequence and PCG64 streams stay
stable across numpy versions.  A numpy release that broke it would fail
these tests first, not the goldens or the pinned acceptance numbers.
"""
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from modbanach.sampling import rng_stream, stream_normals

SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 200]
INDICES = [0, 1, 7, 999]


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("width", [1, 16, 36])
@pytest.mark.parametrize("seed", SEEDS)
def test_rows_match_default_rng(seed, width):
    # 2**32 - 1 is one entropy word, 2**32 and 2**63 two, and 2**200 seven:
    # with the index, more words than the pool holds
    rows = stream_normals(seed, 1000, width)
    assert rows.shape == (1000, width)
    for i in INDICES:
        want = np.random.default_rng([seed, i]).standard_normal(width)
        assert np.array_equal(_bits(rows[i]), _bits(want)), (seed, i)


def test_row_is_any_split_of_the_stream_draws():
    rows = stream_normals(11, 5, 12)
    for i, row in enumerate(rows):
        rng = rng_stream(11, i)
        parts = [rng.standard_normal(w) for w in (3, 1, 8)]
        assert np.array_equal(_bits(row), _bits(np.concatenate(parts)))


def test_seed_types_and_empty_results():
    assert np.array_equal(_bits(stream_normals(np.int64(5), 3, 4)), _bits(stream_normals(5, 3, 4)))
    assert stream_normals(3, 0, 7).shape == (0, 7)
    assert stream_normals(3, 4, 0).shape == (4, 0)


def test_negative_seed_is_rejected_like_default_rng():
    with pytest.raises(ValueError):
        np.random.default_rng([-1, 0])
    with pytest.raises(ValueError, match="non-negative"):
        stream_normals(-1, 3, 2)


def test_calls_in_threads_get_the_serial_rows():
    # each call owns its generator, as the verify thread pool needs
    seeds = list(range(16))
    serial = [stream_normals(s, 200, 6) for s in seeds]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda s: stream_normals(s, 200, 6), seeds))
    for a, b in zip(serial, threaded):
        assert np.array_equal(_bits(a), _bits(b))
