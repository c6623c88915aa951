"""Seeded, Zipf-skewed tune-query stream for the ``tune-service`` workload.

The universe is every fast-ladder query over 6 routines × N ∈ {4096, 5120,
…, 16384} × {xkblas, cublas-xt}: 156 distinct queries.  A seeded
permutation ranks them; draws follow Zipf(:data:`SKEW`) over the ranks.  The
stream holds every query of the universe at least once — its last draws are
forced to be unseen ones — so every seed asks the same cold queries and
simulates the same cells, while the seed decides their order and which
queries are hot.  Seeds then differ in the traffic pattern, not in the
simulation work behind it.
"""

from __future__ import annotations

import itertools
import random

ROUTINES = ("gemm", "symm", "syrk", "syr2k", "trmm", "trsm")
SIZES = tuple(range(4096, 16384 + 1, 1024))
LIBRARIES = ("xkblas", "cublas-xt")

#: Zipf exponent over the permuted ranks.  An assumption: no traffic trace
#: of the tuning service exists to derive it from.
SKEW = 1.1
#: Stream length: the 156 cold queries give the cold p90 more than ten
#: samples beyond it, the 1044 repeats do the same for the warm p99, and the
#: 1200 replayed queries for the restart p99.
LENGTH = 1200


def universe() -> list[tuple[str, int, str]]:
    """Every ``(routine, n, library)`` the stream draws from, in a fixed order."""
    return [
        (routine, n, library)
        for routine in ROUTINES for n in SIZES for library in LIBRARIES
    ]


def query_stream(seed: int) -> list[tuple[str, int, str]]:
    """The seed's query stream: same seed, same stream."""
    items = universe()
    rng = random.Random(seed)
    rng.shuffle(items)
    cum = list(itertools.accumulate(1.0 / (rank ** SKEW)
                                    for rank in range(1, len(items) + 1)))
    seen: set[int] = set()
    stream: list[tuple[str, int, str]] = []
    while len(stream) < LENGTH:
        (k,) = rng.choices(range(len(items)), cum_weights=cum)
        if k in seen and LENGTH - len(stream) <= len(items) - len(seen):
            continue  # every slot left is needed for an unseen query
        seen.add(k)
        stream.append(items[k])
    return stream
