"""Deterministic, counter-based random streams.

Everything stochastic in the package draws from Philox generators keyed by
(seed, stream path).  Sampling loops are split into fixed-size batches, each
with its own keyed stream, so a computation partitioned across workers
reproduces the serial result bit for bit: batch b always uses the stream
keyed (seed, *path, b) no matter which worker runs it or in what order.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

#: Number of samples drawn per RNG batch.  Fixed: changing it changes streams.
BATCH = 8192


def rng_for(seed: int, *path: int) -> np.random.Generator:
    """Philox generator keyed by an integer seed and an integer path."""
    ss = np.random.SeedSequence((int(seed),) + tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def batches(total: int):
    """Yield (index, start, size) triples covering range(total) in BATCH-sized steps."""
    for i, start in enumerate(range(0, total, BATCH)):
        yield i, start, min(BATCH, total - start)


def parallel_map(fn, items, jobs: int = 1):
    """Order-preserving map, optionally on a thread pool.

    Results are combined in task order, never completion order, so the
    output is independent of `jobs`.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))
