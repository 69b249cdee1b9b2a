"""Deterministic, counter-based random streams, and the package's work splits.

Everything stochastic in the package draws from Philox generators keyed by
(seed, stream path).  Sampling loops are split into fixed-size batches, each
with its own keyed stream, so a computation partitioned across workers
reproduces the serial result bit for bit: batch b always uses the stream
keyed (seed, *path, b) no matter which worker runs it or in what order.
Every blocked kernel walks its rows in `row_blocks` of at most BLOCK entries.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

#: Number of samples drawn per RNG batch.  Fixed: changing it changes streams.
BATCH = 8192

#: Entries per block of a row-blocked kernel: 256 KiB per float temporary, so
#: that the passes over one block stay in a per-core L2 cache.
BLOCK = 1 << 15


def rng_for(seed: int, *path: int) -> np.random.Generator:
    """Philox generator keyed by an integer seed and an integer path."""
    ss = np.random.SeedSequence((int(seed),) + tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def batches(total: int):
    """Yield (index, start, size) triples covering range(total) in BATCH-sized steps."""
    for i, start in enumerate(range(0, total, BATCH)):
        yield i, start, min(BATCH, total - start)


def row_blocks(n: int, per_row: int):
    """Yield slices covering range(n), each of at most max(1, BLOCK // per_row) rows."""
    rows = max(1, BLOCK // max(per_row, 1))
    for start in range(0, n, rows):
        yield slice(start, min(start + rows, n))


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
