"""Seeded input generation for the benchmark workloads.

Everything here is plain NumPy: the program under test receives only the
arrays and request bytes built from these, never this module's random
state.  The recipe follows the paper's Section 6 (and the repo's own
synthetic generator): object centers are anti-correlated (``A``) or
independent (``E``) over ``[0, 10000]^d``, each object is a Normal instance
cloud (sd = edge / 4) clipped to a box whose edges are ``U(0, 2h)``, with a
per-object instance count ``round(N(m, m / 5))``.

Query objects are centred on dataset objects picked by *stratified*
sampling along a Z-order curve (one random object per equal-sized stratum),
and their box edge is exactly ``h_q`` in every dimension (the Table-2 query
edge length) rather than ``U(0, 2 h_q)``.  Like the dataset, each
workload's query objects are drawn from its dataset stream, so every seed
runs the same set of reads; the seed orders them and draws the writes and
cache hits around them.  Runs at different seeds thus differ in op order and
update stream, not in a query mix whose cost would move the p50 / p90.
"""

from __future__ import annotations

import numpy as np

DOMAIN = 10000.0


#: Seed of every workload's dataset and query objects.  Both are fixed so
#: that runs at different workload seeds differ in the order of their reads
#: and in their writes, not in data whose cost would move every metric at once.
DATASET_SEED = 20150531

#: Operator of each served pool query, by index: half SSD, the rest split
#: between PSD and FSD.
POOL_OPERATORS = ("SSD", "PSD", "SSD", "FSD")


def streams(seed: int, n: int) -> list[np.random.Generator]:
    """``n`` independent generators derived from one workload seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def dataset_stream(workload: str) -> np.random.Generator:
    """The generator of one workload's (seed-independent) dataset and queries."""
    return np.random.default_rng([DATASET_SEED, sum(workload.encode())])


def anticorrelated_centers(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Centers near the hyperplane ``sum x_i = d / 2`` (distribution ``A``)."""
    total = np.clip(rng.normal(0.5, 0.05, size=n), 0.0, 1.0) * d
    x = np.repeat((total / d)[:, None], d, axis=1)
    rows = np.arange(n)
    for _ in range(d):
        i = rng.integers(0, d, size=n)
        j = rng.integers(0, d, size=n)
        u = rng.uniform(-1.0, 1.0, size=n)
        delta = np.where(i != j, u * np.minimum(x[rows, i], 1.0 - x[rows, j]), 0.0)
        x[rows, i] -= delta
        x[rows, j] += delta
    return np.clip(x, 0.0, 1.0) * DOMAIN


def independent_centers(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Centers uniform over the domain (distribution ``E``)."""
    return rng.uniform(0.0, DOMAIN, size=(n, d))


def instance_cloud(
    center: np.ndarray, count: int, edge: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One object's instances: Normal cloud clipped to a box of edge ``edge``."""
    pts = rng.normal(center, np.maximum(edge / 4.0, 1e-9), size=(count, center.shape[0]))
    lo = np.maximum(center - edge / 2.0, 0.0)
    hi = np.minimum(center + edge / 2.0, DOMAIN)
    return np.clip(pts, lo, hi)


def make_clouds(
    centers: np.ndarray, m: int, h: float, rng: np.random.Generator
) -> list[np.ndarray]:
    """Instance arrays for every center, ``round(N(m, m / 5))`` instances each."""
    counts = np.maximum(1, np.rint(rng.normal(m, m / 5.0, size=len(centers)))).astype(int)
    d = centers.shape[1]
    return [
        instance_cloud(c, int(k), rng.uniform(0.0, 2.0 * h, size=d), rng)
        for c, k in zip(centers, counts)
    ]


def stratified_picks(centers: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Indexes of ``k`` centers, one drawn from each Z-order stratum."""
    cells = np.clip((centers / DOMAIN * 1024).astype(np.int64), 0, 1023)
    n, d = cells.shape
    code = np.zeros(n, dtype=np.int64)
    for bit in range(10):
        for dim in range(d):
            code |= ((cells[:, dim] >> bit) & 1) << (bit * d + dim)
    order = np.argsort(code, kind="stable")
    bounds = np.linspace(0, n, k + 1).astype(int)
    return np.array([order[rng.integers(lo, hi)] for lo, hi in zip(bounds[:-1], bounds[1:])])


def density_edge(h: float, n: int, d: int) -> float:
    """Edge length keeping the paper's 100k-object overlap at ``n`` objects."""
    return h * (100_000 / n) ** (1.0 / d)


def served_reads(
    pool: int, hits: int, window: int, rng: np.random.Generator
) -> list[tuple[int, str]]:
    """``(query index, operator)`` reads of a cached service.

    Every pool query is read exactly once as a miss, under the operator its
    index fixes (``POOL_OPERATORS``): every seed reads the same set of
    (query, operator) pairs.  The misses follow ``POOL_OPERATORS`` in turn,
    so each operator's reads are spread evenly over the run, and the seed
    orders the queries of each operator.  ``hits`` seeded slots instead
    re-read a pair already read in their window of ``window`` reads (one
    epoch), earlier pairs more often (Zipf-like popularity) -- exactly
    ``hits`` cache hits on every seed.
    """
    reads = pool + hits
    slots = [i for i in range(reads) if i % window]
    hit_slots = set(rng.choice(slots, size=hits, replace=False).tolist())
    queues: dict[str, list[int]] = {op: [] for op in POOL_OPERATORS}
    for qi in rng.permutation(pool).tolist():
        queues[POOL_OPERATORS[qi % len(POOL_OPERATORS)]].append(qi)
    out: list[tuple[int, str]] = []
    seen: list[tuple[int, str]] = []
    misses = 0
    for i in range(reads):
        if i % window == 0:
            seen = []
        if i in hit_slots:
            weights = 1.0 / np.arange(1, len(seen) + 1)
            out.append(seen[rng.choice(len(seen), p=weights / weights.sum())])
            continue
        kind = POOL_OPERATORS[misses % len(POOL_OPERATORS)]
        pair = (queues[kind].pop(), kind)
        misses += 1
        out.append(pair)
        seen.append(pair)
    return out
