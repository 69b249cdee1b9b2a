"""Normalized epsilon-neighborhood counts for hinges, chains, and edge maps.

All counts share one convention: the event asks every selected pair to
satisfy |phi(x^i, x^j) - t| <= eps (closed intervals), and the product-
measure mass of the event is scaled by eps^(-n) where n is the number of
constrained pairs.  The first vertex always carries the pin measure lambda,
remaining vertices carry mu, except in `config_count` where measures are
assigned per vertex.

Every count but the exact hinge goes through one counter, `_event_mass`,
given one measure per vertex and the links (i, j, t).  Exact mode builds
each indicator matrix 1[|phi - t| <= eps] once per (measure pair, t) and
contracts them with `_contract`.  Monte Carlo mode draws one atom per
vertex, in vertex order, from the Philox stream (seed, stream id, batch) --
5 for `hinge_count`, 6 for `chain_tuple_count`, 7 for `config_count` -- and
returns the hit rate with stderr sqrt(mean (1 - mean) / samples).  The
exact hinge sorts each pin's gaps once (`sort_gaps`) and takes every
window's mass as a difference of prefix sums (`_window_mass`), so one sort
serves every eps and t.
"""

from dataclasses import dataclass

import math

import numpy as np

from .errors import BudgetError, DomainError
from .fractals import FrostmanMeasure
from .phases import pairwise_value
from .pinned import _trapz_weights
from .rng import batches, rng_for

#: Exact `config_count` refuses more tuples than this; pass samples instead.
EXHAUSTIVE_BUDGET = 10_000_000


@dataclass(frozen=True)
class EdgeMap:
    """Configuration graph on vertices 1..vertex_count with upper-triangle edges."""

    vertex_count: int
    edges: frozenset          # of (i, j) pairs, 1 <= i < j <= vertex_count

    def __post_init__(self):
        object.__setattr__(self, "edges", frozenset(
            (int(i), int(j)) for i, j in self.edges))
        for i, j in self.edges:
            if not (1 <= i < j <= self.vertex_count):
                raise DomainError(f"edge ({i},{j}) outside the upper triangle")
        if len(self.edges) < 1:
            raise DomainError("edge map needs at least one edge")

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def sorted_edges(self):
        return sorted(self.edges)


def star_edge_map(k: int, center: int) -> EdgeMap:
    """k+1 vertices, every non-center vertex joined to the center."""
    edges = frozenset(tuple(sorted((i, center))) for i in range(1, k + 2) if i != center)
    return EdgeMap(k + 1, edges)


def pinned_lift(em: EdgeMap) -> EdgeMap:
    """Double the configuration across the pinned vertex k+1.

    Vertices k+2..2k+1 mirror 1..k; edges into the pin are copied to the
    mirror side through the pin, all other edges are copied verbatim: the
    edges `lift_t_assignment` maps.
    """
    lifted = lift_t_assignment(em, dict.fromkeys(em.edges, 0.0))
    return EdgeMap(2 * em.vertex_count - 1, frozenset(lifted))


def lift_t_assignment(em: EdgeMap, t_assignment: dict) -> dict:
    """Extend an edge->gap map through `pinned_lift`: (i, pin) is mirrored
    to (pin, pin+i) and (i, j) to (pin+i, pin+j), and every mirrored edge
    inherits the gap of the edge it copies (the doubled-configuration event
    constrains both copies by the same gap vector)."""
    pin = em.vertex_count
    out = {}
    for (i, j), v in t_assignment.items():
        i, j = sorted((int(i), int(j)))
        out[(i, j)] = float(v)
        out[(pin, pin + i) if j == pin else (pin + i, pin + j)] = float(v)
    return out


@dataclass(frozen=True)
class ConfigCount:
    count_normalized: float
    stderr: float
    samples: int             # 0 for exact mode

    def __post_init__(self):
        if self.count_normalized < 0 or self.stderr < 0:
            raise DomainError("counts and errors must be nonnegative")


def _check_eps_samples(eps, samples):
    if not (eps > 0 and samples >= 0):
        raise DomainError(f"need eps > 0 and samples >= 0, got eps={eps}, samples={samples}")


def _contract(vertex_weights, edge_kernels) -> float:
    """Sum over atom tuples x of prod_v w_v(x_v) prod_(i,j) K_ij(x_i, x_j).

    `edge_kernels` maps vertex pairs (i, j) of 0..n-1 to (N_i, N_j) matrices.
    Kernels may be bool, and one array may serve several edges.  Vertices are
    summed out one at a time, each time the one with the fewest neighbours
    (lowest index on ties), so a tree costs N^2 per edge; each step is one
    einsum labelled afresh (no 52-label bound) that casts its kernels to float.
    """
    factors = [((v,), w) for v, w in enumerate(vertex_weights)] + list(edge_kernels.items())

    def neighbours(v):
        return set().union(*(lab for lab, _ in factors if v in lab)) - {v}

    remaining = set(range(len(vertex_weights)))
    while remaining:
        v = min(remaining, key=lambda u: (len(neighbours(u)), u))
        remaining.remove(v)
        keep = sorted(neighbours(v))
        name = {u: n for n, u in enumerate([v] + keep)}
        args = []
        for lab, arr in factors:
            if v in lab:
                args += [np.asarray(arr, float), [name[u] for u in lab]]
        factors = [f for f in factors if v not in f[0]]
        factors.append((tuple(keep), np.einsum(*args, range(1, len(name)), optimize=True)))
    return float(math.prod(arr for _, arr in factors))


def _event_mass(measures, links, phi, eps, samples, seed, stream):
    """(mass, stderr) of the event |phi(x_i, x_j) - t| <= eps for every link
    (i, j, t) under the product of `measures` (one per vertex, 0-based)."""
    if samples == 0:
        gaps, ind, kernels = {}, {}, {}
        for i, j, t in links:
            pair = (id(measures[i]), id(measures[j]))
            if pair not in gaps:
                gaps[pair] = pairwise_value(phi, measures[i].points, measures[j].points)
            if (pair, t) not in ind:
                ind[(pair, t)] = np.abs(gaps[pair] - t) <= eps
            kernels[(i, j)] = ind[(pair, t)]
        return _contract([m.weights for m in measures], kernels), 0.0
    hits = 0.0
    for b, _, size in batches(samples):
        rng = rng_for(seed, stream, b)
        draws = [m.points[rng.choice(len(m), size=size, p=m.weights)] for m in measures]
        ok = np.ones(size, dtype=bool)
        for i, j, t in links:
            ok &= np.abs(np.asarray(phi.value(draws[i], draws[j])) - t) <= eps
        hits += ok.sum()
    mean = hits / samples
    return mean, float(np.sqrt(max(mean - mean ** 2, 0.0) / samples))


def hinge_count(lam: FrostmanMeasure, mu: FrostmanMeasure, phi, t: float,
                eps: float, samples: int = 0, seed: int = 0,
                sorted_gaps=None) -> ConfigCount:
    """eps^-2 times the lambda x mu x mu mass of the hinge event at gap t.

    The (y, z) legs are conditionally independent given the pin, so the exact
    triple sum factors as sum_x lam_x (sum_y mu_y 1[|phi(x,y)-t|<=eps])^2.
    Exact mode counts windows over `sort_gaps(lam, mu, phi)`; a caller that
    counts at several eps passes that once as `sorted_gaps`.
    """
    _check_eps_samples(eps, samples)
    if samples == 0:
        if sorted_gaps is None:
            sorted_gaps = sort_gaps(lam, mu, phi)
        inner = _window_mass(sorted_gaps, np.array([t]), eps)[:, 0]
        mass, se = float(lam.weights @ inner ** 2), 0.0
    else:
        mass, se = _event_mass([lam, mu, mu], [(0, 1, t), (0, 2, t)], phi, eps,
                               samples, seed, 5)
    return ConfigCount(mass / eps ** 2, se / eps ** 2, samples)


def sort_gaps(lam: FrostmanMeasure, mu: FrostmanMeasure, phi):
    """(sorted gaps, prefix): each pin's gaps phi(x, y) over mu's atoms,
    sorted, and the prefix sums of their weights in that order, with a
    leading 0.  They do not depend on eps or t, so a caller that counts
    windows at several eps sorts once."""
    gaps = pairwise_value(phi, lam.points, mu.points)
    order = np.argsort(gaps, axis=1)
    gaps = np.take_along_axis(gaps, order, axis=1)
    prefix = np.zeros((len(lam), len(mu) + 1))
    np.cumsum(mu.weights[order], axis=1, out=prefix[:, 1:])
    return gaps, prefix


def _window_mass(sorted_gaps, t_nodes, eps):
    """(n_pins, n_t) matrix of sum_y mu_y 1[|phi(x,y) - t| <= eps] from the
    pins' `sort_gaps`.

    The rounded difference fl(g - t) is monotone in g, so every window is a
    contiguous run of sorted gaps and its mass a difference of prefix sums;
    its ends come from a binary search that applies the membership test
    itself, so ties and rounding at the window edges count exactly as the
    closed-interval test does.
    """
    gaps, prefix = sorted_gaps
    t_nodes = np.asarray(t_nodes, float)
    lo = _first_passing(gaps, t_nodes, lambda diff: diff >= -eps)
    hi = _first_passing(gaps, t_nodes, lambda diff: diff > eps)
    rows = np.arange(len(gaps))[:, None]
    return prefix[rows, hi] - prefix[rows, lo]


def _first_passing(sorted_gaps, t_nodes, test):
    """(n_rows, n_t) index of the first gap per row whose difference g - t
    passes `test`, or the row length if none does (vectorised bisection;
    `test` must be monotone in the difference)."""
    n_rows, n = sorted_gaps.shape
    rows = np.arange(n_rows)[:, None]
    lo = np.zeros((n_rows, len(t_nodes)), np.int64)
    hi = np.full(lo.shape, n)
    for _ in range(n.bit_length()):
        mid = (lo + hi) // 2
        hit = test(sorted_gaps[rows, np.minimum(mid, n - 1)] - t_nodes)
        hi = np.where(hit, mid, hi)
        lo = np.where(hit, lo, np.minimum(mid + 1, hi))
    return lo


def hinge_count_integrated(lam: FrostmanMeasure, mu: FrostmanMeasure, phi, beta,
                           eps: float, t_nodes, samples: int = 0,
                           seed: int = 0, sorted_gaps=None) -> float:
    """Trapezoid t-integral of beta(t) * hinge_count(t) over the node grid.

    Exact mode counts windows over `sort_gaps(lam, mu, phi)`; a caller that
    integrates at several eps passes that once as `sorted_gaps`.
    """
    _check_eps_samples(eps, samples)
    t_nodes = np.asarray(t_nodes, float)
    if t_nodes.ndim != 1 or len(t_nodes) < 2:
        raise DomainError(f"need a 1-d grid of >= 2 t-nodes, got shape {t_nodes.shape}")
    tw = _trapz_weights(len(t_nodes), float(t_nodes[1] - t_nodes[0]))
    bvals = np.asarray(beta(t_nodes), float) if beta is not None else np.ones(len(t_nodes))
    if samples == 0:
        if sorted_gaps is None:
            sorted_gaps = sort_gaps(lam, mu, phi)
        inner = _window_mass(sorted_gaps, t_nodes, eps)
        per_t = lam.weights @ inner ** 2
        return float((per_t * bvals) @ tw) / eps ** 2
    total = 0.0
    for ti, t in enumerate(t_nodes):
        c = hinge_count(lam, mu, phi, float(t), eps, samples, seed + 1000 * ti)
        total += c.count_normalized * bvals[ti] * tw[ti]
    return total


def chain_tuple_count(lam: FrostmanMeasure, mu: FrostmanMeasure, phi, t,
                      eps: float, samples: int = 0, seed: int = 0) -> ConfigCount:
    """eps^-2k normalized mass of the doubled k-chain sharing its pin.

    The pin y_0 carries lambda and both k-link chains y_0, y_1, ..., y_k carry
    mu; link i asks |phi(y_i, y_{i+1}) - t[i]| <= eps, pin outward.  Exact
    mode contracts the doubled chain with `_contract` (no tuple budget);
    `samples` > 0 draws that many doubled chains instead.
    """
    t = np.atleast_1d(np.asarray(t, float))
    k = len(t)
    if k < 1:
        raise DomainError("need k >= 1")
    _check_eps_samples(eps, samples)
    # pin 0, chains 1..k and k+1..2k; link i of both copies has gap t[i]
    links = [(a, b, t[i]) for i in range(k) for a, b in ((i, i + 1), (k + i if i else 0, k + i + 1))]
    mass, se = _event_mass([lam] + [mu] * (2 * k), links, phi, eps, samples, seed, 6)
    return ConfigCount(mass / eps ** (2 * k), se / eps ** (2 * k), samples)


def config_count(em: EdgeMap, measures, phi, t_assignment: dict, eps: float,
                 samples: int = 0, seed: int = 0) -> ConfigCount:
    """eps^-n(E) normalized product-measure mass of a general edge-map event.

    `measures` is one FrostmanMeasure per vertex (a single measure is
    broadcast).  `t_assignment` maps each edge (i, j) to its gap value and
    must cover exactly the edge set.  Exact mode (tuple count within
    EXHAUSTIVE_BUDGET) contracts the edge indicator matrices with
    `_contract`, N^2 per edge for a tree; otherwise Monte Carlo with
    `samples` draws.
    """
    _check_eps_samples(eps, samples)
    if isinstance(measures, FrostmanMeasure):
        measures = [measures] * em.vertex_count
    if len(measures) != em.vertex_count:
        raise DomainError("need one measure per vertex")
    t_map = {tuple(sorted((int(i), int(j)))): float(v) for (i, j), v in t_assignment.items()}
    if set(t_map) != set(em.edges):
        raise DomainError("t_assignment must cover exactly the edge set")
    total = math.prod(len(m) for m in measures)
    if samples == 0 and total > EXHAUSTIVE_BUDGET:
        raise BudgetError(f"{total} tuples exceed exact-count budget {EXHAUSTIVE_BUDGET}; "
                          "pass samples")
    links = [(i - 1, j - 1, tv) for (i, j), tv in t_map.items()]
    mass, se = _event_mass(measures, links, phi, eps, samples, seed, 7)
    n = em.n_edges
    return ConfigCount(mass / eps ** n, se / eps ** n, samples)


# -- serialization ----------------------------------------------------------

def save_edge_map(em: EdgeMap, path) -> None:
    """Header `<vertex count> <edge count>` (such as `4 4`), then one sorted
    `i j` pair per line."""
    with open(path, "w") as fh:
        fh.write(f"{em.vertex_count} {em.n_edges}\n")
        for i, j in em.sorted_edges():
            fh.write(f"{i} {j}\n")

