"""Graph machinery for the cluster-derivative bounds: cluster keys,
connected partitions, chromatic polynomials, spanning-tree counts, and
the combinatorial estimate chain tying them together.  All counts are exact
Python integers; the coloring sum, whose terms carry a 1/n, is read off the
chromatic polynomial as an integer."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .model import DualInteractionGraph, neighbor_sets

PARTITION_NODE_CAP = 10
ESTIMATE_WEIGHT_CAP = 7


@dataclass(frozen=True)
class SimpleGraph:
    n: int
    edges: frozenset

    def __post_init__(self):
        es = set()
        for a, b in self.edges:
            if a == b:
                raise ValueError("no self loops")
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise ValueError("edge endpoint out of range")
            es.add((min(a, b), max(a, b)))
        object.__setattr__(self, "edges", frozenset(es))

    @cached_property
    def neighbors(self) -> tuple[frozenset[int], ...]:
        return neighbor_sets(self.n, self.edges)

    def is_connected_subset(self, nodes) -> bool:
        nodes = set(nodes)
        if not nodes:
            return False
        seen = {next(iter(nodes))}
        stack = list(seen)
        while stack:
            v = stack.pop()
            for w in self.neighbors[v]:
                if w in nodes and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen == nodes

    def is_connected(self) -> bool:
        return self.is_connected_subset(range(self.n))


def key_weight(key: tuple) -> int:
    """Total degree of a key: a sorted tuple of (term index, multiplicity)."""
    return sum(m for _, m in key)


def key_factorial(key: tuple) -> int:
    """W! = prod_a mu_a! of a key."""
    out = 1
    for _, m in key:
        out *= math.factorial(m)
    return out


@dataclass(frozen=True)
class Cluster:
    """Multiset of Hamiltonian-term indices; ``multiplicities`` is also the
    cluster's key in a series."""

    multiplicities: tuple  # sorted tuple of (term index, mu >= 1)

    def __post_init__(self):
        mu = tuple(sorted((int(a), int(m)) for a, m in self.multiplicities))
        if any(m < 1 for _, m in mu):
            raise ValueError("multiplicities must be >= 1")
        object.__setattr__(self, "multiplicities", mu)

    @property
    def weight(self) -> int:
        return key_weight(self.multiplicities)

    @property
    def factorial(self) -> int:
        return key_factorial(self.multiplicities)

    @property
    def support(self) -> frozenset:
        return frozenset(a for a, _ in self.multiplicities)


def interaction_graph_of_cluster(w: Cluster, g: DualInteractionGraph) -> SimpleGraph:
    """One node per multiset copy; edges between copies whose terms are
    neighbours in the dual graph.  Copies of the same term always overlap
    with themselves."""
    nodes = []
    for a, m in w.multiplicities:
        nodes.extend([a] * m)
    edges = set()
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            if nodes[i] == nodes[j] or nodes[j] in g.neighbors[nodes[i]]:
                edges.add((i, j))
    return SimpleGraph(len(nodes), frozenset(edges))


def enumerate_set_partitions(items):
    """All set partitions of a list, as lists of lists."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in enumerate_set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def enumerate_connected_partitions(g: SimpleGraph):
    """Partitions of the nodes into blocks each inducing a connected subgraph."""
    if g.n > PARTITION_NODE_CAP:
        raise ValueError(f"{g.n} nodes exceed partition cap {PARTITION_NODE_CAP}")
    out = []
    for part in enumerate_set_partitions(range(g.n)):
        if all(g.is_connected_subset(b) for b in part):
            out.append([frozenset(b) for b in part])
    return out


def quotient_graph(g: SimpleGraph, blocks) -> SimpleGraph:
    """Blocks as nodes; edge where any cross edge of g connects two blocks."""
    idx = {}
    for i, b in enumerate(blocks):
        for v in b:
            idx[v] = i
    edges = set()
    for a, b in g.edges:
        if idx[a] != idx[b]:
            edges.add((min(idx[a], idx[b]), max(idx[a], idx[b])))
    return SimpleGraph(len(blocks), frozenset(edges))


@lru_cache(maxsize=None)
def _chromatic_poly(n: int, edges: frozenset) -> tuple:
    """Coefficients (low order first) of the chromatic polynomial, by
    deletion-contraction; exact integers."""
    if not edges:
        out = [0] * (n + 1)
        out[n] = 1
        return tuple(out)
    a, b = next(iter(sorted(edges)))
    deleted = frozenset(e for e in edges if e != (a, b))
    # contract b into a and relabel nodes above b down by one
    def relabel(v):
        if v == b:
            return a
        return v - 1 if v > b else v
    contracted = set()
    for u, v in edges:
        uu, vv = relabel(u), relabel(v)
        if uu != vv:
            contracted.add((min(uu, vv), max(uu, vv)))
    p_del = _chromatic_poly(n, deleted)
    p_con = _chromatic_poly(n - 1, frozenset(contracted))
    out = list(p_del)
    for i, c in enumerate(p_con):
        out[i] -= c
    return tuple(out)


def spanning_tree_count(g: SimpleGraph) -> int:
    """Matrix-Tree theorem with exact integer (Bareiss) determinant."""
    if g.n == 1:
        return 1
    if not g.is_connected():
        return 0
    lap = [[0] * g.n for _ in range(g.n)]
    for a, b in g.edges:
        lap[a][a] += 1
        lap[b][b] += 1
        lap[a][b] -= 1
        lap[b][a] -= 1
    m = [row[:-1] for row in lap[:-1]]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def coloring_weight(g: SimpleGraph) -> int:
    """sum_{n=1}^{|V|} (-1)^{n-1}/n chi*(n, g) -- the scalar multiplying the
    derivative product of one connected partition block structure in the
    logarithm's cluster derivative.

    chi*(n, g) = n! a_n, a_n the partitions of the nodes into n independent
    sets, and P_g(x) = sum_n a_n x(x-1)...(x-n+1), whose linear coefficient
    is sum_n a_n (-1)^{n-1} (n-1)!: the sum is [x] P_g(x), an integer."""
    return _chromatic_poly(g.n, g.edges)[1]


@lru_cache(maxsize=None)
def _graph_chain(n: int, edges: frozenset) -> tuple:
    """(left, tau, degree product) of the estimate chain on one labelled
    interaction graph: exact integers that depend on the graph alone, so one
    computation serves every cluster with that graph.  The degree product
    takes max(deg, 1) so the single-node graph (tau = 1) does not break the
    chain."""
    graph = SimpleGraph(n, edges)
    left = sum(
        abs(coloring_weight(quotient_graph(graph, blocks)))
        for blocks in enumerate_connected_partitions(graph)
    )
    degprod = 1
    for nbrs in graph.neighbors:
        degprod *= max(len(nbrs), 1)
    return left, spanning_tree_count(graph), degprod


def estimate_chain(w: Cluster, g: DualInteractionGraph) -> dict:
    """The combinatorial estimate chain for one cluster:

        sum_B |sum_n (-1)^n/n chi*(n, Gra(B))|
            <= 2^{|W|-1} tau(Gra(W))
            <= 2^{|W|-1} prod_a max(deg a, 1)
            <= W! (2e(1+d))^{|W|+1}

    Left and middle quantities are exact integers, read off the interaction
    graph by ``_graph_chain``; the final comparison is float and depends on
    the cluster's W! and the dual graph's degree d.
    """
    weight = w.weight
    if weight > ESTIMATE_WEIGHT_CAP:
        raise ValueError(f"weight {weight} exceeds cap {ESTIMATE_WEIGHT_CAP}")
    graph = interaction_graph_of_cluster(w, g)
    left, tau, degprod = _graph_chain(graph.n, graph.edges)
    mid1 = 2 ** (weight - 1) * tau
    mid2 = 2 ** (weight - 1) * degprod
    right = w.factorial * (2 * math.e * (1 + g.degree)) ** (weight + 1)
    return {
        "weight": weight,
        "left": left,
        "tree_bound": mid1,
        "degree_bound": mid2,
        "final_bound": right,
        "ok": left <= mid1 <= mid2 and float(mid2) <= right,
    }


def verify_combinatorial_estimate(w: Cluster, g: DualInteractionGraph) -> dict:
    rep = estimate_chain(w, g)
    rep["terms"] = [a for a, _ in w.multiplicities]
    rep["multiplicities"] = [m for _, m in w.multiplicities]
    return rep

