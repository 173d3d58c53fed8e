import itertools
from fractions import Fraction

import pytest

from hmnlab.combinatorics import (
    Cluster,
    SimpleGraph,
    coloring_weight,
    enumerate_connected_partitions,
    enumerate_set_partitions,
    estimate_chain,
    interaction_graph_of_cluster,
    quotient_graph,
    spanning_tree_count,
    verify_combinatorial_estimate,
)
from hmnlab.model import HamiltonianTerm, LocalHamiltonian, PauliString, SiteGraph, build_dual_graph
from hmnlab.series import enumerate_connected_clusters
from tests.conftest import (
    brute_force_chi_star,
    chi_star,
    chromatic_polynomial,
    estimate_chain_reference,
    ising_pauli_chain,
    lattice_2x3,
)


def path(n):
    return SimpleGraph(n, frozenset((i, i + 1) for i in range(n - 1)))


def cycle(n):
    return SimpleGraph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def complete(n):
    return SimpleGraph(n, frozenset(itertools.combinations(range(n), 2)))


def test_chromatic_polynomial_known_graphs():
    # path: x(x-1)^{n-1}; cycle: (x-1)^n + (-1)^n (x-1); complete: falling factorial
    for x in range(1, 6):
        assert chromatic_polynomial(path(4), x) == x * (x - 1) ** 3
        assert chromatic_polynomial(cycle(4), x) == (x - 1) ** 4 + (x - 1)
        assert chromatic_polynomial(cycle(5), x) == (x - 1) ** 5 - (x - 1)
        assert chromatic_polynomial(complete(4), x) == x * (x - 1) * (x - 2) * (x - 3)


def test_chi_star_matches_brute_force():
    graphs = [path(3), path(5), cycle(4), cycle(5), complete(4),
              SimpleGraph(4, frozenset({(0, 1), (1, 2), (1, 3)})),
              SimpleGraph(6, frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 4)}))]
    for g in graphs:
        for n in range(1, g.n + 1):
            assert chi_star(n, g) == brute_force_chi_star(n, g)


def test_chi_star_extremes():
    # exactly-n colorings of K_n: n! ; of the empty graph on n vertices with
    # all n colors used: n! as well (every bijection)
    assert chi_star(3, complete(3)) == 6
    assert chi_star(4, SimpleGraph(4, frozenset())) == 24
    # a path cannot be properly colored with 1 color
    assert chi_star(1, path(2)) == 0
    assert chi_star(1, SimpleGraph(3, frozenset())) == 1


def test_spanning_tree_count():
    assert spanning_tree_count(path(5)) == 1
    assert spanning_tree_count(cycle(6)) == 6
    # Cayley's formula for complete graphs
    for n in range(2, 7):
        assert spanning_tree_count(complete(n)) == n ** (n - 2)


def test_set_partitions_bell_numbers():
    bell = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52}
    for n, b in bell.items():
        parts = list(enumerate_set_partitions(list(range(n))))
        assert len(parts) == b
        # each partition covers every element exactly once
        for p in parts:
            seen = sorted(x for blk in p for x in blk)
            assert seen == list(range(n))


def test_connected_partitions_path():
    # blocks of a path must be intervals-of-the-quotient: on P3, the partition
    # {0,2}{1} has a disconnected block and is excluded
    parts = [set(map(frozenset, p)) for p in enumerate_connected_partitions(path(3))]
    assert {frozenset({0, 2}), frozenset({1})} not in parts
    assert {frozenset({0, 1, 2})} in parts
    assert len(parts) == 4  # 012 | 01,2 | 0,12 | 0,1,2


def test_quotient_graph():
    g = path(4)
    q = quotient_graph(g, [frozenset({0, 1}), frozenset({2, 3})])
    assert q.n == 2 and q.edges == frozenset({(0, 1)})
    q2 = quotient_graph(g, [frozenset({0}), frozenset({1}), frozenset({2, 3})])
    assert q2.n == 3 and len(q2.edges) == 2


def test_coloring_weight_values():
    # single vertex: (-1)^0 * chi*(1)/1 = 1
    assert coloring_weight(SimpleGraph(1, frozenset())) == 1
    # edge: n=1 gives chi*=0, n=2 gives -chi*(2)/2 = -2/2 = -1
    assert coloring_weight(complete(2)) == Fraction(-1, 1)
    # path on 3: 0 - 2/2 + 6/3 = 1; triangle: 0 + 0 + 6/3 = 2
    assert coloring_weight(path(3)) == Fraction(1, 1)
    assert coloring_weight(complete(3)) == Fraction(2, 1)


def test_coloring_weight_is_the_coloring_sum(rng):
    """[x] P_G(x) equals sum_n (-1)^{n-1}/n chi*(n, G) on every graph of up
    to 5 nodes and on random graphs of 6 and 7 nodes."""
    graphs = []
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(2 ** len(pairs)):
            graphs.append(SimpleGraph(n, frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)))
    for n in (6, 7):
        for _ in range(15):
            pairs = itertools.combinations(range(n), 2)
            graphs.append(SimpleGraph(n, frozenset(p for p in pairs if rng.random() < 0.5)))
    for g in graphs:
        want = sum(Fraction((-1) ** (n - 1), n) * chi_star(n, g) for n in range(1, g.n + 1))
        assert coloring_weight(g) == want, g


def test_estimate_chain_exact_values():
    """Hand counts on the 3-bond chain.  W = 2*{0} + {1} is a triangle: its
    five partitions are connected, with coloring sums 1, three times -1 and
    2, so left = 6; tau = 3 and every degree is 2.  W = {0, 1, 2} is a path:
    left = 1 + 1 + 1 + 1 = 4 = 2^2 tau, degrees 1, 2, 1."""
    g = build_dual_graph(ising_pauli_chain(4))
    for key, want in [
        (((0, 2), (1, 1)), (6, 12, 32)),
        (((0, 1), (1, 1), (2, 1)), (4, 4, 8)),
    ]:
        rep = estimate_chain(Cluster(key), g)
        assert (rep["left"], rep["tree_bound"], rep["degree_bound"]) == want
        assert type(rep["left"]) is int


def test_cluster_interaction_graph():
    h = ising_pauli_chain(4)
    g = build_dual_graph(h)
    w = Cluster(((0, 2), (1, 1)))
    ig = interaction_graph_of_cluster(w, g)
    assert ig.n == 3  # two copies of term 0, one of term 1
    assert ig.is_connected_subset(frozenset(range(3)))
    # copies of the same term are always linked
    assert any(e in ig.edges for e in [(0, 1), (1, 0)])


def test_estimate_chain_holds_for_all_small_clusters():
    h = ising_pauli_chain(6)
    g = build_dual_graph(h)
    for w in enumerate_connected_clusters(g, 5):
        rep = verify_combinatorial_estimate(w, g)
        assert rep["ok"], rep
        assert rep["left"] <= rep["tree_bound"] + 1e-9
        assert rep["tree_bound"] <= rep["degree_bound"] + 1e-9
        assert rep["degree_bound"] <= rep["final_bound"] + 1e-9


def test_estimate_chain_weight_one():
    h = ising_pauli_chain(3)
    g = build_dual_graph(h)
    rep = estimate_chain(Cluster(((0, 1),)), g)
    assert rep["left"] == 1.0
    assert rep["ok"]


def zz_grid(rows, cols):
    """ZZ bonds on a rows x cols grid, rows first, then columns."""
    n = rows * cols
    bonds = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    bonds += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    terms = [HamiltonianTerm((a, b), PauliString(n, 0, (1 << a) | (1 << b)), -0.9) for a, b in bonds]
    return LocalHamiltonian(SiteGraph(n), tuple(terms))


@pytest.mark.parametrize("h, max_weight", [(lattice_2x3(), 5), (zz_grid(3, 3), 4)], ids=["2x3_w5", "3x3_w4"])
def test_estimate_chain_matches_the_unmemoized_chain(h, max_weight):
    """Every connected cluster gets the same report, exactly, as the chain
    computed afresh with no memo; the clusters share far fewer interaction
    graphs than there are clusters, so most reports are read from the
    per-graph memo."""
    g = build_dual_graph(h)
    clusters = enumerate_connected_clusters(g, max_weight)
    graphs = {(ig.n, ig.edges) for ig in (interaction_graph_of_cluster(w, g) for w in clusters)}
    assert len(graphs) < len(clusters) / 3
    for w in clusters:
        rep, want = estimate_chain(w, g), estimate_chain_reference(w, g)
        assert rep == want, w
        assert all(type(rep[k]) is type(v) for k, v in want.items()), w


def test_estimate_chain_final_bound_follows_the_dual_graph():
    """Two adjacent bonds have the one-edge interaction graph on a chain
    (dual degree 2) and on the 2x3 lattice (dual degree 4): the graph's
    exact counts are shared, the final bound is each dual graph's own."""
    chain, lattice = build_dual_graph(ising_pauli_chain(4)), build_dual_graph(lattice_2x3())
    w = Cluster(((0, 1), (1, 1)))
    assert interaction_graph_of_cluster(w, chain) == interaction_graph_of_cluster(w, lattice)
    assert chain.degree != lattice.degree
    reps = [estimate_chain(w, g) for g in (chain, lattice)]
    assert [r["left"] for r in reps] == [2, 2]
    assert reps[0]["final_bound"] != reps[1]["final_bound"]
    for rep, g in zip(reps, (chain, lattice)):
        assert rep == estimate_chain_reference(w, g)


def test_verify_estimate_reports_are_per_cluster():
    """Clusters {0, 1} and {1, 2} of a chain share their interaction graph;
    each report lists its own terms, and the second call leaves the first
    report as it was."""
    g = build_dual_graph(ising_pauli_chain(5))
    first = verify_combinatorial_estimate(Cluster(((0, 1), (1, 1))), g)
    second = verify_combinatorial_estimate(Cluster(((1, 1), (2, 2))), g)
    third = verify_combinatorial_estimate(Cluster(((1, 1), (2, 1))), g)
    assert (first["terms"], first["multiplicities"]) == ([0, 1], [1, 1])
    assert (second["terms"], second["multiplicities"]) == ([1, 2], [1, 2])
    assert (third["terms"], third["multiplicities"]) == ([1, 2], [1, 1])
    assert first["left"] == third["left"] and first is not third
