import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmnlab import dense, series
from hmnlab.channels import ChannelLayer, bitflip, compose_with_trace, transition_channel
from hmnlab.classical import pinned_hamiltonian
from hmnlab.combinatorics import (
    Cluster,
    coloring_weight,
    enumerate_connected_partitions,
    interaction_graph_of_cluster,
    quotient_graph,
)
from hmnlab.model import HamiltonianTerm, LocalHamiltonian, Partition, PauliString, SiteGraph, build_dual_graph
from hmnlab.series import (
    TruncatedSeries,
    _monomials,
    cluster_derivative,
    cmi_operator_series,
    connected_term_sets,
    connects,
    derivative_norm_certificate,
    enumerate_connected_clusters,
    log_series,
    pinned_series_check,
    pinned_traced_series,
    series_of_channelled_gibbs,
    spectral_norm,
)
from tests.conftest import (
    brute_connected_clusters,
    dense_certificate_norms,
    dense_cmi_series,
    dependent_commuting_models,
    factor_product_series,
    ising_diag_chain,
    ising_pauli_chain,
    lattice_2x3,
    naive_series_product,
)


def boundary(n):
    return Partition(frozenset({0}), frozenset(range(1, n - 1)), frozenset({n - 1}))


def test_series_product_collects_cross_terms():
    eye = np.eye(2, dtype=complex)
    a = TruncatedSeries(3, 2, {(): eye, ((0, 1),): 2 * eye})
    b = TruncatedSeries(3, 2, {(): eye, ((1, 1),): 3 * eye})
    c = a * b
    assert np.allclose(c.get(((0, 1), (1, 1))), 6 * eye)
    assert np.allclose(c.get(((0, 1),)), 2 * eye)


def test_series_truncation_drops_high_degree():
    eye = np.eye(2, dtype=complex)
    a = TruncatedSeries(1, 2, {(): eye, ((0, 1),): eye})
    c = a * a
    assert c.get(((0, 2),)).max() == 0.0


def random_series(rng, n_vars, max_degree, dim, n_keys):
    """A series with n_keys random complex coefficients at random exponent
    keys of weight <= max_degree (the empty key included)."""
    keys = {()}
    while len(keys) < n_keys:
        acc = {}
        for _ in range(int(rng.integers(1, max_degree + 1))):
            a = int(rng.integers(n_vars))
            acc[a] = acc.get(a, 0) + 1
        keys.add(tuple(sorted(acc.items())))
    return TruncatedSeries(
        max_degree,
        dim,
        {k: rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for k in keys},
    )


@pytest.mark.parametrize(
    "block_bytes", [None, 3 * 16 * 4 * 4], ids=["default_blocks", "blocks_of_three"]
)
def test_series_product_matches_naive_pairs(monkeypatch, block_bytes):
    """Random series whose key pairs partly exceed the truncation degree;
    the second case splits the partners into blocks of three."""
    if block_bytes:
        monkeypatch.setattr(series, "_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(7)
    for max_degree, n_keys in ((2, 6), (3, 12), (4, 20)):
        a = random_series(rng, 4, max_degree, 4, n_keys)
        b = random_series(rng, 4, max_degree, 4, n_keys)
        weights = [sum(m for _, m in k1 + k2) for k1 in a.coeffs for k2 in b.coeffs]
        assert max(weights) > max_degree  # some pairs fall to the truncation
        got = a * b
        want = naive_series_product(a, b)
        assert set(got.coeffs) == set(want)
        for k, m in want.items():
            assert np.max(np.abs(got.coeffs[k] - m)) < 1e-12


def test_series_evaluation_converges_to_state():
    """Evaluating the channelled Gibbs series at lambda reproduces the exact
    channelled (unnormalized, 2^n-scaled) state; residual shrinks with D."""
    h = ising_pauli_chain(3)
    beta = 0.3
    layer = ChannelLayer((bitflip(1, 0.2),))
    lam = {a: t.coefficient for a, t in enumerate(h.terms)}
    hm = dense.hamiltonian_matrix(h)
    vals, vecs = np.linalg.eigh(hm)
    exact = dense.apply_layer_to_matrix(
        (vecs * np.exp(-beta * vals)) @ vecs.conj().T, layer, h.site_graph
    )
    errs = []
    for d in (3, 7):
        s = series_of_channelled_gibbs(h, beta, layer, d)
        errs.append(np.max(np.abs(s.evaluate(lam) - exact)))
    assert errs[1] < errs[0] * 1e-3
    assert errs[1] < 1e-6


def test_log_series_inverts_exp():
    """exp of the log series recovers the series term by term (degree 3)."""
    h = ising_pauli_chain(3)
    layer = ChannelLayer(())
    s = series_of_channelled_gibbs(h, 0.4, layer, 3)
    ls = log_series(s)
    # exp(L) = I + L + L^2/2 + L^3/6
    rebuilt = series.identity_series(3, s.dim)
    power = ls.copy()
    for n in range(1, 4):
        rebuilt.add_inplace(power, 1.0 / math.factorial(n))
        power = power * ls
    for k, m in s.coeffs.items():
        assert np.max(np.abs(rebuilt.get(k) - m)) < 1e-12


def test_weight_one_log_derivative():
    """D_a log E[rho] at weight 1 is -beta * E[h_a] exactly."""
    h = ising_pauli_chain(3)
    beta = 0.55
    layer = ChannelLayer((bitflip(1, 0.3),))
    ls = log_series(series_of_channelled_gibbs(h, beta, layer, 3))
    for a, t in enumerate(h.terms):
        ha = dense.term_matrix(h.site_graph, t, bare=True)
        expect = -beta * dense.apply_layer_to_matrix(ha.astype(complex), layer, h.site_graph)
        got = cluster_derivative(ls, Cluster(((a, 1),)))
        assert np.max(np.abs(got - expect)) < 1e-12


def test_disconnected_log_derivatives_vanish():
    h = ising_pauli_chain(4)  # terms 0 and 2 share no site
    ls = log_series(series_of_channelled_gibbs(h, 0.5, ChannelLayer(()), 4))
    d = cluster_derivative(ls, Cluster(((0, 1), (2, 1))))
    assert spectral_norm(d) < 1e-12


def test_enumerate_connected_clusters_chain():
    h = ising_pauli_chain(4)
    g = build_dual_graph(h)
    ws = enumerate_connected_clusters(g, 2)
    keys = {w.multiplicities for w in ws}
    assert ((0, 1),) in keys and ((0, 2),) in keys and ((0, 1), (1, 1)) in keys
    assert ((0, 1), (2, 1)) not in keys  # disconnected pair excluded
    anchored = enumerate_connected_clusters(g, 2, anchor={0})
    assert all(0 in [a for a, _ in w.multiplicities] for w in anchored)


def test_connects_requires_both_ends():
    h = ising_pauli_chain(4)
    g = build_dual_graph(h)
    p = boundary(4)
    assert connects(Cluster(((0, 1), (1, 1), (2, 1))), g, p)
    assert not connects(Cluster(((0, 1),)), g, p)
    assert not connects(Cluster(((1, 1),)), g, p)


def test_cmi_series_minimum_weight_is_distance():
    """Clusters lighter than d(A, C) cancel in the four-log combination."""
    h = ising_pauli_chain(4)
    layer = ChannelLayer((bitflip(1, 0.25), bitflip(2, 0.25)))
    s = cmi_operator_series(h, 0.6, layer, boundary(4), 4).prune(1e-13)
    weights = sorted({sum(m for _, m in k) for k in s.coeffs})
    from hmnlab.model import graph_distance

    assert weights[0] == graph_distance(h, boundary(4)) == 3


def test_cmi_series_matches_exact_operator():
    h = ising_pauli_chain(4)
    beta = 0.15
    layer = ChannelLayer((bitflip(1, 0.3), bitflip(2, 0.3)))
    p = boundary(4)
    s = cmi_operator_series(h, beta, layer, p, 6)
    lam = {a: t.coefficient for a, t in enumerate(h.terms)}
    exact = dense.cmi_operator(h, beta, layer, p).matrix
    # truncation error at D=6, well below the ~2.7e-3 operator scale
    assert np.max(np.abs(s.evaluate(lam) - exact)) < 5e-6


def test_graph_partition_reconstruction():
    """Cluster derivatives of the log equal the coloring-weighted sum over
    connected partitions of derivatives of the state series."""
    h = ising_pauli_chain(4)
    layer = ChannelLayer((bitflip(1, 0.2),))
    g = build_dual_graph(h)
    s = series_of_channelled_gibbs(h, 0.45, layer, 4)
    ls = log_series(s)
    for w in enumerate_connected_clusters(g, 4):
        ig = interaction_graph_of_cluster(w, g)
        verts = []
        for a, m in w.multiplicities:
            verts += [a] * m
        total = np.zeros((s.dim, s.dim), dtype=complex)
        for blocks in enumerate_connected_partitions(ig):
            weight = float(coloring_weight(quotient_graph(ig, blocks)))
            prod = np.eye(s.dim, dtype=complex)
            for blk in blocks:
                mult: dict = {}
                for v in sorted(blk):
                    mult[verts[v]] = mult.get(verts[v], 0) + 1
                prod = prod @ cluster_derivative(s, Cluster(tuple(sorted(mult.items()))))
            total += weight * prod
        got = cluster_derivative(ls, w)
        assert np.max(np.abs(got - total)) < 1e-9, w


def test_certificate_passes_high_temperature():
    h = ising_pauli_chain(4)
    layer = ChannelLayer((bitflip(1, 0.2), bitflip(2, 0.2)))
    rep = derivative_norm_certificate(h, 0.05, layer, 4)
    assert rep["pass"] and rep["violations"] == 0
    assert len(rep["clusters"]) > 0


def test_certificate_reports_norms_below_bounds():
    h = ising_pauli_chain(4)
    rep = derivative_norm_certificate(h, 0.1, ChannelLayer(()), 3)
    for e in rep["clusters"]:
        assert e["norm"] <= e["bound"] + 1e-12


def test_pinned_series_checks():
    h = ising_diag_chain(4)
    t = np.array([[0.9, 0.1], [0.1, 0.9]])
    layer = ChannelLayer((transition_channel(1, t), transition_channel(2, t)))
    for y1 in range(2):
        for y2 in range(2):
            pin = pinned_hamiltonian(h, 0.3, layer, {1: y1, 2: y2})
            rep = pinned_series_check(pin, 3)
            assert rep["pass"], rep


def test_pinned_series_degree0():
    h = ising_diag_chain(3)
    t = np.array([[0.8, 0.2], [0.2, 0.8]])
    pin = pinned_hamiltonian(h, 0.4, ChannelLayer((transition_channel(1, t),)), {1: 0})
    s = pinned_traced_series(pin, {1}, 2)
    assert np.max(np.abs(s.get(()) - np.eye(s.dim))) < 1e-10


def test_weight_cap():
    h = ising_pauli_chain(3)
    g = build_dual_graph(h)
    with pytest.raises(ValueError, match="cap"):
        enumerate_connected_clusters(g, 9)


@st.composite
def random_dual_graphs(draw):
    """Dual graphs of up to 10 terms with random supports on up to 8 sites."""
    n = draw(st.integers(1, 8))
    supports = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=3), max_size=10))
    terms = tuple(HamiltonianTerm(tuple(sorted(s)), np.zeros((2,) * len(s)), 0.0) for s in supports)
    return build_dual_graph(LocalHamiltonian(SiteGraph(n), terms))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(random_dual_graphs(), st.integers(1, 5), st.none() | st.sets(st.integers(0, 7), max_size=3))
def test_cluster_growth_matches_subset_scan(g, max_weight, anchor):
    """Grown clusters equal the scan over every term subset, order included."""
    got = enumerate_connected_clusters(g, max_weight, anchor)
    assert got == brute_connected_clusters(g, max_weight, anchor)


def test_cluster_budget(monkeypatch):
    """The budget stops the 2x3 lattice while its connected term sets grow
    past 10, and the 3-bond chain, whose 6 term sets fit a budget of 6, at
    its clusters."""
    monkeypatch.setattr(series, "CLUSTER_COUNT_CAP", 10)
    with pytest.raises(ValueError, match="cluster enumeration budget exceeded"):
        connected_term_sets(build_dual_graph(lattice_2x3()), 4, None)
    monkeypatch.setattr(series, "CLUSTER_COUNT_CAP", 6)
    chain = build_dual_graph(ising_pauli_chain(4))
    assert len(connected_term_sets(chain, 4, None)) == 6
    with pytest.raises(ValueError, match="cluster enumeration budget exceeded"):
        enumerate_connected_clusters(chain, 4)


@st.composite
def admitted_cases(draw):
    """A commuting Pauli model with dependent signed terms on up to 6 qubits,
    its Pauli-diagonal layer composed with complete depolarization on a
    random set of sites, a partition and a weight <= 4.  At beta ~ 1e-3 and
    below some clusters exceed their bound."""
    h, beta, layer = draw(dependent_commuting_models(max_qubits=6))
    beta = draw(st.sampled_from((beta, beta / 1000)))
    n = h.site_graph.n_sites
    layer = compose_with_trace(layer, draw(st.sets(st.integers(0, n - 1), max_size=n - 1)))
    a, c, *rest = draw(st.permutations(range(n)))
    roles = {a: "a", c: "c"} | dict(zip(rest, draw(st.lists(st.sampled_from("abc-"), min_size=len(rest), max_size=len(rest)))))
    a, b, c = (frozenset(s for s, x in roles.items() if x == r) for r in "abc")
    return h, beta, layer, Partition(a, b, c), draw(st.integers(1, 4))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(admitted_cases())
def test_character_basis_matches_dense(case):
    """Certificates and CMI-operator series in the character basis of the
    term group agree with the dense series: norms and coefficients to 1e-12
    (a missing key reads zero), and the same clusters pass."""
    h, beta, layer, p, weight = case
    assert series._series_builder(h, layer) is series._character_series
    rep = derivative_norm_certificate(h, beta, layer, weight)
    want = dense_certificate_norms(h, beta, layer, weight)
    assert [tuple(zip(e["terms"], e["multiplicities"])) for e in rep["clusters"]] == list(want)
    for e, norm in zip(rep["clusters"], want.values()):
        assert abs(e["norm"] - norm) < 1e-12
        assert e["pass"] == (norm <= e["bound"] + 1e-12)
    got = cmi_operator_series(h, beta, layer, p, weight).coeffs
    want = dense_cmi_series(h, beta, layer, p, weight)
    for k in set(got) | set(want):
        assert np.max(np.abs(got.get(k, 0) - want.get(k, 0))) < 1e-12, k


# (1/W!) ||D_W log E[rho]|| per cluster at beta = 0.3, weight 3, as the dense
# path computes them
T_085 = np.array([[0.85, 0.15], [0.15, 0.85]])
DIAG_NORMS = [0.21, 0.02295, 0.003213, 0.147, 0.0341955, 0.003351159, 0.21, 0.02295,
              0.003213, 0.03213, 0.00472311, 0.0067473, 0.03213, 0.0067473, 0.00472311, 0.0070227]
NONCOMMUTING_NORMS = [0.3, 0.0, 0.0, 0.18, 0.0288, 0.003456, 0.3, 0.0,
                      0.0, 0.054, 0.00324, 0.0054, 0.054, 0.0054, 0.00324, 0.0216]


def test_dense_route_cases_keep_their_values():
    """Diagonal tables under transition channels and a non-commuting model
    are not admitted to the character basis, and the pinned traced series
    always has matrix coefficients; their values stay those of the dense
    path."""
    hd = ising_diag_chain(4)
    ld = ChannelLayer((transition_channel(1, T_085), transition_channel(2, T_085)))
    hn = LocalHamiltonian(
        SiteGraph(3),
        (
            HamiltonianTerm((0, 1), PauliString.from_label("XXI"), 0.7),
            HamiltonianTerm((1, 2), PauliString.from_label("IZZ"), -0.5),
            HamiltonianTerm((2,), PauliString.from_label("IIX"), 0.4),
        ),
    )
    ln = ChannelLayer((bitflip(1, 0.2),))
    for h, layer, norms in ((hd, ld, DIAG_NORMS), (hn, ln, NONCOMMUTING_NORMS)):
        assert series._series_builder(h, layer) is series_of_channelled_gibbs
        rep = derivative_norm_certificate(h, 0.3, layer, 3)
        assert rep["pass"]
        assert np.max(np.abs(np.array([e["norm"] for e in rep["clusters"]]) - norms)) < 1e-12
    cs = cmi_operator_series(hd, 0.3, ld, boundary(4), 4)
    big = {k: spectral_norm(m) for k, m in cs.coeffs.items() if spectral_norm(m) > 1e-12}
    want = {
        ((0, 1), (1, 1), (2, 1)): 0.0070227,
        ((0, 1), (1, 1), (2, 2)): 0.001474767,
        ((0, 2), (1, 1), (2, 1)): 0.001474767,
        ((0, 1), (1, 2), (2, 1)): 0.0020646738,
    }
    assert set(big) == set(want)
    assert all(abs(big[k] - v) < 1e-12 for k, v in want.items())
    pin = pinned_hamiltonian(hd, 0.3, ld, {1: 0, 2: 1})
    ls = log_series(pinned_traced_series(pin, {1, 2}, 3))
    assert ls.group is None
    got = [spectral_norm(cluster_derivative(ls, w)) / w.factorial
           for w in enumerate_connected_clusters(build_dual_graph(hd), 3)]
    assert np.max(np.abs(np.array(got) - DIAG_NORMS)) < 1e-12


@pytest.mark.parametrize("route", ["characters", "matrices"])
def test_cmi_series_keeps_no_float_noise(route):
    """2x3 ZZ lattice, A = {0}, C = {5}, noise on B: the three shortest A-C
    paths are the only clusters of weight <= 3 that join A to C, so after the
    floor the series has no key at weight 2 and exactly those three at
    weight 3, on either route."""
    h = lattice_2x3()
    b = (1, 2, 3, 4)
    if route == "characters":
        layer = ChannelLayer(tuple(bitflip(s, 0.2) for s in b))
    else:
        layer = ChannelLayer(tuple(transition_channel(s, [[0.8, 0.2], [0.2, 0.8]]) for s in b))
    p = Partition(frozenset({0}), frozenset(b), frozenset({5}))
    assert not cmi_operator_series(h, 0.03, layer, p, 2).coeffs
    s = cmi_operator_series(h, 0.03, layer, p, 3)
    paths = {((0, 1), (1, 1), (6, 1)), ((2, 1), (3, 1), (4, 1)), ((0, 1), (3, 1), (5, 1))}
    assert set(s.coeffs) == paths
    assert all(spectral_norm(m) > 1e-8 for m in s.coeffs.values())


def test_series_matches_factor_product():
    """Each coefficient, built from its prefix key's, equals the m-fold
    product of per-term factor series with the layer applied after: diagonal
    tables under transition channels, a non-commuting model, and a pinning
    prefactor (diagonal, mean 1 on each traced site) under traced sites."""
    hd = LocalHamiltonian(
        SiteGraph(5),
        tuple(HamiltonianTerm((i, i + 1), np.array([[1.0, -0.6], [-0.6, 0.8]]), -0.8) for i in range(4)),
    )
    ld = ChannelLayer(tuple(transition_channel(s, T_085) for s in (1, 2, 3)))
    hn = LocalHamiltonian(
        SiteGraph(3),
        (
            HamiltonianTerm((0, 1), PauliString.from_label("XXI"), 0.7),
            HamiltonianTerm((1, 2), PauliString.from_label("IZZ"), -0.5),
            HamiltonianTerm((2,), PauliString.from_label("IIX"), 0.4),
        ),
    )
    ln = ChannelLayer((bitflip(1, 0.2),))
    pin = np.ones((2,) * 4)
    pin = pin * np.array([0.4, 1.6]).reshape(1, 2, 1, 1) * np.array([1.3, 0.7]).reshape(1, 1, 2, 1)
    lp = compose_with_trace(ChannelLayer(), {1, 2}, 2)
    cases = [
        (hd, 0.2, ld, 4, None),
        (hn, 0.3, ln, 4, None),
        (ising_diag_chain(4), 0.3, lp, 4, np.diag(pin.ravel())),
    ]
    for h, beta, layer, degree, pre in cases:
        got = series_of_channelled_gibbs(h, beta, layer, degree, prefactor=pre).coeffs
        want = factor_product_series(h, beta, layer, degree, prefactor=pre)
        assert set(got) <= set(want) == set(_monomials(len(h.terms), degree))
        for k in want:
            assert np.max(np.abs(got.get(k, 0) - want[k])) < 1e-14, k
