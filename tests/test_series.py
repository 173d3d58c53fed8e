import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmnlab import dense, pauli, series, zoo
from hmnlab.channels import ChannelLayer, bitflip, compose_with_trace, dephasing, depolarizing, transition_channel
from hmnlab.combinatorics import (
    Cluster,
    coloring_weight,
    enumerate_connected_partitions,
    interaction_graph_of_cluster,
    quotient_graph,
)
from hmnlab.model import HamiltonianTerm, LocalHamiltonian, Partition, PauliString, SiteGraph, build_dual_graph
from hmnlab.series import (
    _monomials,
    cmi_operator_series,
    connected_term_sets,
    connects,
    derivative_norm_certificate,
    enumerate_connected_clusters,
    log_series,
    series_of_channelled_gibbs,
    spectral_norm,
)
from tests import conftest
from tests.conftest import (
    anchored_clusters,
    brute_connected_clusters,
    character_matrices,
    cluster_derivative,
    dense_certificate_norms,
    dense_cmi_series,
    dependent_commuting_models,
    evaluate_series,
    exact_cmi_operator,
    factor_product_series,
    ising_diag_chain,
    ising_pauli_chain,
    lattice_2x3,
    naive_series_product,
    per_cluster_certificate,
    per_key_character_series,
    pinned_hamiltonian,
    pinned_series_check,
    pinned_traced_series,
    series_from_dict,
)


def boundary(n):
    return Partition(frozenset({0}), frozenset(range(1, n - 1)), frozenset({n - 1}))


def test_series_product_collects_cross_terms():
    eye = np.eye(2, dtype=complex)
    a = series_from_dict(2, 3, eye, {(): eye, ((0, 1),): 2 * eye})
    b = series_from_dict(2, 3, eye, {(): eye, ((1, 1),): 3 * eye})
    c = a * b
    assert np.allclose(c.get(((0, 1), (1, 1))), 6 * eye)
    assert np.allclose(c.get(((0, 1),)), 2 * eye)


def test_series_truncation_drops_high_degree():
    eye = np.eye(2, dtype=complex)
    a = series_from_dict(1, 1, eye, {(): eye, ((0, 1),): eye})
    c = a * a
    assert c.get(((0, 2),)).max() == 0.0


def random_series(rng, n_vars, max_degree, unit, n_keys, empty_key=True):
    """A series with n_keys random coefficients at random exponent keys of
    weight <= max_degree (the empty key included if ``empty_key``): complex
    (dim, dim) matrices for a matrix unit, real character values for a
    vector one."""
    keys = {()} if empty_key else set()
    while len(keys) < n_keys:
        acc = {}
        for _ in range(int(rng.integers(1, max_degree + 1))):
            a = int(rng.integers(n_vars))
            acc[a] = acc.get(a, 0) + 1
        keys.add(tuple(sorted(acc.items())))

    def draw():
        x = rng.normal(size=unit.shape)
        return x + 1j * rng.normal(size=unit.shape) if unit.ndim == 2 else x

    return series_from_dict(n_vars, max_degree, unit, {k: draw() for k in keys})


def assert_product_matches_naive(a, b):
    got = a * b
    want = naive_series_product(a, b)
    assert set(got.coeffs) == set(want)
    for k, m in want.items():
        assert np.max(np.abs(got.coeffs[k] - m)) < 1e-12


@pytest.mark.parametrize("blocks_of", [None, 3], ids=["default_blocks", "blocks_of_three"])
def test_series_product_matches_naive_pairs(monkeypatch, blocks_of):
    """Random series whose key pairs partly exceed the truncation degree, with
    4x4 matrix coefficients (matmul) and with 2^3 character values
    (elementwise, the product the character route runs); the second case
    splits the partners into blocks of three.  A last case has no empty key
    and zero rows between its nonzero ones, inside every partner prefix."""
    rng = np.random.default_rng(7)
    for unit in (np.eye(4, dtype=complex), np.ones(8)):
        if blocks_of:
            monkeypatch.setattr(series, "_BLOCK_BYTES", blocks_of * unit.nbytes)
        for max_degree, n_keys in ((2, 6), (3, 12), (4, 20)):
            a = random_series(rng, 4, max_degree, unit, n_keys)
            b = random_series(rng, 4, max_degree, unit, n_keys)
            weights = [sum(m for _, m in k1 + k2) for k1 in a.coeffs for k2 in b.coeffs]
            assert max(weights) > max_degree  # some pairs fall to the truncation
            assert_product_matches_naive(a, b)
        a = random_series(rng, 4, 3, unit, 12)
        b = random_series(rng, 4, 3, unit, 8, empty_key=False)
        b.stack[_monomials(4, 3).index(((1, 1),))] = 0
        rows = np.flatnonzero(np.any(b.stack.reshape(len(b.stack), -1) != 0, axis=1))
        assert rows[0] > 0 and len(rows) < rows[-1] - rows[0] + 1  # zero rows between
        assert_product_matches_naive(a, b)


def test_series_product_past_exact_key_codes():
    """40 variables at degree 2: 3^40 exceeds the code prime, so the key codes
    are reduced, and the product still matches the naive pairs."""
    assert 3**40 > series._CODE_PRIME
    rng = np.random.default_rng(11)
    unit = np.ones(4)
    a = random_series(rng, 40, 2, unit, 30)
    b = random_series(rng, 40, 2, unit, 30)
    assert_product_matches_naive(a, b)


def test_key_codes_that_collide_are_refused(monkeypatch):
    """A code prime too small for the keys makes two codes equal: the index
    is refused rather than built with a wrong product row."""
    monkeypatch.setattr(series, "_CODE_PRIME", 7)
    with pytest.raises(ValueError, match="share a code"):
        series._key_index.__wrapped__(3, 2)


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
        errs.append(np.max(np.abs(evaluate_series(s, lam) - exact)))
    assert errs[1] < errs[0] * 1e-3
    assert errs[1] < 1e-6


def test_log_series_inverts_exp():
    """exp of the log series recovers the series term by term (degree 3)."""
    h = ising_pauli_chain(3)
    layer = ChannelLayer(())
    s = series_of_channelled_gibbs(h, 0.4, layer, 3)
    ls = log_series(s)
    # exp(L) = I + L + L^2/2 + L^3/6
    rebuilt = series_from_dict(s.n_terms, 3, s.unit, {(): s.unit})
    power = ls
    for n in range(1, 4):
        rebuilt.stack += (1.0 / math.factorial(n)) * power.stack
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
        ha = dense.term_matrix(h.site_graph, t)
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
    anchored = anchored_clusters(g, 2, {0})
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
    s = character_matrices(cmi_operator_series(h, beta, layer, p, 6), h)
    lam = {a: t.coefficient for a, t in enumerate(h.terms)}
    exact = exact_cmi_operator(h, beta, layer, p)
    # truncation error at D=6, well below the ~2.7e-3 operator scale
    assert np.max(np.abs(evaluate_series(s, lam) - exact)) < 5e-6


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
        total = s.zeros()
        for blocks in enumerate_connected_partitions(ig):
            weight = float(coloring_weight(quotient_graph(ig, blocks)))
            prod = s.unit
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
    rep = derivative_norm_certificate(series.plan(h, layer, 4), 0.05)
    assert rep["pass"] and rep["violations"] == 0
    assert len(rep["clusters"]) > 0


def test_certificate_reports_norms_below_bounds():
    h = ising_pauli_chain(4)
    rep = derivative_norm_certificate(series.plan(h, ChannelLayer(()), 3), 0.1)
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


def test_pinned_series_check_reports_violations(monkeypatch):
    """Every coefficient but the identity's scaled by 50: the series no
    longer factorizes over the disconnected bonds (0, 1) and (2, 3), and its
    connected derivatives exceed beta^|V|, so the check fails on both."""
    h = ising_diag_chain(4)
    t = np.array([[0.9, 0.1], [0.1, 0.9]])
    pin = pinned_hamiltonian(h, 0.3, ChannelLayer((transition_channel(1, t), transition_channel(2, t))), {1: 0, 2: 1})
    real = conftest.pinned_traced_series

    def scaled(pin, max_degree):
        s = real(pin, max_degree)
        stack = 50 * s.stack
        stack[0] = s.stack[0]  # rows go by degree: row 0 is the key (), which stays I
        return dataclasses.replace(s, stack=stack)

    monkeypatch.setattr(conftest, "pinned_traced_series", scaled)
    rep = pinned_series_check(pin, 3)
    assert rep["degree0_identity"] is True
    assert rep["disconnected_ok"] is False and rep["max_disconnected_log_norm"] > 1e-9
    assert rep["beta_power_violations"]
    assert rep["pass"] is False


def test_pinned_series_degree0():
    h = ising_diag_chain(3)
    t = np.array([[0.8, 0.2], [0.2, 0.8]])
    pin = pinned_hamiltonian(h, 0.4, ChannelLayer((transition_channel(1, t),)), {1: 0})
    s = pinned_traced_series(pin, 2)
    assert np.max(np.abs(s.get(()) - s.unit)) < 1e-10


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
    got = enumerate_connected_clusters(g, max_weight) if anchor is None else anchored_clusters(g, max_weight, anchor)
    assert got == brute_connected_clusters(g, max_weight, anchor)


def test_cluster_budget(monkeypatch):
    """The budget stops the 2x3 lattice while its connected term sets grow
    past 10, and the 3-bond chain, whose 6 term sets fit a budget of 6, at
    its clusters."""
    monkeypatch.setattr(series, "CLUSTER_COUNT_CAP", 10)
    with pytest.raises(ValueError, match="cluster enumeration budget exceeded"):
        connected_term_sets(build_dual_graph(lattice_2x3()), 4)
    monkeypatch.setattr(series, "CLUSTER_COUNT_CAP", 6)
    chain = build_dual_graph(ising_pauli_chain(4))
    assert len(connected_term_sets(chain, 4)) == 6
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
    layer = compose_with_trace(layer, draw(st.sets(st.integers(0, n - 1), max_size=n - 1)), 2)
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
    assert series._series_builder(h, layer).func is series._character_series
    rep = derivative_norm_certificate(series.plan(h, layer, weight), beta)
    want = dense_certificate_norms(h, beta, layer, weight)
    assert [tuple(zip(e["terms"], e["multiplicities"])) for e in rep["clusters"]] == list(want)
    for e, norm in zip(rep["clusters"], want.values()):
        assert abs(e["norm"] - norm) < 1e-12
        assert e["pass"] == (norm <= e["bound"] + 1e-12)
    got = character_matrices(cmi_operator_series(h, beta, layer, p, weight), h).coeffs
    want = dense_cmi_series(h, beta, layer, p, weight)
    for k in set(got) | set(want):
        assert np.max(np.abs(got.get(k, 0) - want.get(k, 0))) < 1e-12, k


def test_series_refuse_non_commuting_terms():
    """X on 0, ZZ on (0, 1) and X on 1 do not commute: the certificate and the
    CMI-operator series refuse the model for library callers too."""
    ops = (("XI", (0,)), ("ZZ", (0, 1)), ("IX", (1,)))
    h = LocalHamiltonian(SiteGraph(2), tuple(HamiltonianTerm(s, PauliString.from_label(lab), -0.9) for lab, s in ops))
    with pytest.raises(ValueError, match="certificates need commuting terms"):
        series.plan(h, ChannelLayer(), 3)
    p = Partition(frozenset({0}), frozenset(), frozenset({1}))
    with pytest.raises(ValueError, match="certificates need commuting terms"):
        cmi_operator_series(h, 0.05, ChannelLayer(), p, 3)


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
    path.  The non-commuting model's norms are read off its series, since
    its certificate is refused."""
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
    for h, layer in ((hd, ld), (hn, ln)):
        assert series._series_builder(h, layer) is series_of_channelled_gibbs
    rep = derivative_norm_certificate(series.plan(hd, ld, 3), 0.3)
    assert rep["pass"]
    assert np.max(np.abs(np.array([e["norm"] for e in rep["clusters"]]) - DIAG_NORMS)) < 1e-12
    got = list(dense_certificate_norms(hn, 0.3, ln, 3).values())
    assert np.max(np.abs(np.array(got) - NONCOMMUTING_NORMS)) < 1e-12
    with pytest.raises(ValueError, match="certificates need commuting terms"):
        series.plan(hn, ln, 3)
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
    ls = log_series(pinned_traced_series(pin, 3))
    assert ls.unit.ndim == 2
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
    tables under transition channels and a non-commuting model."""
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
    for h, beta, layer, degree in ((hd, 0.2, ld, 4), (hn, 0.3, ln, 4)):
        got = series_of_channelled_gibbs(h, beta, layer, degree).coeffs
        want = factor_product_series(h, beta, layer, degree)
        assert set(got) <= set(want) == set(_monomials(len(h.terms), degree))
        for k in want:
            assert np.max(np.abs(got.get(k, 0) - want[k])) < 1e-14, k


def test_pinned_traced_series_matches_factor_product():
    """The pinned traced series, the thermal series times the pinning
    factors and then traced over the pinned sites, equals the m-fold product
    of per-term factor series after the same prefactor (diagonal, mean 1 on
    each traced site) with the trace applied after.  Outcome 0 under these
    transitions pins site 1 by (0.4, 1.6) and site 2 by (1.3, 0.7)."""
    h = ising_diag_chain(4)
    t1 = np.array([[0.2, 0.8], [0.8, 0.2]])
    t2 = np.array([[0.65, 0.35], [0.35, 0.65]])
    pin = pinned_hamiltonian(h, 0.3, ChannelLayer((transition_channel(1, t1), transition_channel(2, t2))), {1: 0, 2: 0})
    pre = np.ones((2,) * 4) * np.array([0.4, 1.6]).reshape(1, 2, 1, 1) * np.array([1.3, 0.7]).reshape(1, 1, 2, 1)
    got = pinned_traced_series(pin, 4).coeffs
    lp = compose_with_trace(ChannelLayer(), {1, 2}, 2)
    want = factor_product_series(h, 0.3, lp, 4, prefactor=np.diag(pre.ravel()))
    assert set(got) == set(want) == set(_monomials(len(h.terms), 4))
    for k in want:
        assert np.max(np.abs(got[k] - want[k])) < 1e-14, k


def zz_model(n, edges, lam=-0.9):
    terms = [HamiltonianTerm(e, PauliString(n, 0, (1 << e[0]) | (1 << e[1])), lam) for e in edges]
    return LocalHamiltonian(SiteGraph(n), tuple(terms))


def signed_model():
    """XX, ZZ and YY on qubits 0-1 (YY = -XX ZZ enters with sigma = -1),
    then Z0Z1Z2Z3 and Z2Z3 (a product of two earlier terms)."""
    labelled = (("XXII", -0.7), ("ZZII", 0.4), ("YYII", -0.5), ("ZZZZ", -0.9), ("IIZZ", 0.6))
    n = 4
    terms = []
    for label, lam in labelled:
        p = PauliString.from_label(label)
        terms.append(HamiltonianTerm(tuple(i for i in range(n) if label[i] != "I"), p, lam))
    return LocalHamiltonian(SiteGraph(n), tuple(terms))


GRID_3X3 = [(3 * r + c, 3 * r + c + 1) for r in range(3) for c in range(2)] + [(i, i + 3) for i in range(6)]
CERTIFICATE_CASES = {
    "ising_chain_n6": lambda: (zoo.build_model("ising_chain", 6), zoo.bulk_layer("ising_chain", 6, 0.2)),
    "lattice_2x3": lambda: (lattice_2x3(), ChannelLayer(tuple(bitflip(s, 0.2) for s in (1, 2, 3, 4)))),
    "lattice_3x3": lambda: (zz_model(9, GRID_3X3), ChannelLayer(tuple(bitflip(s, 0.2) for s in range(1, 8)))),
    "zz_ring_n5": lambda: (zz_model(5, [(i, i + 1) for i in range(4)] + [(0, 4)]), ChannelLayer((bitflip(2, 0.3),))),
    "signed": lambda: (signed_model(), ChannelLayer((dephasing(1, 0.2), depolarizing(2, 0.3, 2)))),
    "matrix_route": lambda: (ising_diag_chain(6), zoo.bulk_layer("ising_chain", 6, 0.2)),
}


@pytest.mark.parametrize("beta", [1e-4, 0.01, 0.03])
@pytest.mark.parametrize("weight", range(1, 6))
@pytest.mark.parametrize("case", sorted(CERTIFICATE_CASES))
def test_certificate_path_matches_per_key_references_bit_for_bit(case, weight, beta):
    """The character series built from key-run arrays has the bytes of the
    per-key loop, and the report taken over cluster rows is the per-cluster
    loop's, on both routes; at beta 1e-4 the floor prunes rows.  The ring's
    closing bond is a dependent term, and the signed model has sigma = -1."""
    h, layer = CERTIFICATE_CASES[case]()
    build = series._series_builder(h, layer)
    if case == "matrix_route":
        assert build is series_of_channelled_gibbs
    else:
        gens, coords, signs = build.keywords["group"]
        assert (gens, coords, signs) == pauli.term_group(h)
        assert (-1 in signs) == (case == "signed")
        if case in ("zz_ring_n5", "signed"):  # a term that is a product of earlier ones
            assert sum(1 for b in coords if b) > len(gens)
        got, want = build(h, beta, layer, weight).stack, per_key_character_series(h, beta, layer, weight).stack
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
    rep = derivative_norm_certificate(series.plan(h, layer, weight), beta)
    ref = per_cluster_certificate(h, beta, layer, weight)
    assert rep == ref and json.dumps(rep) == json.dumps(ref)
