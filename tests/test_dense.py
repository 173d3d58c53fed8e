import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hmnlab import classical, dense
from hmnlab.channels import (
    ChannelLayer,
    SiteChannel,
    bitflip,
    dephasing,
    depolarizing,
    transition_channel,
)
from hmnlab.experiments import cmi
from hmnlab.model import HamiltonianTerm, LocalHamiltonian, Partition, SiteGraph
from hmnlab.pauli import expand_gibbs
from tests.conftest import (
    brute_apply_layer,
    brute_gibbs_probs,
    commuting_product_gibbs,
    dependent_commuting_models,
    ising_diag_chain,
    ising_pauli_chain,
    random_commuting_pauli_model,
    random_pauli_diagonal_layer,
)


def boundary(n):
    return Partition(frozenset({0}), frozenset(range(1, n - 1)), frozenset({n - 1}))


def test_term_matrix_pauli():
    h = ising_pauli_chain(2)
    z = np.diag([1.0, -1.0])
    assert np.allclose(dense.term_matrix(h.site_graph, h.terms[0], bare=True), np.kron(z, z))
    assert np.allclose(dense.term_matrix(h.site_graph, h.terms[0]), -np.kron(z, z))


def test_term_matrix_diag_embedding():
    g = SiteGraph(3)
    t = HamiltonianTerm((0, 2), np.array([[0.0, 1.0], [-1.0, 0.5]]), 1.0)
    m = dense.term_matrix(g, t)
    # site 1 is free: diagonal entry depends only on digits 0 and 2
    diag = np.diag(m).real.reshape(2, 2, 2)
    for s in range(2):
        assert np.allclose(diag[:, s, :], [[0.0, 1.0], [-1.0, 0.5]])


def test_gibbs_matches_classical_for_diagonal():
    h = ising_diag_chain(4)
    rho = dense.gibbs_state(h, 0.55)
    assert np.allclose(np.diag(rho.entries).real, brute_gibbs_probs(h, 0.55))


def test_gibbs_infinite_temperature():
    h = ising_pauli_chain(3)
    rho = dense.gibbs_state(h, 0.0)
    assert np.allclose(rho.entries, np.eye(8) / 8)


def test_gibbs_beta_inf_ground_space():
    h = ising_pauli_chain(3)
    rho = dense.gibbs_state(h, math.inf)
    # ZZ ferromagnet: ground space spanned by |000> and |111>
    expect = np.zeros((8, 8))
    expect[0, 0] = expect[7, 7] = 0.5
    assert np.max(np.abs(rho.entries - expect)) < 1e-12


def test_apply_layer_transition_matches_classical():
    h = ising_diag_chain(4)
    t = np.array([[0.7, 0.2], [0.3, 0.8]])
    layer = ChannelLayer((transition_channel(2, t),))
    rho = dense.apply_layer(dense.gibbs_state(h, 0.5), layer)
    d = classical.apply_transitions(classical.gibbs_distribution(h, 0.5), layer)
    assert np.allclose(np.diag(rho.entries).real, d.probs)


def random_channels(rng, q, site):
    """A transition, a Kraus and (for q a power of two) a Pauli-mixture
    channel on ``site``, each drawn at random."""
    t = rng.uniform(0, 1, (q, q))
    # the k blocks of a random isometry are Kraus operators of a channel
    v, _ = np.linalg.qr(rng.normal(size=(3 * q, q)) + 1j * rng.normal(size=(3 * q, q)))
    out = [
        transition_channel(site, t / t.sum(axis=0)),
        SiteChannel(site, kraus=tuple(v[i * q : (i + 1) * q] for i in range(3))),
    ]
    if q in (2, 4):
        out.append(depolarizing(site, float(rng.uniform(0, 1)), q))
    return out


@pytest.mark.parametrize("q", [2, 3, 4])
def test_contracted_layer_matches_kron_oracle(q):
    """Every channel kind on an end site and on the middle site of three,
    alone and in a layer with the other kinds, on one matrix and on a stack."""
    rng = np.random.default_rng(q)
    g = SiteGraph(3, q)
    m = rng.normal(size=(g.dim, g.dim)) + 1j * rng.normal(size=(g.dim, g.dim))
    stack = rng.normal(size=(2, 3, g.dim, g.dim)) + 1j * rng.normal(size=(2, 3, g.dim, g.dim))
    layers = [ChannelLayer((c,)) for s in (0, 1, 2) for c in random_channels(rng, q, s)]
    kinds = [random_channels(rng, q, s) for s in (0, 1, 2)]
    for shift in range(len(kinds[0])):  # each kind once on every site
        layers.append(ChannelLayer(tuple(k[(s + shift) % len(k)] for s, k in enumerate(kinds))))
    for layer in layers:
        got = dense.apply_layer_to_matrix(m, layer, g)
        assert np.max(np.abs(got - brute_apply_layer(m, layer, g))) < 1e-12
        got = dense.apply_layer_to_matrix(stack, layer, g)
        assert got.shape == stack.shape
        for i, j in np.ndindex(2, 3):
            assert np.max(np.abs(got[i, j] - brute_apply_layer(stack[i, j], layer, g))) < 1e-12


def test_partial_trace_pure_entangled():
    g = SiteGraph(2)
    psi = np.zeros(4)
    psi[0] = psi[3] = 1 / math.sqrt(2)
    rho = dense.DensityMatrix(np.outer(psi, psi).astype(complex), g)
    red = dense.partial_trace(rho, [0])
    assert np.allclose(red.entries, np.eye(2) / 2)
    assert dense.region_entropy(rho, {0}) == pytest.approx(1.0)


def test_partial_trace_keeps_order():
    rng = np.random.default_rng(5)
    g = SiteGraph(3)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    m = a @ a.conj().T
    m /= np.trace(m).real
    rho = dense.DensityMatrix(m, g)
    # tracing site 1 then site 0 == tracing both at once
    step = dense.partial_trace(dense.partial_trace(rho, [0, 2]), [1])
    once = dense.partial_trace(rho, [2])
    assert np.allclose(step.entries, once.entries)


def test_embed_operator_roundtrip():
    rng = np.random.default_rng(9)
    g = SiteGraph(3)
    op = rng.normal(size=(4, 4))
    emb = dense.embed_operator(op, [0, 2], g)
    # trace against site-1 identity recovers 2 * op
    back = dense.partial_trace_matrix(emb, [0, 2], g)
    assert np.allclose(back, 2 * op)


def test_entropy_values():
    g = SiteGraph(1)
    assert dense.von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0)
    assert dense.von_neumann_entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0)
    p = 0.2
    hb = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
    assert dense.von_neumann_entropy(np.diag([p, 1 - p])) == pytest.approx(hb)


def test_cmi_matches_classical_engine():
    h = ising_diag_chain(5)
    layer = ChannelLayer((transition_channel(2, [[0.8, 0.2], [0.2, 0.8]]),))
    rho = dense.apply_layer(dense.gibbs_state(h, 0.45), layer)
    d = classical.apply_transitions(classical.gibbs_distribution(h, 0.45), layer)
    p = boundary(5)
    assert cmi(dense, rho, p) == pytest.approx(cmi(classical, d, p), abs=1e-10)


def test_unchannelled_gibbs_is_markov():
    for h in (ising_pauli_chain(5), ising_diag_chain(5)):
        rho = dense.gibbs_state(h, 0.8)
        assert cmi(dense, rho, boundary(5)) <= 1e-9


def test_ssa_random_quantum(rng):
    """Strong subadditivity on channelled commuting Gibbs states."""
    for _ in range(25):
        n = 4
        h = random_commuting_pauli_model(rng, n, max_terms=4)
        layer = random_pauli_diagonal_layer(rng, n, max_sites=2)
        rho = dense.apply_layer(dense.gibbs_state(h, float(rng.uniform(0, 1.5))), layer)
        p = boundary(n)
        assert cmi(dense, rho, p) >= -1e-8


def test_dense_dim_cap():
    h = ising_pauli_chain(13)
    with pytest.raises(ValueError, match="dense cap"):
        dense.gibbs_state(h, 0.1)


def test_cmi_operator_trace_identity():
    """-Tr(rho_E * H_op) reproduces the channelled CMI in nats."""
    h = ising_pauli_chain(4)
    beta = 0.7
    layer = ChannelLayer((bitflip(1, 0.2), bitflip(2, 0.2)))
    p = boundary(4)
    op = dense.cmi_operator(h, beta, layer, p)
    rho = dense.apply_layer(dense.gibbs_state(h, beta), layer)
    lhs = -np.trace(rho.entries @ op.matrix).real
    cmi_nats = cmi(dense, rho, p) * math.log(2)
    assert lhs == pytest.approx(cmi_nats, abs=1e-12)


def test_cmi_operator_zero_without_coupling():
    """Dephasing commutes with a ZZ chain, so the operator vanishes."""
    h = ising_pauli_chain(4)
    layer = ChannelLayer((dephasing(1, 0.3), dephasing(2, 0.3)))
    op = dense.cmi_operator(h, 0.6, layer, boundary(4))
    assert op.norm < 1e-12


def test_cmi_operator_rejects_cold():
    h = ising_pauli_chain(4)
    layer = ChannelLayer(())
    with pytest.raises(ValueError, match="temperature"):
        dense.cmi_operator(h, 20.0, layer, boundary(4))


@st.composite
def diagonal_models(draw):
    """Diagonal models of one- and two-site terms on 3-5 sites (q = 2) or
    3-4 sites (q = 3), a beta, a random transition layer and a random
    partition."""
    q = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(3, 5 if q == 2 else 4))
    terms = []
    for width in draw(st.lists(st.integers(1, 2), min_size=1, max_size=5)):
        support = tuple(draw(st.lists(st.integers(0, n - 1), min_size=width, max_size=width, unique=True)))
        table = draw(st.lists(st.floats(-1, 1), min_size=q**width, max_size=q**width))
        terms.append(HamiltonianTerm(support, np.reshape(table, (q,) * width), draw(st.floats(-1, 1))))
    layer = []
    for site in draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)):
        cols = np.reshape(draw(st.lists(st.floats(0.01, 1), min_size=q * q, max_size=q * q)), (q, q))
        layer.append(transition_channel(site, cols / cols.sum(axis=0)))
    labels = draw(st.lists(st.sampled_from("abcx"), min_size=n, max_size=n))
    assume("a" in labels and "c" in labels)
    p = Partition(*(frozenset(i for i, x in enumerate(labels) if x == r) for r in "abc"))
    h = LocalHamiltonian(SiteGraph(n, q), tuple(terms))
    return h, draw(st.floats(0.05, 3.0)), ChannelLayer(tuple(layer)), p


@settings(max_examples=40, deadline=None, derandomize=True)
@given(diagonal_models())
def test_classical_cmi_matches_dense(model):
    """The one CMI agrees between the classical and dense engines on random
    diagonal models under random transition layers."""
    h, beta, layer, p = model
    c = cmi(classical, classical.prepare(h, beta, layer), p)
    d = cmi(dense, dense.prepare(h, beta, layer), p)
    assert c == pytest.approx(d, abs=1e-10)


def test_diagonal_term_matrix_matches_energy_table():
    """q = 3 with a 3-site term listed in mixed site order: the dense diagonal
    is the classical energy table, and each entry is the tables read at that
    configuration's digits."""
    rng = np.random.default_rng(5)
    terms = (
        HamiltonianTerm((2, 0, 3), rng.uniform(-1, 1, (3, 3, 3)), 0.7),
        HamiltonianTerm((1,), rng.uniform(-1, 1, 3), -0.4),
    )
    h = LocalHamiltonian(SiteGraph(4, q=3), terms)
    m = dense.hamiltonian_matrix(h)
    diag = np.diag(m)
    assert np.count_nonzero(m - np.diag(diag)) == 0
    assert np.max(np.abs(diag - classical.energy_table(h).ravel())) < 1e-15
    for idx, cfg in enumerate(itertools.product(range(3), repeat=4)):
        want = sum(t.coefficient * t.operator[tuple(cfg[s] for s in t.support)] for t in terms)
        assert abs(diag[idx] - want) < 1e-15


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dependent_commuting_models())
def test_gibbs_state_matches_product_and_pauli(model):
    """On commuting Pauli models with signed dependent terms, the one-eigh
    Gibbs state is the product of per-term exponentials and the pauli
    engine's expansion."""
    h, beta, _ = model
    rho = dense.gibbs_state(h, beta).entries
    assert np.max(np.abs(rho - commuting_product_gibbs(h, beta))) < 1e-10
    assert np.max(np.abs(rho - expand_gibbs(h, beta).to_matrix())) < 1e-10


@settings(max_examples=40, deadline=None, derandomize=True)
@given(diagonal_models())
def test_gibbs_state_matches_product_on_diagonal_tables(model):
    h, beta, _, _ = model
    rho = dense.gibbs_state(h, beta).entries
    assert np.max(np.abs(rho - commuting_product_gibbs(h, beta))) < 1e-10
