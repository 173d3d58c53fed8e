import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hmnlab import classical, dense, zoo
from hmnlab.channels import (
    ChannelLayer,
    bell_measurement,
    bitflip,
    dephasing,
    depolarizing,
    kraus_channel,
    transition_channel,
)
from hmnlab.experiments import cmi
from hmnlab.model import HamiltonianTerm, LocalHamiltonian, Partition, PauliString, SiteGraph
from hmnlab.pauli import expand_gibbs, plan, term_group
from hmnlab.series import spectral_norm
from tests.conftest import (
    brute_apply_layer,
    brute_gibbs_probs,
    brute_partial_trace,
    commuting_product_gibbs,
    dependent_commuting_models,
    eigh_gibbs,
    embed_operator,
    exact_cmi_operator,
    expansion_matrix,
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
    assert np.allclose(dense.term_matrix(h.site_graph, h.terms[0]), np.kron(z, z))


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
        kraus_channel(site, [v[i * q : (i + 1) * q] for i in range(3)]),
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
    red = dense.partial_trace_matrix(rho.entries, [0], rho.graph)
    assert np.allclose(red, np.eye(2) / 2)
    assert dense.region_entropy(rho, {0}) == pytest.approx(1.0)


def test_partial_trace_keeps_order():
    rng = np.random.default_rng(5)
    g = SiteGraph(3)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    m = a @ a.conj().T
    m /= np.trace(m).real
    rho = dense.DensityMatrix(m, g)
    # tracing site 1 then site 0 == tracing both at once
    outer = dense.partial_trace_matrix(rho.entries, [0, 2], rho.graph)
    step = dense.partial_trace_matrix(outer, [1], SiteGraph(2))
    once = dense.partial_trace_matrix(rho.entries, [2], rho.graph)
    assert np.allclose(step, once)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_partial_trace_matches_index_loop_on_every_region(q):
    """Every region of a 4-site graph, the empty and the full one included,
    on a matrix that is not Hermitian, so a ket and bra swap shows."""
    rng = np.random.default_rng(q)
    g = SiteGraph(4, q)
    m = (rng.normal(size=(g.dim, g.dim)) + 1j * rng.normal(size=(g.dim, g.dim))) / g.dim
    for k in range(5):
        for region in itertools.combinations(range(4), k):
            got = dense.partial_trace_matrix(m, region, g)
            assert np.max(np.abs(got - brute_partial_trace(m, region, g))) < 1e-14, region


def test_partial_trace_matches_index_loop_at_the_dense_cap():
    """12 qubits, 24 subscripts in the contraction: the largest matrix
    DENSE_DIM_CAP admits, traced down to regions of one to five sites."""
    rng = np.random.default_rng(12)
    g = SiteGraph(12)
    assert g.dim == dense.DENSE_DIM_CAP
    m = (rng.normal(size=(g.dim, g.dim)) + 1j * rng.normal(size=(g.dim, g.dim))) / g.dim
    for region in ([0], [0, 11], [5, 6], [1, 4, 10], [2, 3, 7, 8, 9]):
        got = dense.partial_trace_matrix(m, region, g)
        assert np.max(np.abs(got - brute_partial_trace(m, region, g))) < 1e-14, region


def test_embed_operator_roundtrip():
    rng = np.random.default_rng(9)
    g = SiteGraph(3)
    op = rng.normal(size=(4, 4))
    emb = embed_operator(op, [0, 2], g)
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


def test_region_entropy_refuses_a_negative_spectrum():
    """A spectrum value below -1e-10 raises (the rule lives in entropy_bits,
    shared by every engine); one of -1e-11 is rounding and drops."""
    rho = dense.DensityMatrix(np.diag([1 + 1e-9, -1e-9]), SiteGraph(1))
    with pytest.raises(ValueError, match="value -1e-09 < -1e-10"):
        dense.region_entropy(rho, {0})
    rho = dense.DensityMatrix(np.diag([1 + 1e-11, -1e-11]), SiteGraph(1))
    assert dense.region_entropy(rho, {0}) == pytest.approx(0.0, abs=1e-9)


def test_cmi_matches_classical_engine():
    h = ising_diag_chain(5)
    layer = ChannelLayer((transition_channel(2, [[0.8, 0.2], [0.2, 0.8]]),))
    rho = dense.apply_layer(dense.gibbs_state(h, 0.45), layer)
    d = classical.apply_transitions(classical.gibbs_distribution(h, 0.45), layer)
    p = boundary(5)
    assert cmi(dense, rho, p.regions) == pytest.approx(cmi(classical, d, p.regions), abs=1e-10)


def test_unchannelled_gibbs_is_markov():
    for h in (ising_pauli_chain(5), ising_diag_chain(5)):
        rho = dense.gibbs_state(h, 0.8)
        assert cmi(dense, rho, boundary(5).regions) <= 1e-9


def test_ssa_random_quantum(rng):
    """Strong subadditivity on channelled commuting Gibbs states."""
    for _ in range(25):
        n = 4
        h = random_commuting_pauli_model(rng, n, max_terms=4)
        layer = random_pauli_diagonal_layer(rng, n, max_sites=2)
        rho = dense.apply_layer(dense.gibbs_state(h, float(rng.uniform(0, 1.5))), layer)
        p = boundary(n)
        assert cmi(dense, rho, p.regions) >= -1e-8


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
    op = exact_cmi_operator(h, beta, layer, p)
    rho = dense.apply_layer(dense.gibbs_state(h, beta), layer)
    lhs = -np.trace(rho.entries @ op).real
    cmi_nats = cmi(dense, rho, p.regions) * math.log(2)
    assert lhs == pytest.approx(cmi_nats, abs=1e-12)


def test_cmi_operator_zero_without_coupling():
    """Dephasing commutes with a ZZ chain, so the operator vanishes."""
    h = ising_pauli_chain(4)
    layer = ChannelLayer((dephasing(1, 0.3), dephasing(2, 0.3)))
    op = exact_cmi_operator(h, 0.6, layer, boundary(4))
    assert spectral_norm(op) < 1e-12


def test_cmi_operator_rejects_cold():
    h = ising_pauli_chain(4)
    layer = ChannelLayer(())
    with pytest.raises(ValueError, match="temperature"):
        exact_cmi_operator(h, 20.0, layer, boundary(4))


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
    c = cmi(classical, classical.prepare(classical.plan(h, layer, ()), beta), p.regions)
    d = cmi(dense, dense.prepare(dense.plan(h, layer, ()), beta), p.regions)
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
    assert np.max(np.abs(rho - expansion_matrix(expand_gibbs(plan(h, ChannelLayer(), ()), beta)))) < 1e-10


@settings(max_examples=40, deadline=None, derandomize=True)
@given(diagonal_models())
def test_gibbs_state_matches_product_on_diagonal_tables(model):
    h, beta, _, _ = model
    rho = dense.gibbs_state(h, beta).entries
    assert np.max(np.abs(rho - commuting_product_gibbs(h, beta))) < 1e-10


BETAS = (0.0, 0.3, 1.0, 40.0, 400.0, math.inf)


@pytest.mark.parametrize("beta", BETAS)
def test_gibbs_state_matches_eigh_on_random_commuting_models(beta):
    """Random commuting Pauli strings, with Y's and with dependent terms
    (frustrated where their signs disagree): the product of the terms'
    factors, or eigh where the product declines, is one eigh of H."""
    rng = np.random.default_rng(22)
    for _ in range(30):
        h = random_commuting_pauli_model(rng, int(rng.integers(2, 6)))
        assert np.max(np.abs(dense.gibbs_state(h, beta).entries - eigh_gibbs(h, beta))) < 1e-10


def frustration_free_tables(rng, q, n):
    """Diagonal tables on one or two sites, lambda > 0, whose entries at one
    shared configuration are all -1, the least value: that configuration
    minimizes every term."""
    ground = rng.integers(0, q, n)
    terms = []
    for _ in range(int(rng.integers(2, 6))):
        support = tuple(int(s) for s in rng.choice(n, size=int(rng.integers(1, 3)), replace=False))
        table = rng.uniform(-0.9, 1, (q,) * len(support))
        table[tuple(ground[list(support)])] = -1.0
        terms.append(HamiltonianTerm(support, table, float(rng.uniform(0.1, 1))))
    return LocalHamiltonian(SiteGraph(n, q), tuple(terms))


@pytest.mark.parametrize("beta", BETAS)
def test_product_route_on_frustration_free_models(beta, monkeypatch):
    """The built-in chains, random independent commuting strings and tables
    with a common minimizing configuration take the product, with no eigh
    (tables at beta = inf excepted), and match one eigh of H to 1e-10."""
    rng = np.random.default_rng(7)
    models = [ising_pauli_chain(5), zoo.bell_chain(4), zoo.cluster_chain(5)]
    while len(models) < 15:
        h = random_commuting_pauli_model(rng, 4, max_terms=4)
        if len(term_group(h)[0]) == len(h.terms):  # independent: every sign pattern is an eigenspace
            models.append(h)
    if not math.isinf(beta):
        models += [frustration_free_tables(rng, q, n) for q, n in ((2, 5), (3, 4), (4, 3)) for _ in range(3)]
    expect = [eigh_gibbs(h, beta) for h in models]

    def refuse(m):
        raise AssertionError("eigh on a frustration-free commuting model")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    for h, want in zip(models, expect):
        assert np.max(np.abs(dense.gibbs_state(h, beta).entries - want)) < 1e-10


def test_frustrated_models_take_eigh():
    """No state minimizes every bond of the antiferromagnetic ZZ triangle,
    so at beta = inf the product of ground projectors is 0 and eigh gives
    its state: the six configurations with one broken bond.  XX, ZZ and YY
    with lambda = -1 (YY = -XX ZZ) are frustrated too; past beta ~ 10 their
    product's trace is far below its gathers' rounding, which would leave
    a third of the state's weight on the wrong block, and eigh takes it."""
    bonds = ((0, 1), (1, 2), (0, 2))
    tri = LocalHamiltonian(
        SiteGraph(3), tuple(HamiltonianTerm((a, b), PauliString(3, 0, (1 << a) | (1 << b)), 1.0) for a, b in bonds)
    )
    rho = dense.gibbs_state(tri, math.inf).entries
    assert rho.tobytes() == eigh_gibbs(tri, math.inf).tobytes()
    assert np.max(np.abs(rho - np.diag([0, 1, 1, 1, 1, 1, 1, 0]) / 6)) < 1e-12
    pair = LocalHamiltonian(
        SiteGraph(2), tuple(HamiltonianTerm((0, 1), PauliString.from_label(s), -1.0) for s in ("XX", "ZZ", "YY"))
    )
    for beta in (1.0, 10.0, 20.0, 40.0, math.inf):
        assert np.max(np.abs(dense.gibbs_state(pair, beta).entries - eigh_gibbs(pair, beta))) < 1e-10


def test_real_arithmetic_unless_an_entry_is_complex():
    """Real Pauli mixtures, transitions, depolarizing and real Kraus sets
    store float64 superoperators, and the Ising decay state is float64 from
    Gibbs state to layer.  A term with an odd number of Y, or a Kraus
    channel with a complex operator, keeps complex128, and its values."""
    had = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    real = [
        bitflip(1, 0.1),
        dephasing(1, 0.2),
        depolarizing(1, 0.3, 2),
        transition_channel(1, [[0.9, 0.2], [0.1, 0.8]]),
        kraus_channel(1, [math.sqrt(0.5) * np.eye(2), math.sqrt(0.5) * had]),
        bell_measurement(1),
    ]
    assert all(c.superop.dtype == np.float64 for c in real)
    h = ising_pauli_chain(4)
    layer = zoo.bulk_layer("ising_chain", 4, 0.1)
    assert dense.hamiltonian_matrix(h).dtype == np.float64
    assert dense.prepare(dense.plan(h, layer, ()), 0.5).entries.dtype == np.float64
    s_gate = kraus_channel(1, [np.diag([1, 1j])])
    assert s_gate.superop.dtype == complex
    rho = dense.prepare(dense.plan(h, ChannelLayer((s_gate,)), ()), 0.5)
    assert rho.entries.dtype == complex
    assert np.max(np.abs(rho.entries - brute_apply_layer(eigh_gibbs(h, 0.5), ChannelLayer((s_gate,)), h.site_graph))) < 1e-12
    odd = LocalHamiltonian(
        SiteGraph(3),
        (
            HamiltonianTerm((0, 1), PauliString.from_label("XYI"), -0.7),
            HamiltonianTerm((1, 2), PauliString.from_label("IYY"), 0.4),
        ),
    )
    assert dense.term_matrix(odd.site_graph, odd.terms[1]).dtype == np.float64
    assert dense.hamiltonian_matrix(odd).dtype == complex
    for beta in (0.5, math.inf):
        rho = dense.gibbs_state(odd, beta).entries
        assert rho.dtype == complex
        assert np.max(np.abs(rho - eigh_gibbs(odd, beta))) < 1e-12


def test_hermitian_check_reads_every_row_block():
    """Dim 256 is two row blocks: an asymmetric entry in either or across
    them, and an imaginary pair that is symmetric but not conjugate, are
    refused; a Hermitian complex state is not."""
    g = SiteGraph(8)
    for i, j, upper, lower in ((0, 255, 1e-9, 0.0), (200, 3, 1e-9, 0.0), (130, 131, 1e-9, 0.0), (5, 250, 1e-9j, 1e-9j)):
        e = np.eye(256, dtype=type(upper)) / 256
        e[i, j], e[j, i] = upper, lower
        with pytest.raises(ValueError, match="density matrix is not Hermitian"):
            dense.DensityMatrix(e, g)
    e = np.eye(256, dtype=complex) / 256
    e[5, 250], e[250, 5] = 1e-3j, -1e-3j
    assert dense.DensityMatrix(e, g).entries is e


def test_hermitian_check_holds_no_full_size_temporary():
    """At dim 2048 the check compares row blocks with column blocks, so its
    peak allocation is a small share of one 32 MB matrix."""
    import tracemalloc

    e = np.eye(2048) / 2048
    tracemalloc.start()
    try:
        dense.DensityMatrix(e, SiteGraph(11))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < e.nbytes / 4
