import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmnlab import classical, zoo
from hmnlab.channels import ChannelLayer, transition_channel
from hmnlab.experiments import cmi
from hmnlab.model import HamiltonianTerm, LocalHamiltonian, Partition, PauliString, SiteGraph
from tests.conftest import (
    brute_apply_transitions,
    brute_cmi_bits,
    brute_entropy_bits,
    brute_gibbs_probs,
    brute_marginal,
    ising_diag_chain,
    pinned_conditional,
    pinned_hamiltonian,
    post_select_decompose,
    prob_tensor,
)


def test_gibbs_beta_zero_uniform():
    h = ising_diag_chain(4)
    d = classical.gibbs_distribution(h, 0.0)
    assert np.allclose(d.probs, 1 / 16)


def test_gibbs_large_beta_aligned():
    h = ising_diag_chain(2)
    d = classical.gibbs_distribution(h, 50.0)
    # mass concentrates on 00 and 11
    assert d.probs[0] == pytest.approx(0.5, abs=1e-12)
    assert d.probs[3] == pytest.approx(0.5, abs=1e-12)


def test_gibbs_beta_inf():
    h = ising_diag_chain(3)
    d = classical.gibbs_distribution(h, math.inf)
    assert d.probs[0] == d.probs[-1] == 0.5


def test_gibbs_matches_exponential_oracle():
    h = ising_diag_chain(6)
    d = classical.gibbs_distribution(h, 0.3)
    assert np.max(np.abs(d.probs - brute_gibbs_probs(h, 0.3))) < 1e-14


def test_unsorted_support_energy():
    """Terms may list their support in any order; the table axes follow it."""
    g = SiteGraph(2)
    tbl = np.array([[0.0, 1.0], [-1.0, 0.0]])  # asymmetric on purpose
    h1 = LocalHamiltonian(g, (HamiltonianTerm((0, 1), tbl, 1.0),))
    h2 = LocalHamiltonian(g, (HamiltonianTerm((1, 0), tbl.T, 1.0),))
    assert np.allclose(classical.energy_table(h1), classical.energy_table(h2))


def test_energy_table_out_of_order_terms(rng):
    """Terms listed from the last site down, one on three unsorted sites: the
    site-grown table equals the per-configuration sum of the terms."""
    g = SiteGraph(5, q=3)
    supports = [(3, 4), (4, 1, 2), (2, 3), (0,), (1, 0)]
    terms = tuple(
        HamiltonianTerm(sup, rng.uniform(-1, 1, (3,) * len(sup)), float(rng.uniform(-1, 1)))
        for sup in supports
    )
    e = classical.energy_table(LocalHamiltonian(g, terms))
    assert e.shape == (3,) * 5
    for cfg in itertools.product(range(3), repeat=5):
        ref = sum(t.coefficient * t.operator[tuple(cfg[s] for s in t.support)] for t in terms)
        assert abs(e[cfg] - ref) < 1e-12


@pytest.mark.parametrize("n, q", [(7, 2), (4, 4)])
def test_marginal_every_region(rng, n, q):
    """Every region, given sorted, reversed or with a site listed twice,
    marginalizes like one multi-axis numpy sum."""
    g = SiteGraph(n, q)
    raw = rng.random(q**n)
    d = classical.Distribution(raw / raw.sum(), g)
    for k in range(n + 1):
        for region in itertools.combinations(range(n), k):
            ref = brute_marginal(d.probs, g, region)
            for listed in (region, region[::-1], region + region[:1]):
                m = classical.marginal(d, listed)
                assert m.shape == (q,) * k
                assert np.max(np.abs(m - ref)) <= 1e-15, (region, listed)


@pytest.mark.parametrize("n, q", [(5, 2), (3, 4)])
def test_apply_transitions_edge_sites(rng, n, q):
    """Non-symmetric transition matrices on site 0 and on the last two sites,
    alone and together: the brute-force sum, and the input left unwritten."""
    g = SiteGraph(n, q)
    raw = rng.random(q**n)
    d = classical.Distribution(raw / raw.sum(), g)
    before = d.probs.copy()
    mats = {}
    for s in (0, n - 2, n - 1):
        cols = rng.random((q, q)) + 0.05
        mats[s] = cols / cols.sum(axis=0)
    for sites in ((0,), (n - 2,), (n - 1,), (0, n - 2, n - 1)):
        layer = ChannelLayer(tuple(transition_channel(s, mats[s]) for s in sites))
        out = classical.apply_transitions(d, layer)
        oracle = brute_apply_transitions(before, g, {s: mats[s] for s in sites})
        assert np.max(np.abs(out.probs - oracle)) < 1e-14
        assert np.array_equal(d.probs, before)
    empty = classical.apply_transitions(d, ChannelLayer())
    assert empty.probs is not d.probs and np.array_equal(empty.probs, before / before.sum())


def test_apply_transitions_many_row_blocks(rng):
    """An 18-site state, whose last three sites' channels run in many row
    blocks, against the tensordot contraction on the site's axis."""
    n = 18
    g = SiteGraph(n)
    raw = rng.random(2**n)
    d = classical.Distribution(raw / raw.sum(), g)
    for s in (n - 3, n - 2, n - 1):
        cols = rng.random((2, 2)) + 0.05
        t = cols / cols.sum(axis=0)
        out = classical.apply_transitions(d, ChannelLayer((transition_channel(s, t),)))
        ref = np.moveaxis(np.tensordot(t, prob_tensor(d), axes=([1], [s])), 0, s).ravel()
        assert np.max(np.abs(out.probs - ref / ref.sum())) < 1e-18


def test_apply_transitions_identity():
    h = ising_diag_chain(4)
    d = classical.gibbs_distribution(h, 0.5)
    layer = ChannelLayer((transition_channel(1, np.eye(2)),))
    assert np.allclose(classical.apply_transitions(d, layer).probs, d.probs)


def test_apply_transitions_oracle():
    h = ising_diag_chain(4)
    d = classical.gibbs_distribution(h, 0.4)
    t1 = np.array([[0.85, 0.1], [0.15, 0.9]])
    t2 = np.array([[0.6, 0.3], [0.4, 0.7]])
    layer = ChannelLayer((transition_channel(1, t1), transition_channel(3, t2)))
    out = classical.apply_transitions(d, layer)
    oracle = brute_apply_transitions(d.probs, h.site_graph, {1: t1, 3: t2})
    assert np.max(np.abs(out.probs - oracle)) < 1e-14


def test_bitflip_damps_correlation():
    """p-flip on one bit of a correlated pair keeps marginals, damps the
    correlator by 1-2p (4-state hand computation)."""
    h = ising_diag_chain(2)
    d = classical.gibbs_distribution(h, 0.6)
    p = 0.1
    layer = ChannelLayer((transition_channel(1, [[1 - p, p], [p, 1 - p]]),))
    out = classical.apply_transitions(d, layer)
    spin = np.array([1.0, -1.0])
    corr_in = prob_tensor(d) @ spin @ spin
    corr_out = prob_tensor(out) @ spin @ spin
    assert corr_out == pytest.approx((1 - 2 * p) * corr_in, abs=1e-14)
    assert np.allclose(prob_tensor(out).sum(axis=1), prob_tensor(d).sum(axis=1))


def test_shannon_entropy_basics():
    g = SiteGraph(3)
    d = classical.Distribution(np.full(8, 1 / 8), g)
    assert classical.shannon_entropy(d, {0, 1, 2}) == pytest.approx(3.0)
    point = np.zeros(8)
    point[5] = 1.0
    assert classical.shannon_entropy(classical.Distribution(point, g), {0, 1, 2}) == 0.0


def test_entropy_matches_oracle():
    h = ising_diag_chain(5)
    d = classical.gibbs_distribution(h, 0.25)
    for region in ({0}, {1, 3}, {0, 2, 4}):
        assert classical.shannon_entropy(d, region) == pytest.approx(
            brute_entropy_bits(d.probs, h.site_graph, region), abs=1e-12
        )


def test_cmi_independent_bits_zero():
    g = SiteGraph(3)
    d = classical.Distribution(np.full(8, 1 / 8), g)
    p = Partition(frozenset({0}), frozenset({1}), frozenset({2}))
    assert cmi(classical, d, p.regions) == 0.0


def test_markov_chain_cmi_vanishes():
    """Gibbs chain with B separating A and C and no channel: CMI <= 1e-10."""
    h = ising_diag_chain(5)
    d = classical.gibbs_distribution(h, 0.7)
    p = Partition(frozenset({0}), frozenset({1, 2, 3}), frozenset({4}))
    assert cmi(classical, d, p.regions) <= 1e-10


def test_post_select_identity_random(rng):
    for _ in range(20):
        g = SiteGraph(4)
        raw = rng.random(16)
        d = classical.Distribution(raw / raw.sum(), g)
        p = Partition(frozenset({0}), frozenset({1, 2}), frozenset({3}))
        dec = post_select_decompose(d, p)
        total = sum(w * mi for w, mi in dec)
        assert abs(total - cmi(classical, d, p.regions)) < 1e-10
        assert abs(sum(w for w, _ in dec) - 1) < 1e-12


def test_post_select_product_all_zero(rng):
    g = SiteGraph(3)
    marg = [rng.random(2) for _ in range(3)]
    probs = np.ones(1)
    for m in marg:
        probs = np.kron(probs, m / m.sum())
    d = classical.Distribution(probs, g)
    p = Partition(frozenset({0}), frozenset({1}), frozenset({2}))
    for _, mi in post_select_decompose(d, p):
        assert abs(mi) < 1e-12


def test_pinned_hamiltonian_matches_conditional():
    h = ising_diag_chain(4)
    beta = 0.6
    t = np.array([[0.9, 0.1], [0.1, 0.9]])
    layer = ChannelLayer((transition_channel(1, t), transition_channel(2, t)))
    d2 = classical.apply_transitions(classical.gibbs_distribution(h, beta), layer)
    for y in itertools.product(range(2), repeat=2):
        pin = pinned_hamiltonian(h, beta, layer, {1: y[0], 2: y[1]})
        pred = pinned_conditional(pin)
        cond = prob_tensor(d2)[:, y[0], y[1], :].ravel()
        cond = cond / cond.sum()
        assert 0.5 * np.abs(pred - cond).sum() < 1e-12


def test_pinned_uniform_transition_is_unpinned():
    h = ising_diag_chain(4)
    layer = ChannelLayer((transition_channel(1, np.full((2, 2), 0.5)),))
    pin = pinned_hamiltonian(h, 0.5, layer, {1: 0})
    base = classical.gibbs_distribution(h, 0.5)
    keep = [0, 2, 3]
    assert np.allclose(
        pinned_conditional(pin), classical.marginal(base, keep).ravel()
    )


def test_pinned_rejects_zero_entries():
    h = ising_diag_chain(3)
    layer = ChannelLayer((transition_channel(1, [[1.0, 0.0], [0.0, 1.0]]),))
    with pytest.raises(ValueError, match="depolarization"):
        pinned_hamiltonian(h, 0.5, layer, {1: 0})


def test_ssa_random_sweep(rng):
    """Classical strong subadditivity on random distributions."""
    g = SiteGraph(4)
    p = Partition(frozenset({0}), frozenset({1, 2}), frozenset({3}))
    for _ in range(500):
        raw = rng.random(16)
        d = classical.Distribution(raw / raw.sum(), g)
        assert cmi(classical, d, p.regions) >= 0.0  # raises internally if < -1e-10


def test_data_processing_on_ac(rng):
    """Extra transitions on A or C never increase CMI."""
    g = SiteGraph(4)
    p = Partition(frozenset({0}), frozenset({1, 2}), frozenset({3}))
    for _ in range(200):
        raw = rng.random(16)
        d = classical.Distribution(raw / raw.sum(), g)
        base = cmi(classical, d, p.regions)
        cols = rng.random((2, 2)) + 0.05
        t = cols / cols.sum(axis=0)
        site = int(rng.choice([0, 3]))
        noisy = classical.apply_transitions(d, ChannelLayer((transition_channel(site, t),)))
        assert cmi(classical, noisy, p.regions) <= base + 1e-10


def test_cmi_matches_brute_force():
    h = ising_diag_chain(5)
    d = classical.gibbs_distribution(h, 0.45)
    layer = ChannelLayer((transition_channel(2, [[0.8, 0.2], [0.2, 0.8]]),))
    d = classical.apply_transitions(d, layer)
    p = Partition(frozenset({0}), frozenset({1, 2, 3}), frozenset({4}))
    assert cmi(classical, d, p.regions) == pytest.approx(
        brute_cmi_bits(d.probs, h.site_graph, p), abs=1e-12
    )


def test_memory_cap():
    g = SiteGraph(23)
    h = LocalHamiltonian(g, (HamiltonianTerm((0,), np.array([0.5, -0.5]), 1.0),))
    with pytest.raises(ValueError, match="memory cap"):
        classical.gibbs_distribution(h, 0.1)
    with pytest.raises(ValueError, match="memory cap"):
        classical.prepare(classical.plan(h, ChannelLayer(), ()), 0.1)


def test_prepare_refuses_pauli_terms():
    """A string with an X bit is not diagonal: an XX chain and the Bell
    chain's XX stabilizers are refused, with a message true of them."""
    xx = tuple(HamiltonianTerm((i, i + 1), PauliString(3, 3 << i, 0), -1.0) for i in range(2))
    for h in (LocalHamiltonian(SiteGraph(3), xx), zoo.bell_chain(3)):
        with pytest.raises(ValueError, match=r"requires diagonal terms; got a non-diagonal string \(X or Y\)"):
            classical.prepare(classical.plan(h, ChannelLayer(), ()), 0.5)


def test_check_refuses_z_bits_off_the_support():
    """A Z string whose bits leave its support is refused when the model is
    built, not cut to the support: Z0 Z1 Z2 listed on sites (0, 1), and on q = 4 sites a Z on
    qubit 2 (site 1) of a term listed on site 0."""
    for q, z, support in ((2, 0b111, (0, 1)), (4, 0b101, (0,))):
        k = q.bit_length() - 1
        with pytest.raises(ValueError, match="has a bit off its support"):
            LocalHamiltonian(SiteGraph(3, q), (HamiltonianTerm(support, PauliString(3 * k, 0, z), -1.0),))


@pytest.mark.parametrize("probs", [[math.nan, 1.0], [0.5, math.nan], [math.inf, 0.0], [1.5, -0.5]])
def test_distribution_refuses_nan_and_negative(probs):
    with pytest.raises(ValueError, match="not a probability distribution"):
        classical.Distribution(np.array(probs), SiteGraph(1))


@st.composite
def sweep_models(draw):
    """Diagonal models on 1-6 sites (q = 2) or 1-5 sites (q = 3): terms of
    one to three sites listed in any order, often with gaps, a term joining
    the first and the last site, and transition channels on a random subset
    of the sites, which may include sites no term touches and the last."""
    q = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(1, 6 if q == 2 else 5))
    sites = st.integers(0, n - 1)
    supports = draw(st.lists(st.lists(sites, min_size=1, max_size=min(3, n), unique=True), max_size=4))
    if n > 1 and draw(st.booleans()):
        supports.append([n - 1, 0])
    terms = []
    for sup in supports:
        table = draw(st.lists(st.floats(-1, 1), min_size=q ** len(sup), max_size=q ** len(sup)))
        terms.append(HamiltonianTerm(tuple(sup), np.reshape(table, (q,) * len(sup)), draw(st.floats(-1, 1))))
    mats = {}
    for site in draw(st.lists(sites, unique=True, max_size=n)):
        cols = np.reshape(draw(st.lists(st.floats(0.01, 1), min_size=q * q, max_size=q * q)), (q, q))
        mats[site] = cols / cols.sum(axis=0)
    h = LocalHamiltonian(SiteGraph(n, q), tuple(terms))
    return h, draw(st.floats(0, 2)), mats


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sweep_models())
def test_sweep_matches_brute_force(model):
    """The site-grown sweep is the brute-force Boltzmann vector pushed
    through the brute-force transition sum."""
    h, beta, mats = model
    layer = ChannelLayer(tuple(transition_channel(s, t) for s, t in mats.items()))
    got = classical.prepare(classical.plan(h, layer, ()), beta)
    want = brute_apply_transitions(brute_gibbs_probs(h, beta), h.site_graph, mats)
    assert np.max(np.abs(got.probs - want)) < 1e-14


def _zz_ring(n):
    """ZZ bonds around a ring: the closing bond (n-1, 0) makes step 0 of the
    sweep span every site, a 2^(2n-1)-entry step matrix."""
    tbl = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return LocalHamiltonian(SiteGraph(n), tuple(HamiltonianTerm((i, (i + 1) % n), tbl, -0.9) for i in range(n)))


_FLIP = np.array([[0.9, 0.2], [0.1, 0.8]])
STEP_RULE_MODELS = {
    # model, beta, site -> T, _transition calls of the wide steps at the default rule
    "ising_chain": (ising_diag_chain(8), 0.7, {s: _FLIP for s in range(1, 7)}, 0),
    "parity_chain": (zoo.parity_chain(4), 0.5, {s: zoo.parity_channel(s).transition for s in (1, 2)}, 0),
    # sites 0, 1 and 9 close at the wide step 0, site 5 at the fused step 4
    "zz_ring": (_zz_ring(10), 0.4, {s: _FLIP for s in (0, 1, 5, 9)}, 3),
}


@pytest.mark.parametrize("name", STEP_RULE_MODELS)
def test_sweep_step_rule_matches_brute_force(monkeypatch, name):
    """Each step is one matmul of its step matrix or, past _STEP_MATRIX_MAX
    entries, the broadcast factor then one _transition per channel: both
    sides of that rule, and every step on either side, give the brute-force
    vector pushed through the brute-force transition sum."""
    h, beta, mats, wide_transitions = STEP_RULE_MODELS[name]
    layer = ChannelLayer(tuple(transition_channel(s, t) for s, t in mats.items()))
    want = brute_apply_transitions(brute_gibbs_probs(h, beta), h.site_graph, mats)
    calls = []
    transition = classical._transition

    def counted(*args):
        calls.append(args)
        return transition(*args)

    monkeypatch.setattr(classical, "_transition", counted)
    # the default rule, every step wide, every step fused
    for limit, transitions in ((classical._STEP_MATRIX_MAX, wide_transitions), (0, len(mats)), (2**20, 0)):
        monkeypatch.setattr(classical, "_STEP_MATRIX_MAX", limit)
        got = classical.prepare(classical.plan(h, layer, ()), beta).probs
        assert np.max(np.abs(got - want)) < 1e-14
        assert len(calls) == transitions
        calls.clear()


def test_sweep_buffers_on_a_chain():
    """On a chain every step writes once, so the sweep holds the q^n vector
    prepare returns and one q^(n-1) buffer, not two of q^n."""
    n = 16
    h = ising_diag_chain(n)
    layer = ChannelLayer(tuple(transition_channel(s, _FLIP) for s in range(1, n - 1)))
    classical.prepare(classical.plan(h, layer, ()), 0.3)
    tracemalloc.start()
    try:
        classical.prepare(classical.plan(h, layer, ()), 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (2**n + 2 ** (n - 1)) * 8 + 64 * 1024


def _frustrated_triangle():
    """Antiferromagnetic bonds on a triangle: six ground states, each with
    one unsatisfied bond; sum_a ptp(lambda_a h_a) = 6."""
    tbl = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return LocalHamiltonian(SiteGraph(3), tuple(HamiltonianTerm(s, tbl, 1.0) for s in ((0, 1), (1, 2), (2, 0))))


def _energy_route(h, beta, layer):
    return classical.apply_transitions(classical.gibbs_distribution(h, beta), layer)


@pytest.mark.parametrize("beta, swept", [(50.0, True), (400.0, False), (1000.0, False), (math.inf, False)])
def test_underflow_guard(monkeypatch, beta, swept):
    """The sweep runs while beta * 6 stays within the float64 range and the
    energy table beyond it (the unguarded sweep reads 0/0 there); both agree
    with the energy route, and at beta >= 400 they are that route's bits.
    RuntimeWarnings are errors in this suite, so none fires either."""
    h = _frustrated_triangle()
    layer = ChannelLayer((transition_channel(2, [[0.9, 0.2], [0.1, 0.8]]),))
    calls = []
    sweep = classical._sweep

    def counted(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(classical, "_sweep", counted)
    for lay in (ChannelLayer(), layer):
        got = classical.prepare(classical.plan(h, lay, ()), beta).probs
        want = _energy_route(h, beta, lay).probs
        if swept:
            assert np.max(np.abs(got - want)) < 1e-14
        else:
            assert np.array_equal(got, want)
    assert len(calls) == (2 if swept else 0)
    ground = classical.prepare(classical.plan(h, ChannelLayer(), ()), beta).probs
    assert np.max(np.abs(ground - np.array([0, 1, 1, 1, 1, 1, 1, 0]) / 6)) < 1e-14


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sweep_models())
def test_route_is_chosen_by_each_terms_ptp_summed_in_order(model):
    """prepare sweeps exactly while |beta| sum_a ptp(lambda_a h_a), each
    term's np.ptp summed over the terms in order, a term on no site (ptp 0)
    included, stays within _SWEEP_LOG_RANGE: at the limit and one float on
    either side of it."""
    h = model[0]
    h = LocalHamiltonian(h.site_graph, (HamiltonianTerm((), np.array(0.7), -1.0),) + h.terms)
    spread = sum(float(np.ptp(t.coefficient * t.operator)) for t in h.terms)
    limit = classical._SWEEP_LOG_RANGE / spread if spread else 1.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classical, "_sweep", lambda *args: "sweep")
        mp.setattr(classical, "gibbs_distribution", lambda *args: None)
        mp.setattr(classical, "apply_transitions", lambda *args: "energy")
        mp.setattr(classical, "Distribution", lambda x, graph: x)
        for beta in (float(np.nextafter(limit, 0)), limit, float(np.nextafter(limit, math.inf))):
            want = "sweep" if beta * spread <= classical._SWEEP_LOG_RANGE else "energy"
            assert classical.prepare(classical.plan(h, ChannelLayer(), ()), beta) == want


def test_negative_beta_and_constant_term():
    """A negative beta (factors >= 1) and a term on no site (a constant
    energy, which cancels) against the brute-force Boltzmann vector."""
    h = _frustrated_triangle()
    h = LocalHamiltonian(h.site_graph, h.terms + (HamiltonianTerm((), np.array(0.7), -1.0),))
    for beta in (-0.8, 0.0, 0.8):
        got = classical.prepare(classical.plan(h, ChannelLayer(), ()), beta).probs
        assert np.max(np.abs(got - brute_gibbs_probs(h, beta))) < 1e-14


def test_prepare_leaves_its_input_unwritten():
    """A prepared vector that apply_transitions takes is not written, and two
    prepare calls share no buffer."""
    h = ising_diag_chain(6)
    t = [[0.7, 0.4], [0.3, 0.6]]
    d = classical.prepare(classical.plan(h, ChannelLayer((transition_channel(5, t),)), ()), 0.4)
    before = d.probs.copy()
    out = classical.apply_transitions(d, ChannelLayer((transition_channel(0, t), transition_channel(5, t))))
    assert np.array_equal(d.probs, before) and not np.shares_memory(out.probs, d.probs)
    again = classical.prepare(classical.plan(h, ChannelLayer((transition_channel(5, t),)), ()), 0.4)
    assert not np.shares_memory(again.probs, d.probs) and np.array_equal(again.probs, before)
