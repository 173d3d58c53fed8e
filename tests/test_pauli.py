import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmnlab import dense, pauli, zoo
from hmnlab.channels import ChannelLayer, bitflip, complete_depolarization, dephasing, depolarizing, pauli_mixture
from hmnlab.cli import main
from hmnlab.experiments import cmi
from hmnlab.model import (
    HamiltonianTerm,
    LocalHamiltonian,
    Partition,
    PauliString,
    SiteGraph,
    entropy_bits,
)
from tests.conftest import (
    concatenated_xor_span,
    damp_by_layer,
    dependent_commuting_models,
    expansion_matrix,
    gather_damp,
    gather_expansion,
    ising_pauli_chain,
    lift,
    masked_product,
    pauli_region,
    pauli_support,
    random_commuting_pauli_model,
    random_pauli_diagonal_layer,
    stacked_walsh_hadamard,
)


def coeff(e, x, z):
    """Coefficient of the canonical Hermitian Pauli (x, z) in the expansion."""
    for v, c in enumerate(e.coeffs):
        g = pauli.group_element(e.generators, v, e.n)
        if (g.x, g.z) == (x, z):
            return c * g.sign
    return 0.0


def test_expand_single_z():
    g = SiteGraph(1)
    h = LocalHamiltonian(g, (HamiltonianTerm((0,), PauliString.from_label("Z"), 1.0),))
    e = pauli.expand_gibbs(pauli.plan(h, ChannelLayer(), ()), 0.4)
    assert coeff(e, 0, 0) == 1.0
    assert coeff(e, 0, 1) == pytest.approx(-math.tanh(0.4))


def test_expand_matches_dense():
    h = ising_pauli_chain(4)
    for beta in (0.2, 0.9, math.inf):
        e = pauli.expand_gibbs(pauli.plan(h, ChannelLayer(), ()), beta)
        rho = dense.gibbs_state(h, beta)
        assert np.max(np.abs(expansion_matrix(e) - rho.entries)) < 1e-12


def test_expand_frustrated_rejected():
    """XX * ZZ = -YY, so pinning XX = -1, ZZ = -1, YY = +1 at beta=inf is
    impossible and the projector product has zero trace."""
    g = SiteGraph(2)
    h = LocalHamiltonian(
        g,
        (
            HamiltonianTerm((0, 1), PauliString.from_label("XX"), 1.0),
            HamiltonianTerm((0, 1), PauliString.from_label("ZZ"), 1.0),
            HamiltonianTerm((0, 1), PauliString.from_label("YY"), -1.0),
        ),
    )
    with pytest.raises(ValueError, match="frustrat"):
        pauli.expand_gibbs(pauli.plan(h, ChannelLayer(), ()), math.inf)


def test_apply_layer_damps_coefficients():
    h = ising_pauli_chain(3)
    e = pauli.expand_gibbs(pauli.plan(h, ChannelLayer(), ()), 0.5)
    out = damp_by_layer(e, ChannelLayer((bitflip(1, 0.25),)))
    t = math.tanh(0.5)  # lam = -1, so each bond carries +tanh(beta)
    # ZZ on sites (0,1): Z on site 1 damped by 1-2p = 0.5
    assert coeff(out, 0, 0b110) == pytest.approx(t * 0.5)
    # Z0Z2 has identity on the noisy site and survives undamped at t^2
    assert coeff(out, 0, 0b101) == pytest.approx(t * t)


def test_apply_layer_matches_dense():
    h = ising_pauli_chain(4)
    layer = ChannelLayer((bitflip(1, 0.3), depolarizing(2, 0.4, 2)))
    e = damp_by_layer(pauli.expand_gibbs(pauli.plan(h, ChannelLayer(), ()), 0.7), layer)
    rho = dense.apply_layer(dense.gibbs_state(h, 0.7), layer)
    assert np.max(np.abs(expansion_matrix(e) - rho.entries)) < 1e-12


def test_restricted_group_rank():
    h = ising_pauli_chain(4)
    e = pauli.expand_gibbs(pauli.plan(h, ChannelLayer(), ()), 0.5)
    grp = pauli.restricted_group(e, pauli_region(e, {0, 1, 2, 3}))
    assert len(grp.generators) == 3  # the three bonds
    assert len(grp.elements) == 8


def walsh_hadamard(elements):
    """Oracle: lam_s = sum_b d_b (-1)^{popcount(s & b)} by a dense sign matrix."""
    idx = np.arange(len(elements))
    signs = np.array([[(-1.0) ** bin(s & b).count("1") for b in idx] for s in idx])
    return signs @ elements


def test_full_rank_fast_path_matches_reduction():
    """Where every coefficient on the region is nonzero, restricted_group
    takes the whole kernel; eliminating over the nonzero span gives the same
    group and the same spectrum."""
    h = ising_pauli_chain(6)
    layer = ChannelLayer((bitflip(2, 0.2), bitflip(3, 0.3)))
    e = pauli.prepare(pauli.plan(h, layer, ()), 0.7)
    for region, rank in (({1, 2, 3}, 2), ({0, 1, 2, 3, 4}, 4), (set(range(6)), 5)):
        fast = pauli.restricted_group(e, pauli_region(e, region))
        members = pauli._xor_span(fast.generators)
        assert len(fast.generators) == rank
        assert np.array_equal(fast.elements, e.coeffs[members])  # the whole kernel
        gens, elements = pauli._nonzero_span(members, fast.elements)
        assert len(gens) == rank
        assert sorted(pauli._xor_span(gens)) == sorted(members)
        assert np.allclose(
            np.sort(walsh_hadamard(elements)), np.sort(walsh_hadamard(fast.elements)), atol=1e-14
        )


def test_marginal_spectrum_uniformity():
    h = ising_pauli_chain(3)
    e = pauli.expand_gibbs(pauli.plan(h, ChannelLayer(), ()), 0.0)
    spec, mult = pauli.marginal_spectrum(e, pauli_region(e, {0, 1, 2}))
    assert mult == 8 and np.allclose(spec, 1 / 8)


def test_region_entropy_refuses_a_negative_spectrum():
    """(I + c Z)/2 with c = 1 + 2e-9 has unit trace and the eigenvalue
    -1e-9, below the -1e-10 that entropy_bits allows on every engine."""
    z = PauliString.from_label("Z")
    e = pauli.PauliExpansion(SiteGraph(1), (z,), np.array([1.0, 1 + 2e-9]))
    assert pauli.marginal_spectrum(e, pauli_region(e, {0}))[0] == pytest.approx([1 + 1e-9, -1e-9], abs=1e-15)
    with pytest.raises(ValueError, match="< -1e-10"):
        pauli.region_entropy(e, pauli_region(e, {0}))


def test_marginal_entropy_matches_dense():
    h = ising_pauli_chain(5)
    layer = ChannelLayer((bitflip(2, 0.2),))
    e = damp_by_layer(pauli.expand_gibbs(pauli.plan(h, ChannelLayer(), ()), 0.6), layer)
    rho = dense.apply_layer(dense.gibbs_state(h, 0.6), layer)
    for r in range(1, 5):
        for region in itertools.combinations(range(5), r):
            assert pauli.marginal_entropy(e, pauli_region(e, region)) == pytest.approx(
                dense.region_entropy(rho, set(region)), abs=1e-10
            )


def test_marginal_entropy_random_models(rng):
    """Twenty random commuting models with random Pauli-diagonal noise:
    every subset entropy agrees with the dense engine."""
    for _ in range(20):
        n = 5
        h = random_commuting_pauli_model(rng, n, max_terms=5)
        beta = float(rng.uniform(0.1, 1.2))
        layer = random_pauli_diagonal_layer(rng, n, max_sites=2)
        e = damp_by_layer(pauli.expand_gibbs(pauli.plan(h, ChannelLayer(), ()), beta), layer)
        rho = dense.apply_layer(dense.gibbs_state(h, beta), layer)
        for r in range(1, n + 1):
            for region in itertools.combinations(range(n), r):
                assert pauli.marginal_entropy(e, pauli_region(e, region)) == pytest.approx(
                    dense.region_entropy(rho, set(region)), abs=1e-10
                )


def test_pauli_cmi_matches_dense():
    h = ising_pauli_chain(5)
    layer = ChannelLayer((bitflip(1, 0.3), bitflip(2, 0.3), bitflip(3, 0.3)))
    e = damp_by_layer(pauli.expand_gibbs(pauli.plan(h, ChannelLayer(), ()), 0.8), layer)
    rho = dense.apply_layer(dense.gibbs_state(h, 0.8), layer)
    p = Partition(frozenset({0}), frozenset({1, 2, 3}), frozenset({4}))
    regions = [pauli_region(e, r) for r in p.regions]
    assert cmi(pauli, e, regions) == pytest.approx(cmi(dense, rho, p.regions), abs=1e-10)


def test_pauli_scales_past_dense():
    """A 16-site chain is far beyond the dense cap but cheap here."""
    h = ising_pauli_chain(16)
    layer = ChannelLayer(tuple(bitflip(i, 0.1) for i in range(1, 15)))
    e = damp_by_layer(pauli.expand_gibbs(pauli.plan(h, ChannelLayer(), ()), 0.4), layer)
    p = Partition(frozenset({0}), frozenset(range(1, 15)), frozenset({15}))
    val = cmi(pauli, e, [pauli_region(e, r) for r in p.regions])
    assert -1e-10 <= val < 1e-4


def test_term_cap():
    """29 independent terms under a layer with no zero factor keep all 2^29
    coefficients: refused by the plan that the expansion and prepare take,
    with one text."""
    h = ising_pauli_chain(30)
    layer = zoo.bulk_layer("ising_chain", 30, 0.1)
    message = "pauli expansion of rank 29 exceeds cap 22"
    with pytest.raises(ValueError, match=message):
        pauli.expand_gibbs(pauli.plan(h, ChannelLayer(), ()), 0.3)
    with pytest.raises(ValueError, match=message):
        pauli.prepare(pauli.plan(h, layer, ()), 0.3)
    with pytest.raises(ValueError, match=message):
        pauli.plan(h, layer, ())


def assert_entropies_match_dense(h, beta, layer):
    n = h.site_graph.n_sites
    e = pauli.expand_gibbs(pauli.plan(h, ChannelLayer(), ()), beta)
    rho = dense.gibbs_state(h, beta)
    assert np.max(np.abs(expansion_matrix(e) - rho.entries)) < 1e-12
    e = damp_by_layer(e, layer)
    rho = dense.apply_layer(rho, layer)
    for r in range(1, n + 1):
        for region in itertools.combinations(range(n), r):
            assert pauli.marginal_entropy(e, pauli_region(e, region)) == pytest.approx(
                dense.region_entropy(rho, set(region)), abs=1e-10
            )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dependent_commuting_models())
def test_dependent_terms_match_dense(model):
    """Terms that are signed products of other terms (h_a = sigma_a g_{b_a}
    with sigma_a = -1 as often as +1): every subset entropy agrees with the
    dense engine."""
    assert_entropies_match_dense(*model)


@pytest.mark.parametrize("beta", [0.3, 1.1])
def test_xx_zz_minus_yy_matches_dense(beta):
    """XX * ZZ = -YY, so the YY term enters with sigma = -1."""
    h = LocalHamiltonian(
        SiteGraph(2),
        (
            HamiltonianTerm((0, 1), PauliString.from_label("XX"), 0.8),
            HamiltonianTerm((0, 1), PauliString.from_label("ZZ"), -0.5),
            HamiltonianTerm((0, 1), PauliString.from_label("YY"), -0.7),
        ),
    )
    assert_entropies_match_dense(h, beta, ChannelLayer((dephasing(0, 0.2),)))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.integers(3, 5), st.lists(st.integers(3, 31), min_size=1, max_size=3))
def test_cluster_chain_with_product_terms_at_zero_temperature(n, masks):
    """The cluster chain plus products of its stabilizers at beta = inf: the
    ground state is still the cluster state, reached through dependent
    terms."""
    base = zoo.cluster_chain(n)
    ops = [t.operator for t in base.terms]
    extra = []
    for mask in masks:
        p = masked_product(ops, mask % 2**n, n)
        if (p.x, p.z) != (0, 0):
            extra.append(HamiltonianTerm(tuple(sorted(pauli_support(p))), p, -1.0))
    h = LocalHamiltonian(base.site_graph, base.terms + tuple(extra))
    assert_entropies_match_dense(h, math.inf, ChannelLayer((dephasing(n // 2, 0.3),)))


def test_more_than_64_qubits_matches_short_chain(tmp_path):
    """ZZ terms on sites 0-23-47-69 of a 70-site model file give the CMI of
    the same terms relabelled onto a 4-site chain."""
    csv = []
    for n_sites, sites in ((70, (0, 23, 47, 69)), (4, (0, 1, 2, 3))):
        model = tmp_path / f"model{n_sites}.json"
        model.write_text(json.dumps({
            "n_sites": n_sites,
            "terms": [{"support": [a, b], "pauli": "ZZ", "lambda": -1.0} for a, b in zip(sites, sites[1:])],
        }))
        cfg = tmp_path / f"cfg{n_sites}.json"
        cfg.write_text(json.dumps({
            "experiment": "cmi",
            "model": str(model),
            "engine": "pauli",
            "beta": [0.7],
            "partition": {"a": [sites[0]], "b": list(sites[1:3]), "c": [sites[3]]},
            "channel": [{"site": s, "kind": "bitflip", "p": 0.2} for s in sites[1:3]],
            "output": f"cmi{n_sites}",
        }))
        assert main(["run", str(cfg), "--output-dir", str(tmp_path)]) == 0
        row = (tmp_path / f"cmi{n_sites}.csv").read_text().strip().split("\n")[1]
        csv.append(float(row.split(",")[2]))
    assert csv[0] > 1e-6
    assert csv[0] == pytest.approx(csv[1], abs=1e-12)


def zz_ring(n):
    """ZZ bonds around a ring, lambda = -1: the closing bond is the product
    of the others, a term inside the group."""
    terms = []
    for i in range(n):
        label = ["I"] * n
        label[i] = label[(i + 1) % n] = "Z"
        terms.append(HamiltonianTerm(tuple(sorted((i, (i + 1) % n))), PauliString.from_label("".join(label)), -1.0))
    return LocalHamiltonian(SiteGraph(n), tuple(terms))


def mixed_sign_model():
    """Seven qubits: ZZ bonds of both signs on 0-3 with the dependent Z0Z2, a
    field on 3, no term on 4, and XX, ZZ, YY on 5-6 (YY = -XX ZZ enters with
    sigma = -1); the signs agree at beta = inf."""
    labelled = (
        ("ZZIIIII", -0.7), ("IZZIIII", 0.4), ("ZIZIIII", 0.3), ("IIZZIII", -1.0),
        ("IIIZIII", 0.8), ("IIIIIXX", 0.6), ("IIIIIZZ", -0.2), ("IIIIIYY", -0.5),
    )
    terms = []
    for label, lam in labelled:
        p = PauliString.from_label(label)
        terms.append(HamiltonianTerm(tuple(sorted(pauli_support(p))), p, lam))
    return LocalHamiltonian(SiteGraph(7), tuple(terms))


ORACLE_CASES = {
    "zz_ring_n5": (zz_ring(5), ChannelLayer((bitflip(1, 0.2), dephasing(3, 0.1)))),
    "zz_ring_n6": (zz_ring(6), ChannelLayer(tuple(bitflip(s, 0.15) for s in range(6)))),
    "bell_chain_n5": (zoo.bell_chain(5), zoo.bulk_layer("bell_chain", 5, 0.0)),
    "cluster_chain_n7": (zoo.cluster_chain(7), zoo.bulk_layer("cluster_chain", 7, 0.2)),
    "mixed_signs": (
        mixed_sign_model(),
        ChannelLayer((bitflip(1, 0.3), dephasing(4, 0.2), depolarizing(5, 0.4, 2), bitflip(6, 0.1))),
    ),
}


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b) and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("beta", [0.0, 0.4, math.inf])
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_kernels_match_full_length_references_bit_for_bit(case, beta):
    """Expansion by doubling and damping broadcast over the touched
    generators give the bits of one gather per term and one per channel;
    site 4 of the mixed model has no term, so its channel damps nothing."""
    h, layer = ORACLE_CASES[case]
    e = pauli.expand_gibbs(pauli.plan(h, ChannelLayer(), ()), beta)
    assert_same_bits(e.coeffs, gather_expansion(h, beta))
    damped = damp_by_layer(e, layer).coeffs
    assert_same_bits(damped, gather_damp(e.coeffs, h.site_graph, e.generators, layer))


@pytest.mark.parametrize("r", range(13))
def test_walsh_hadamard_in_place_matches_stacked_reference(r, rng):
    """The same sums on one float copy: the input is left as it was."""
    for x in (rng.standard_normal(2**r), rng.standard_normal((3, 2**r))):
        before = x.copy()
        assert_same_bits(pauli.walsh_hadamard(x), stacked_walsh_hadamard(x))
        assert_same_bits(x, before)


@pytest.mark.parametrize("r", range(17))
def test_walsh_hadamard_by_shuffle_matches_stacked_reference(r, rng):
    """Vectors up to 2^16 and stacks of up to 330 rows (at most 2^17
    values), strided, Fortran-ordered and integer input: the bits of the
    stacked reference, and the input left as it was."""
    k = max(1, min(330, (1 << 17) >> r))
    wide = rng.standard_normal((k, 2 ** (r + 1)))
    cases = (
        rng.standard_normal(2**r),
        rng.standard_normal((k, 2**r)),
        rng.standard_normal((2, 3, 2**r)),
        wide[:, ::2],
        np.asfortranarray(wide[:, 2**r :]),
        rng.integers(-9, 10, (k, 2**r)),
    )
    for x in cases:
        before = x.copy()
        assert_same_bits(pauli.walsh_hadamard(x), stacked_walsh_hadamard(x.astype(float)))
        assert_same_bits(x, before)


def test_xor_span_matches_concatenation(rng):
    for k in range(17):
        rows = [int(v) for v in rng.integers(1, 1 << 40, k)]
        assert_same_bits(pauli._xor_span(rows), concatenated_xor_span(rows))
        local = [v & 15 for v in rows]
        assert_same_bits(pauli._xor_span(local, np.uint8), concatenated_xor_span(local, np.uint8))


def chain_with_constant_term(lam):
    chain = ising_pauli_chain(3)
    constant = HamiltonianTerm((1,), PauliString.from_label("III"), lam)
    return LocalHamiltonian(chain.site_graph, chain.terms + (constant,))


@pytest.mark.parametrize("lam", [0.5, -0.5])
def test_constant_term_matches_dense(lam):
    """A term lam I only shifts the energy.  Its factor I - tanh(beta lam) I
    is exactly 0 once tanh rounds to 1, so the expansion skips it; the
    normalization cancels it at every beta."""
    h = chain_with_constant_term(lam)
    layer = ChannelLayer((bitflip(1, 0.1),))
    p = Partition(frozenset({0}), frozenset({1}), frozenset({2}))
    for beta in (0.0, 1.0, 40.0, math.inf):
        plan = pauli.plan(h, layer, p.regions)
        e = pauli.prepare(plan, beta)
        rho = dense.apply_layer(dense.gibbs_state(h, beta), layer)
        assert np.max(np.abs(expansion_matrix(e) - rho.entries)) < 1e-12
        assert cmi(pauli, e, plan.regions) == pytest.approx(cmi(dense, rho, p.regions), abs=1e-10)


def test_cli_runs_a_constant_term_on_pauli(tmp_path, capsys):
    """The model file validate passes runs on pauli and writes dense's CMI."""
    terms = [{"support": [i, i + 1], "pauli": "ZZ", "lambda": -1.0} for i in range(2)]
    terms.append({"support": [1], "pauli": "I", "lambda": 0.5})
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"n_sites": 3, "terms": terms}))
    cmi_bits = {}
    for engine in ("pauli", "dense"):
        cfg = tmp_path / f"{engine}.json"
        cfg.write_text(json.dumps({
            "experiment": "cmi",
            "model": str(model),
            "engine": engine,
            "beta": ["inf", 40.0, 1.0],
            "partition": {"a": [0], "b": [1], "c": [2]},
            "channel": [{"site": 1, "kind": "bitflip", "p": 0.1}],
            "output": engine,
        }))
        assert main(["validate", str(cfg)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out
        assert main(["run", str(cfg), "--output-dir", str(tmp_path)]) == 0
        rows = (tmp_path / f"{engine}.csv").read_text().strip().split("\n")[1:]
        cmi_bits[engine] = [float(row.split(",")[2]) for row in rows]
    assert cmi_bits["pauli"][0] > 0.4
    assert cmi_bits["pauli"] == pytest.approx(cmi_bits["dense"], abs=1e-12)


def kept_members(e, gens):
    """The indices over the term group ``gens`` of e's kept subgroup."""
    ones = pauli.PauliExpansion(e.graph, e.generators, np.ones(2 ** len(e.generators)))
    return np.flatnonzero(lift(ones, gens))


def everywhere(channel, sites):
    return ChannelLayer(tuple(channel(s) for s in sites))


# (model, layer with zero damping factors, dim K); the rings carry a dependent
# term, which the sum over term subsets on K takes along
KEPT_CASES = {
    "bell_chain_n5": (zoo.bell_chain(5), zoo.bulk_layer("bell_chain", 5, 0.0), 2),
    "bell_chain_n7": (zoo.bell_chain(7), zoo.bulk_layer("bell_chain", 7, 0.0), 2),
    "bell_chain_n9": (zoo.bell_chain(9), zoo.bulk_layer("bell_chain", 9, 0.0), 2),
    "ising_chain_n6_bitflip_half": (ising_pauli_chain(6), zoo.bulk_layer("ising_chain", 6, 0.5), 1),
    "cluster_chain_n6_complete_dephasing": (zoo.cluster_chain(6), everywhere(lambda s: dephasing(s, 0.5), range(6)), 0),
    "zz_ring_n6_bitflip_half": (zz_ring(6), everywhere(lambda s: bitflip(s, 0.5), (1, 3)), 3),
    "zz_ring_n4_bitflip_half": (zz_ring(4), everywhere(lambda s: bitflip(s, 0.5), (1,)), 2),
}


@pytest.mark.parametrize("beta", [0.3, 1.0, math.inf])
@pytest.mark.parametrize("case", sorted(KEPT_CASES))
def test_kept_coefficients_match_full_length_references(case, beta):
    """On the subgroup K the layer keeps, the expansion equals the one-gather
    reference at the kept indices; damped and lifted onto the term group, it
    equals the damped reference everywhere, which the layer zeroes off K."""
    h, layer, dim = KEPT_CASES[case]
    gens = pauli.term_group(h)[0]
    e = pauli.expand_gibbs(pauli.plan(h, layer, ()), beta)
    assert len(e.generators) == dim < len(gens)
    ref = gather_expansion(h, beta)
    members = kept_members(e, gens)
    assert members.size == 2**dim
    assert np.max(np.abs(lift(e, gens)[members] - ref[members])) <= 1e-15
    damped = lift(pauli.prepare(pauli.plan(h, layer, ()), beta), gens)
    assert np.max(np.abs(damped - gather_damp(ref, h.site_graph, gens, layer))) <= 1e-15


@pytest.mark.parametrize("beta", [0.0, 0.4, math.inf])
@pytest.mark.parametrize("case", sorted(set(ORACLE_CASES) - {"bell_chain_n5"}))
def test_layer_with_no_zero_factor_keeps_the_whole_group(case, beta):
    """Channels with no zero factor constrain nothing: the same generators
    and the same coefficient bits as the expansion with no channel."""
    h, layer = ORACLE_CASES[case]
    assert all(ch.pauli_table.all() for ch in layer.channels)
    whole, kept = pauli.expand_gibbs(pauli.plan(h, ChannelLayer(), ()), beta), pauli.expand_gibbs(pauli.plan(h, layer, ()), beta)
    assert kept.generators == whole.generators
    assert_same_bits(kept.coeffs, whole.coeffs)


def assert_prepared_matches_dense(h, beta, layer, regions=None):
    e = pauli.prepare(pauli.plan(h, layer, ()), beta)
    rho = dense.prepare(dense.plan(h, layer, ()), beta)
    assert np.max(np.abs(expansion_matrix(e) - rho.entries)) < 1e-12
    n = h.site_graph.n_sites
    for region in regions or [c for r in range(1, n + 1) for c in itertools.combinations(range(n), r)]:
        assert pauli.region_entropy(e, pauli_region(e, region)) == pytest.approx(dense.region_entropy(rho, set(region)), abs=1e-10)
    return e


@pytest.mark.parametrize("beta", [0.3, 1.1, math.inf])
def test_mixture_whose_nonzero_set_is_not_a_subgroup(beta):
    """I 0.5, X 0.25, Y 0.25 zeroes Z only: {I, X, Y} is not a subgroup and
    spans every Pauli, so K is the whole group and the layer zeroes the
    Z-carrying coefficients itself."""
    h = ising_pauli_chain(4)
    layer = everywhere(lambda s: pauli_mixture(s, (0.5, 0.0, 0.25, 0.25)), (1, 2))
    assert [ch.pauli_table.tolist() for ch in layer.channels] == [[1.0, 0.0, 0.5, 0.5]] * 2
    e = assert_prepared_matches_dense(h, beta, layer)
    assert len(e.generators) == 3


def half_bell_measurement(site):
    """Weights (1 + chi(XX, P)/2 + chi(ZZ, P)/2)/16: damping factors 1 on
    II, 1/2 on XX and ZZ, 0 on YY and off the group they generate, so the
    nonzero set {II, XX, ZZ} is not a subgroup and spans {II, XX, ZZ, YY}."""
    xx, zz = PauliString.from_label("XX"), PauliString.from_label("ZZ")
    w = []
    for v in range(16):
        p = PauliString(2, v >> 2, v & 3)
        w.append((1 + (0.5 if p.commutes_with(xx) else -0.5) + (0.5 if p.commutes_with(zz) else -0.5)) / 16)
    return pauli_mixture(site, w)


@pytest.mark.parametrize("beta", [0.7, math.inf])
def test_two_qubit_nonzero_set_contributes_its_span(beta):
    """On the Bell chain the span of {II, XX, ZZ} keeps Bell measurement's K;
    the YY-carrying coefficients in it are damped to 0, and every region
    still agrees with dense."""
    layer = everywhere(half_bell_measurement, (1, 2))
    table = layer.channels[0].pauli_table
    assert np.flatnonzero(table).tolist() == [0b0000, 0b0011, 0b1100]
    e = assert_prepared_matches_dense(zoo.bell_chain(4), beta, layer)
    assert len(e.generators) == 2 and np.count_nonzero(e.coeffs) == 3


@pytest.mark.parametrize("n, beta", [(3, 0.3), (3, 1.0), (3, math.inf), (4, 0.3), (4, 1.0), (4, math.inf), (5, 0.3)])
def test_bell_chain_on_the_kept_subgroup_matches_dense(n, beta):
    """Bell measurement on the bulk keeps two generators whatever n; every
    region (the boundary partition's on n = 5) agrees with dense."""
    layer = zoo.bulk_layer("bell_chain", n, 0.0)
    p = Partition(frozenset({0}), frozenset(range(1, n - 1)), frozenset({n - 1}))
    regions = [p.a | p.b, p.b | p.c, p.b, p.abc] if n == 5 else None
    e = assert_prepared_matches_dense(zoo.bell_chain(n), beta, layer, regions)
    assert len(e.generators) == 2


def test_kept_path_random_models(rng):
    """Random commuting models (dependent terms too) under layers that zero
    coefficients: complete dephasing, bit-flip 1/2, complete depolarization
    and channels with no zero factor; the expansion is summed on K, and
    every subset entropy agrees with dense."""
    zeroing = (
        lambda s, p: dephasing(s, 0.5),
        lambda s, p: bitflip(s, 0.5),
        lambda s, p: complete_depolarization(s, 2),
        lambda s, p: bitflip(s, p),
    )
    for _ in range(20):
        n = 5
        h = random_commuting_pauli_model(rng, n, max_terms=int(rng.choice([5, 7])))
        beta = float(rng.choice([0.4, 1.3, math.inf]))
        sites = rng.choice(n, size=2, replace=False)
        layer = ChannelLayer(tuple(zeroing[rng.integers(4)](int(s), float(rng.uniform(0, 1))) for s in sites))
        try:
            pauli.expand_gibbs(pauli.plan(h, ChannelLayer(), ()), beta)
        except ValueError as err:  # a frustrated ground state has no expansion
            assert "frustrated" in str(err)
            continue
        assert_prepared_matches_dense(h, beta, layer)


def test_bell_chain_past_the_old_term_cap():
    """bell_chain_n13 has 24 terms and bell_chain_n41 80; Bell measurement
    keeps 2 generators, and the chain keeps exactly 2 bits at beta = inf:
    its marginals are flat, with integer entropies that the sum over the
    spectrum matches to rounding."""
    for n in (13, 41):
        h, layer = zoo.bell_chain(n), zoo.bulk_layer("bell_chain", n, 0.0)
        p = Partition(frozenset({0}), frozenset(range(1, n - 1)), frozenset({n - 1}))
        plan = pauli.plan(h, layer, p.regions)
        e = pauli.prepare(plan, math.inf)
        assert len(h.terms) == 2 * (n - 1) and e.coeffs.tolist() == [1.0] * 4
        assert cmi(pauli, e, plan.regions) == 2.0
        for region in plan.regions:
            s = pauli.marginal_entropy(e, region)
            assert s == round(s) and s == pytest.approx(entropy_bits(*pauli.marginal_spectrum(e, region)), abs=1e-12)
