import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmnlab import dense, pauli, zoo
from hmnlab.channels import ChannelLayer, bitflip, dephasing, depolarizing
from hmnlab.cli import main
from hmnlab.experiments import cmi
from hmnlab.model import (
    HamiltonianTerm,
    LocalHamiltonian,
    Partition,
    PauliString,
    SiteGraph,
)
from tests.conftest import (
    dependent_commuting_models,
    expansion_matrix,
    ising_pauli_chain,
    masked_product,
    pauli_support,
    random_commuting_pauli_model,
    random_pauli_diagonal_layer,
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
    e = pauli.expand_gibbs(h, 0.4)
    assert coeff(e, 0, 0) == 1.0
    assert coeff(e, 0, 1) == pytest.approx(-math.tanh(0.4))


def test_expand_matches_dense():
    h = ising_pauli_chain(4)
    for beta in (0.2, 0.9, math.inf):
        e = pauli.expand_gibbs(h, beta)
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
        pauli.expand_gibbs(h, math.inf)


def test_apply_layer_damps_coefficients():
    h = ising_pauli_chain(3)
    e = pauli.expand_gibbs(h, 0.5)
    out = pauli.apply_pauli_layer(e, ChannelLayer((bitflip(1, 0.25),)))
    t = math.tanh(0.5)  # lam = -1, so each bond carries +tanh(beta)
    # ZZ on sites (0,1): Z on site 1 damped by 1-2p = 0.5
    assert coeff(out, 0, 0b110) == pytest.approx(t * 0.5)
    # Z0Z2 has identity on the noisy site and survives undamped at t^2
    assert coeff(out, 0, 0b101) == pytest.approx(t * t)


def test_apply_layer_matches_dense():
    h = ising_pauli_chain(4)
    layer = ChannelLayer((bitflip(1, 0.3), depolarizing(2, 0.4, 2)))
    e = pauli.apply_pauli_layer(pauli.expand_gibbs(h, 0.7), layer)
    rho = dense.apply_layer(dense.gibbs_state(h, 0.7), layer)
    assert np.max(np.abs(expansion_matrix(e) - rho.entries)) < 1e-12


def test_restricted_group_rank():
    h = ising_pauli_chain(4)
    e = pauli.expand_gibbs(h, 0.5)
    grp = pauli.restricted_group(e, {0, 1, 2, 3})
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
    e = pauli.prepare(h, 0.7, layer)
    for region, rank in (({1, 2, 3}, 2), ({0, 1, 2, 3, 4}, 4), (set(range(6)), 5)):
        fast = pauli.restricted_group(e, region)
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
    e = pauli.expand_gibbs(h, 0.0)
    spec, mult = pauli.marginal_spectrum(e, {0, 1, 2})
    assert mult == 8 and np.allclose(spec, 1 / 8)


def test_region_entropy_refuses_a_negative_spectrum():
    """(I + c Z)/2 with c = 1 + 2e-9 has unit trace and the eigenvalue
    -1e-9, below the -1e-10 that entropy_bits allows on every engine."""
    z = PauliString.from_label("Z")
    e = pauli.PauliExpansion(SiteGraph(1), (z,), np.array([1.0, 1 + 2e-9]))
    assert pauli.marginal_spectrum(e, {0})[0] == pytest.approx([1 + 1e-9, -1e-9], abs=1e-15)
    with pytest.raises(ValueError, match="< -1e-10"):
        pauli.region_entropy(e, {0})


def test_marginal_entropy_matches_dense():
    h = ising_pauli_chain(5)
    layer = ChannelLayer((bitflip(2, 0.2),))
    e = pauli.apply_pauli_layer(pauli.expand_gibbs(h, 0.6), layer)
    rho = dense.apply_layer(dense.gibbs_state(h, 0.6), layer)
    for r in range(1, 5):
        for region in itertools.combinations(range(5), r):
            assert pauli.marginal_entropy(e, set(region)) == pytest.approx(
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
        e = pauli.apply_pauli_layer(pauli.expand_gibbs(h, beta), layer)
        rho = dense.apply_layer(dense.gibbs_state(h, beta), layer)
        for r in range(1, n + 1):
            for region in itertools.combinations(range(n), r):
                assert pauli.marginal_entropy(e, set(region)) == pytest.approx(
                    dense.region_entropy(rho, set(region)), abs=1e-10
                )


def test_pauli_cmi_matches_dense():
    h = ising_pauli_chain(5)
    layer = ChannelLayer((bitflip(1, 0.3), bitflip(2, 0.3), bitflip(3, 0.3)))
    e = pauli.apply_pauli_layer(pauli.expand_gibbs(h, 0.8), layer)
    rho = dense.apply_layer(dense.gibbs_state(h, 0.8), layer)
    p = Partition(frozenset({0}), frozenset({1, 2, 3}), frozenset({4}))
    assert cmi(pauli, e, p) == pytest.approx(cmi(dense, rho, p), abs=1e-10)


def test_pauli_scales_past_dense():
    """A 16-site chain is far beyond the dense cap but cheap here."""
    h = ising_pauli_chain(16)
    layer = ChannelLayer(tuple(bitflip(i, 0.1) for i in range(1, 15)))
    e = pauli.apply_pauli_layer(pauli.expand_gibbs(h, 0.4), layer)
    p = Partition(frozenset({0}), frozenset(range(1, 15)), frozenset({15}))
    val = cmi(pauli, e, p)
    assert -1e-10 <= val < 1e-4


def test_term_cap():
    h = ising_pauli_chain(30)
    with pytest.raises(ValueError, match="cap"):
        pauli.expand_gibbs(h, 0.3)


def assert_entropies_match_dense(h, beta, layer):
    n = h.site_graph.n_sites
    e = pauli.expand_gibbs(h, beta)
    rho = dense.gibbs_state(h, beta)
    assert np.max(np.abs(expansion_matrix(e) - rho.entries)) < 1e-12
    e = pauli.apply_pauli_layer(e, layer)
    rho = dense.apply_layer(rho, layer)
    for r in range(1, n + 1):
        for region in itertools.combinations(range(n), r):
            assert pauli.marginal_entropy(e, set(region)) == pytest.approx(
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
