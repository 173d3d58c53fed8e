"""End-to-end acceptance checks for the laboratory.

Each test pins one headline property: the two zero-temperature long-range
chains, the dephased-cluster-state identity, exponential CMI decay with a
temperature-monotone Markov length, the cluster-expansion vanishing lemmas
and norm certificates with their combinatorial estimates, the pinned-Gibbs
and post-selection identities, entropy-inequality sweeps, engine
cross-validation, the noisy-interface lower-bound calculator, and CLI
reproducibility."""

import itertools
import json
import math

import numpy as np
import pytest

from hmnlab import classical, dense, experiments, pauli, series, zoo
from hmnlab.channels import ChannelLayer, bitflip, transition_channel
from hmnlab.cli import main as cli_main
from hmnlab.combinatorics import (
    SimpleGraph,
    verify_combinatorial_estimate,
)
from hmnlab.model import (
    Partition,
    SiteGraph,
    build_dual_graph,
)
from hmnlab.series import (
    cmi_operator_series,
    connected_term_sets,
    connects,
    derivative_norm_certificate,
    enumerate_connected_clusters,
    log_series,
    spectral_norm,
)
from tests.conftest import (
    anchored_clusters,
    brute_cmi_bits,
    brute_force_chi_star,
    chi_star,
    cluster_derivative,
    damp_by_layer,
    ising_diag_chain,
    lattice_2x3,
    pauli_region,
    pinned_conditional,
    pinned_hamiltonian,
    pinned_traced_series,
    post_select_decompose,
    prob_tensor,
    random_commuting_pauli_model,
    random_pauli_diagonal_layer,
    theorem3_bound,
)


def test_parity_chain_one_bit_all_lengths():
    """Zero-temperature parity chain with the bulk read out: exactly one bit
    of CMI at every bulk length from 3 to 8."""
    for bulk in range(3, 9):
        n = bulk + 2
        h = zoo.parity_chain(n)
        layer = zoo.bulk_layer("parity_chain", n, 1.0)
        plan = classical.plan(h, layer, experiments.boundary_partition(n).regions)
        val = experiments.evaluate_cmi(plan, math.inf, "classical")
        assert val == pytest.approx(1.0, abs=1e-9), (bulk, val)


def test_bell_chain_two_bits_both_engines():
    """Bell chain under bulk Bell measurement: two bits of CMI, dense and
    symplectic engines agreeing across scales."""
    vals = {}
    for n, engine in ((4, "dense"), (5, "dense"), (6, "pauli"), (8, "pauli")):
        h = zoo.bell_chain(n)
        layer = zoo.bulk_layer("bell_chain", n, 1.0)
        plan = experiments.ENGINES[engine].plan(h, layer, experiments.boundary_partition(n).regions)
        vals[(n, engine)] = experiments.evaluate_cmi(plan, math.inf, engine)
    for key, v in vals.items():
        assert v == pytest.approx(2.0, abs=1e-8), (key, v)


def test_thermal_cluster_state_is_dephased_cluster_state():
    """Gibbs state of the cluster-chain Hamiltonian == cluster state pushed
    through uniform dephasing at p = 1/(e^{2 beta}+1)."""
    for beta in (0.2, 0.5, 1.0, 2.0):
        rep = experiments.cluster_gibbs_equivalence(6, beta, "dense")
        assert rep["distance"] <= 1e-10, rep


def test_classical_chain_markov_length():
    """Bit-flipped Ising chain: clean exponential decay, Markov length
    strictly increasing with beta, every point cross-checked against the
    exhaustive-enumeration oracle."""
    xis = []
    for beta in (0.05, 0.1, 0.2):
        curve = experiments.decay_curve("ising_chain", "classical", beta, range(1, 7), 0.2)
        for d, v in curve.points:
            n = int(d) + 1
            h = zoo.build_model("ising_chain", n)
            layer = zoo.bulk_layer("ising_chain", n, 0.2)
            dist = classical.apply_transitions(classical.gibbs_distribution(h, beta), layer)
            oracle = brute_cmi_bits(dist.probs, h.site_graph, experiments.boundary_partition(n))
            assert abs(v - oracle) <= 1e-10
        fit = experiments.fit_markov_length(curve)
        assert fit.r_squared >= 0.98 and not fit.diverged
        xis.append(fit.xi)
    assert xis[0] < xis[1] < xis[2]


def test_quantum_chain_decay_with_self_check():
    """Bit-flipped quantum ZZ chain at beta = 0.05: exponential fit, strong
    suppression between distances 2 and 4, and invariance of the CMI under
    reversing the chain (site permutation self-check)."""
    beta, p_noise = 0.05, 0.2
    curve = experiments.decay_curve("ising_chain", "dense", beta, range(1, 7), p_noise)
    fit = experiments.fit_markov_length(curve)
    assert fit.r_squared >= 0.98 and not fit.diverged
    by_d = dict(curve.points)
    assert by_d[2.0] / by_d[4.0] >= 5.0
    # reversed chain: relabel sites n-1-i; the spectrum of the problem is
    # unchanged, so the CMI must agree to numerical precision
    n = 5
    h = zoo.build_model("ising_chain", n)
    layer = zoo.bulk_layer("ising_chain", n, p_noise)
    fwd = experiments.evaluate_cmi(dense.plan(h, layer, experiments.boundary_partition(n).regions), beta, "dense")
    rev_p = Partition(frozenset({n - 1}), frozenset(range(1, n - 1)), frozenset({0}))
    rev = experiments.evaluate_cmi(dense.plan(h, layer, rev_p.regions), beta, "dense")
    assert fwd == pytest.approx(rev, abs=1e-12)
    assert fwd == pytest.approx(by_d[4.0], abs=1e-12)


def test_vanishing_lemmas_chain_and_lattice():
    """Weight <= 5 sweep on the chain and the 2x3 lattice: disconnected
    clusters drop out of the log series, and clusters that do not join A to
    C drop out of the CMI-operator series."""
    cases = []
    h_chain = zoo.build_model("ising_chain", 5)
    p_chain = experiments.boundary_partition(5)
    chain_layer = ChannelLayer(tuple(bitflip(s, 0.2) for s in range(1, 4)))
    cases.append((h_chain, chain_layer, p_chain))
    h_lat = lattice_2x3()
    p_lat = Partition(frozenset({0}), frozenset({1, 2, 3, 4}), frozenset({5}))
    lat_layer = ChannelLayer(tuple(bitflip(s, 0.2) for s in (1, 2, 3, 4)))
    cases.append((h_lat, lat_layer, p_lat))
    for h, layer, p in cases:
        g = build_dual_graph(h)
        connected = set(connected_term_sets(g, 5))
        beta = 0.2
        ls = log_series(series.series_of_channelled_gibbs(h, beta, layer, 5))
        for key, m in ls.coeffs.items():
            if key and tuple(a for a, _ in key) not in connected:
                assert spectral_norm(m) <= 1e-9, key
        cs = cmi_operator_series(h, beta, layer, p, 5)
        for key, m in cs.coeffs.items():
            if not key:
                continue
            from hmnlab.combinatorics import Cluster

            w = Cluster(tuple(key))
            if not (tuple(a for a, _ in key) in connected and connects(w, g, p)):
                assert spectral_norm(m) <= 1e-9, key


def test_derivative_norm_certificates():
    """(1/W!) ||D_W log E[rho]|| <= (2e(d+1) beta)^{|W|+1} for every
    connected cluster of weight <= 4, for unital quantum layers and for the
    pinned classical traced series."""
    betas = (0.01, 0.05, 0.1)
    h = zoo.build_model("ising_chain", 5)
    layer = ChannelLayer(tuple(bitflip(s, 0.3) for s in range(1, 4)))
    for beta in betas:
        rep = derivative_norm_certificate(series.plan(h, layer, 4), beta)
        assert rep["pass"], rep["violations"]
    # pinned classical branch: same bound on the log of the traced series
    hd = ising_diag_chain(4)
    t = np.array([[0.9, 0.1], [0.1, 0.9]])
    lyr = ChannelLayer((transition_channel(1, t), transition_channel(2, t)))
    g = build_dual_graph(hd)
    for beta in betas:
        for y1, y2 in itertools.product(range(2), repeat=2):
            pin = pinned_hamiltonian(hd, beta, lyr, {1: y1, 2: y2})
            ls = log_series(pinned_traced_series(pin, 4))
            for w in enumerate_connected_clusters(g, 4):
                norm = spectral_norm(cluster_derivative(ls, w)) / w.factorial
                bound = (2 * math.e * (g.degree + 1) * beta) ** (w.weight + 1)
                assert norm <= bound + 1e-12, (beta, y1, y2, w, norm, bound)


def test_anchored_cluster_counts():
    """Exhaustive anchored connected-cluster counts against the analytic
    e d (1 + e(d-1))^{w-1} budget, weight <= 6, chain and 2x3 lattice."""
    for h in (zoo.build_model("ising_chain", 7), lattice_2x3()):
        g = build_dual_graph(h)
        d = g.degree
        for site in range(h.site_graph.n_sites):
            counts = {}
            for w in anchored_clusters(g, 6, {site}):
                counts[w.weight] = counts.get(w.weight, 0) + 1
            for weight, count in counts.items():
                bound = math.e * d * (1 + math.e * (d - 1)) ** (weight - 1)
                assert count <= bound, (site, weight, count, bound)


def test_combinatorial_estimate_chain():
    """Left sum <= tree bound <= degree bound <= factorial budget for every
    connected cluster of weight <= 5 on the chain dual graph; exact-color
    counts validated against exhaustive enumeration up to 6 vertices."""
    h = zoo.build_model("ising_chain", 6)
    g = build_dual_graph(h)
    for w in enumerate_connected_clusters(g, 5):
        rep = verify_combinatorial_estimate(w, g)
        assert rep["ok"], (w, rep)
    graphs = [
        SimpleGraph(4, frozenset({(0, 1), (1, 2), (2, 3)})),
        SimpleGraph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)})),
        SimpleGraph(6, frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 4)})),
        SimpleGraph(6, frozenset(itertools.combinations(range(4), 2)) | frozenset({(3, 4), (4, 5)})),
    ]
    for sg in graphs:
        for ncol in range(1, sg.n + 1):
            assert chi_star(ncol, sg) == brute_force_chi_star(ncol, sg)


def test_pinned_gibbs_matches_post_selection():
    """Pinned-Hamiltonian conditionals equal post-selected conditionals to
    1e-12 in total variation, for every outcome, two transition families."""
    h = ising_diag_chain(4)
    beta = 0.5
    fams = [
        np.array([[0.9, 0.1], [0.1, 0.9]]),
        np.array([[0.6, 0.3], [0.4, 0.7]]),
    ]
    for t in fams:
        layer = ChannelLayer((transition_channel(1, t), transition_channel(2, t)))
        out = classical.apply_transitions(classical.gibbs_distribution(h, beta), layer)
        for y1, y2 in itertools.product(range(2), repeat=2):
            pin = pinned_hamiltonian(h, beta, layer, {1: y1, 2: y2})
            pred = pinned_conditional(pin)
            cond = prob_tensor(out)[:, y1, y2, :].ravel()
            cond = cond / cond.sum()
            assert 0.5 * np.abs(pred - cond).sum() <= 1e-12


def test_post_selection_decomposition_identity(rng):
    """CMI equals the outcome-weighted mutual information of the post-
    selected conditionals, on 100 random classical instances."""
    g = SiteGraph(4)
    p = Partition(frozenset({0}), frozenset({1, 2}), frozenset({3}))
    for _ in range(100):
        raw = rng.random(16) + 1e-3
        d = classical.Distribution(raw / raw.sum(), g)
        dec = post_select_decompose(d, p)
        total = sum(w * mi for w, mi in dec)
        assert abs(total - experiments.cmi(classical, d, p.regions)) <= 1e-10


def test_entropy_inequalities_random_sweep(rng):
    """SSA (CMI >= -1e-8) and data processing under extra channels on A or C,
    across 300 random instances, classical and quantum."""
    # 150 classical
    g4 = SiteGraph(4)
    p4 = Partition(frozenset({0}), frozenset({1, 2}), frozenset({3}))
    for _ in range(150):
        raw = rng.random(16)
        d = classical.Distribution(raw / raw.sum(), g4)
        base = experiments.cmi(classical, d, p4.regions)
        assert base >= -1e-8
        cols = rng.random((2, 2)) + 0.05
        t = cols / cols.sum(axis=0)
        site = int(rng.choice([0, 3]))
        noisy = classical.apply_transitions(d, ChannelLayer((transition_channel(site, t),)))
        assert experiments.cmi(classical, noisy, p4.regions) <= base + 1e-10
    # 150 quantum (random channelled commuting Gibbs states, dense engine)
    for _ in range(150):
        n = int(rng.integers(4, 7))
        h = random_commuting_pauli_model(rng, n, max_terms=n)
        layer = random_pauli_diagonal_layer(rng, n, max_sites=2)
        rho = dense.apply_layer(dense.gibbs_state(h, float(rng.uniform(0.1, 1.0))), layer)
        p = Partition(frozenset({0}), frozenset(range(1, n - 1)), frozenset({n - 1}))
        base = experiments.cmi(dense, rho, p.regions)
        assert base >= -1e-8
        end = int(rng.choice([0, n - 1]))
        extra = ChannelLayer((bitflip(end, float(rng.uniform(0, 0.5))),))
        assert experiments.cmi(dense, dense.apply_layer(rho, extra), p.regions) <= base + 1e-8


def test_engine_cross_validation(rng):
    """Symplectic vs dense marginal entropies on every subset, for 20 random
    commuting Pauli models with random Pauli-diagonal noise, n up to 8."""
    sizes = [5, 5, 5, 5, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 7, 7, 8, 8]
    for n in sizes:
        h = random_commuting_pauli_model(rng, n, max_terms=min(n, 6))
        beta = float(rng.uniform(0.1, 1.0))
        layer = random_pauli_diagonal_layer(rng, n, max_sites=2)
        e = damp_by_layer(pauli.expand_gibbs(pauli.plan(h, ChannelLayer(), ()), beta), layer)
        rho = dense.apply_layer(dense.gibbs_state(h, beta), layer)
        for r in range(1, n + 1):
            for region in itertools.combinations(range(n), r):
                a = pauli.marginal_entropy(e, pauli_region(e, region))
                b = dense.region_entropy(rho, set(region))
                assert abs(a - b) <= 1e-10, (n, region, a, b)


def test_interface_bound_calculator():
    """Closed-form checks and monotonicity of the noisy-interface CMI lower
    bound 2k - 4k sqrt(q) - 3 (3/2)^{2/3} q^{1/6}."""
    assert theorem3_bound(1, 0.0) == 2.0
    q = 1e-12
    expect = 2 - 4e-6 - 3 * 1.5 ** (2 / 3) * 1e-2
    assert theorem3_bound(1, q) == pytest.approx(expect, rel=1e-12)
    grid = np.logspace(-12, -2, 50)
    vals = [theorem3_bound(2, float(x)) for x in grid]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_manifest_rerun_byte_identical(tmp_path):
    """Every experiment kind reruns byte-identically from its manifest."""
    configs = [
        {
            "experiment": "decay",
            "model": "ising_chain_n5",
            "engine": "classical",
            "beta": [0.1, 0.2],
            "distances": [1, 2, 3, 4],
            "channel": {"kind": "bitflip", "p": 0.2},
            "output": "decay",
        },
        {
            "experiment": "certificates",
            "model": "ising_chain_n4",
            "engine": "pauli",
            "beta": [0.05],
            "channel": {"kind": "bitflip", "p": 0.2},
            "max_weight": 3,
            "output": "cert",
        },
        {
            "experiment": "cluster_equivalence",
            "model": "cluster_chain_n5",
            "engine": "pauli",
            "beta": [0.7],
            "n": 5,
            "output": "eq",
        },
    ]
    for cfg in configs:
        cfile = tmp_path / f"{cfg['output']}.config.json"
        cfile.write_text(json.dumps(cfg))
        a = tmp_path / f"{cfg['output']}_a"
        b = tmp_path / f"{cfg['output']}_b"
        assert cli_main(["run", str(cfile), "--output-dir", str(a)]) == 0
        manifest = a / f"{cfg['output']}.manifest.json"
        assert cli_main(["run", str(manifest), "--output-dir", str(b)]) == 0
        for ext in (".csv", ".json"):
            fa = a / (cfg["output"] + ext)
            fb = b / (cfg["output"] + ext)
            if fa.exists():
                assert fa.read_bytes() == fb.read_bytes(), fa
