"""Shared helpers: independent brute-force oracles and random model factories.

The oracles here deliberately avoid the package's engine code paths (direct
configuration loops, dict-based marginalization) so that engine bugs cannot
cancel out in the comparisons.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from hmnlab.channels import ChannelLayer, bitflip, compose_with_trace, dephasing, depolarizing
from hmnlab.combinatorics import Cluster
from hmnlab.dense import term_matrix
from hmnlab.model import HamiltonianTerm, LocalHamiltonian, PauliString, SiteGraph, build_dual_graph
from hmnlab.series import (
    TruncatedSeries,
    cluster_derivative,
    enumerate_connected_clusters,
    log_series,
    series_of_channelled_gibbs,
    spectral_norm,
)


def ising_pauli_chain(n, lam=-1.0):
    g = SiteGraph(n)
    terms = [
        HamiltonianTerm(
            (i, i + 1), PauliString.from_label("I" * i + "ZZ" + "I" * (n - i - 2)), lam
        )
        for i in range(n - 1)
    ]
    return LocalHamiltonian(g, tuple(terms))


def ising_diag_chain(n, lam=-1.0):
    g = SiteGraph(n)
    tbl = np.array([[1.0, -1.0], [-1.0, 1.0]])
    terms = [HamiltonianTerm((i, i + 1), tbl, lam) for i in range(n - 1)]
    return LocalHamiltonian(g, tuple(terms))


def lattice_2x3(lam=-0.9):
    """2 x 3 grid of ZZ bonds (7 edges), site (r, c) -> index 3r + c."""
    g = SiteGraph(6)
    edges = [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]
    terms = []
    for a, b in edges:
        z = (1 << a) | (1 << b)
        terms.append(HamiltonianTerm((a, b), PauliString(6, 0, z), lam))
    return LocalHamiltonian(g, tuple(terms))


def brute_gibbs_probs(h, beta):
    """Oracle: per-configuration exp(-beta E) by direct loops."""
    g = h.site_graph
    probs = []
    for cfg in itertools.product(range(g.q), repeat=g.n_sites):
        e = 0.0
        for t in h.terms:
            e += t.coefficient * t.operator[tuple(cfg[s] for s in t.support)]
        probs.append(math.exp(-beta * e))
    p = np.array(probs)
    return p / p.sum()


def brute_apply_transitions(probs, g, mats):
    """Oracle: sum over input configurations, dict of site -> T[out,in]."""
    out = np.zeros_like(probs)
    shape = (g.q,) * g.n_sites
    for i_in, cfg_in in enumerate(itertools.product(range(g.q), repeat=g.n_sites)):
        for i_out, cfg_out in enumerate(itertools.product(range(g.q), repeat=g.n_sites)):
            w = 1.0
            for s in range(g.n_sites):
                if s in mats:
                    w *= mats[s][cfg_out[s], cfg_in[s]]
                elif cfg_out[s] != cfg_in[s]:
                    w = 0.0
                    break
            if w:
                out[i_out] += w * probs[i_in]
    return out


def brute_entropy_bits(probs, g, region):
    """Oracle: marginal Shannon entropy via a dict keyed on region values."""
    region = sorted(region)
    marg = {}
    for i, cfg in enumerate(itertools.product(range(g.q), repeat=g.n_sites)):
        key = tuple(cfg[s] for s in region)
        marg[key] = marg.get(key, 0.0) + probs[i]
    return -sum(p * math.log2(p) for p in marg.values() if p > 0)


def brute_cmi_bits(probs, g, part):
    return (
        brute_entropy_bits(probs, g, part.a | part.b)
        + brute_entropy_bits(probs, g, part.b | part.c)
        - brute_entropy_bits(probs, g, part.b)
        - brute_entropy_bits(probs, g, part.abc)
    )


def brute_apply_layer(m, layer, g):
    """Oracle: every site channel's Kraus operators as full-space matrices
    I (x) K (x) I, applied as sum_K K m K^+ one channel after another (also
    to a stack of matrices, through matmul broadcasting)."""
    out = m
    for c in layer.channels:
        left = np.eye(g.q**c.site, dtype=complex)
        right = np.eye(g.q ** (g.n_sites - c.site - 1), dtype=complex)
        ks = [np.kron(np.kron(left, k), right) for k in c.kraus_ops()]
        out = sum(k @ out @ k.conj().T for k in ks)
    return out


def commuting_product_gibbs(h, beta):
    """Oracle: exp(-beta H)/Z of a commuting model at finite beta as the
    product of per-term exponentials, each from its own eigendecomposition."""
    g = h.site_graph
    prod = np.eye(g.dim, dtype=complex)
    for t in h.terms:
        tv, tw = np.linalg.eigh(term_matrix(g, t))
        prod = prod @ ((tw * np.exp(-beta * (tv - tv.min()))) @ tw.conj().T)
    return prod / np.trace(prod).real


def factor_product_series(h, beta, layer, max_degree, prefactor=None):
    """Oracle: {key: coefficient} of the channelled Gibbs series as the product
    of one truncated series per term, sum_k (-beta)^k / k! h_a^k lam_a^k,
    multiplied in term order after the prefactor, then the layer applied to
    each coefficient."""
    g = h.site_graph
    dim = g.dim
    p0 = np.eye(dim, dtype=complex) if prefactor is None else np.array(prefactor, dtype=complex)
    s = TruncatedSeries(max_degree, dim, {(): p0})
    for a, t in enumerate(h.terms):
        ha = term_matrix(g, t, bare=True)
        factor = TruncatedSeries(max_degree, dim)
        power = np.eye(dim, dtype=complex)
        for k in range(max_degree + 1):
            factor.coeffs[((a, k),) if k else ()] = ((-beta) ** k / math.factorial(k)) * power
            power = power @ ha
        s = s * factor
    return {k: brute_apply_layer(m, layer, g) for k, m in s.coeffs.items()}


def naive_series_product(s1, s2):
    """Oracle: {key: coefficient} of s1 * s2 by the double loop over both
    series' keys, one matrix product per pair within the truncation degree."""
    out = {}
    for k1, m1 in s1.coeffs.items():
        for k2, m2 in s2.coeffs.items():
            if sum(m for _, m in k1) + sum(m for _, m in k2) > s1.max_degree:
                continue
            acc = dict(k1)
            for a, m in k2:
                acc[a] = acc.get(a, 0) + m
            k = tuple(sorted(acc.items()))
            out[k] = out.get(k, 0) + m1 @ m2
    return out


def dense_certificate_norms(h, beta, layer, max_weight):
    """Reference: {cluster multiplicities: (1/W!) ||D_W log E[rho]||} from
    the public dense series, log and norm."""
    ls = log_series(series_of_channelled_gibbs(h, beta, layer, max_weight))
    return {
        w.multiplicities: spectral_norm(cluster_derivative(ls, w)) / w.factorial
        for w in enumerate_connected_clusters(build_dual_graph(h), max_weight)
    }


def dense_cmi_series(h, beta, layer, p, max_degree):
    """Reference: {key: coefficient} of the four-log CMI-operator series, each
    marginal's log from the public dense series of the layer composed with
    complete depolarization off the region."""
    out = TruncatedSeries(max_degree, h.site_graph.dim)
    every = set(range(h.site_graph.n_sites))
    for region, sgn in ((p.a | p.b, 1), (p.b | p.c, 1), (p.b, -1), (p.abc, -1)):
        lyr = compose_with_trace(layer, every - region, h.site_graph.q)
        out.add_inplace(log_series(series_of_channelled_gibbs(h, beta, lyr, max_degree)), sgn)
    return out.coeffs


def brute_connected_clusters(g, max_weight, anchor=None):
    """Oracle: the connected clusters of weight <= max_weight, by testing every
    C(m, k) term subset for connectivity (a BFS over overlapping supports),
    keeping those with a term meeting ``anchor``, and spreading each total
    weight over the subset in lexicographic order."""
    out = []
    for size in range(1, max_weight + 1):
        for subset in itertools.combinations(range(g.n_terms), size):
            seen, stack = {subset[0]}, [subset[0]]
            while stack:
                v = stack.pop()
                for u in subset:
                    if u not in seen and g.supports[u] & g.supports[v]:
                        seen.add(u)
                        stack.append(u)
            if len(seen) < size:
                continue
            if anchor is not None and not any(g.supports[a] & set(anchor) for a in subset):
                continue
            for w in range(size, max_weight + 1):
                for extra in itertools.product(range(w - size + 1), repeat=size):
                    if sum(extra) == w - size:
                        out.append(Cluster(tuple((a, 1 + e) for a, e in zip(subset, extra))))
    return out


def brute_force_chi_star(n, g):
    """Oracle: count colorings of V with colors 0..n-1 that use every color
    and make adjacent nodes differ."""
    count = 0
    for col in itertools.product(range(n), repeat=g.n):
        if len(set(col)) != n:
            continue
        if all(col[a] != col[b] for a, b in g.edges):
            count += 1
    return count


def random_commuting_pauli_model(rng, n, max_terms=6):
    """Random set of mutually commuting Pauli terms with coefficients in
    [-1, 1]; supports are whole-site (q=2) so any site may be channelled."""
    g = SiteGraph(n)
    terms = []
    tries = 0
    while len(terms) < max_terms and tries < 200:
        tries += 1
        x = int(rng.integers(0, 2**n))
        z = int(rng.integers(0, 2**n))
        if x == 0 and z == 0:
            continue
        p = PauliString(n, x, z)
        if all(p.commutes_with(t.operator) for t in terms):
            sup = tuple(sorted(p.support()))
            lam = float(rng.uniform(-1, 1))
            terms.append(HamiltonianTerm(sup, p, lam))
    return LocalHamiltonian(g, tuple(terms))


def random_pauli_diagonal_layer(rng, n, max_sites=3):
    sites = rng.choice(n, size=min(max_sites, n), replace=False)
    chans = []
    for s in sites:
        kind = rng.integers(0, 3)
        p = float(rng.uniform(0, 1))
        if kind == 0:
            chans.append(dephasing(int(s), p))
        elif kind == 1:
            chans.append(bitflip(int(s), p))
        else:
            chans.append(depolarizing(int(s), p))
    return ChannelLayer(tuple(chans))


def masked_product(ops, mask, n):
    p = PauliString.identity(n)
    for i, g in enumerate(ops):
        if mask >> i & 1:
            p = p * g
    return p


@st.composite
def dependent_commuting_models(draw, max_qubits=4):
    """Commuting Pauli models on 2..max_qubits qubits in which some terms are
    signed products of others, with a beta and a random Pauli-diagonal layer."""
    n = draw(st.integers(2, max_qubits))
    bits = st.integers(0, 2**n - 1)
    gens = []
    for x, z in draw(st.lists(st.tuples(bits, bits), min_size=2, max_size=4)):
        p = PauliString(n, x, z)
        if not p.is_identity() and all(p.commutes_with(g) for g in gens):
            gens.append(p)
    assume(len(gens) >= 2)
    ops = list(gens)
    masks = st.integers(1, 2 ** len(gens) - 1)
    for mask, sign in draw(st.lists(st.tuples(masks, st.sampled_from((1, -1))), min_size=1, max_size=3)):
        p = masked_product(gens, mask, n)
        if not p.is_identity():
            ops.append(PauliString(n, p.x, p.z, sign * p.sign))
    assume(len(ops) > len(gens))
    lams = draw(st.lists(st.floats(-1, 1), min_size=len(ops), max_size=len(ops)))
    h = LocalHamiltonian(
        SiteGraph(n),
        tuple(HamiltonianTerm(tuple(sorted(p.support())), p, lam) for p, lam in zip(ops, lams)),
    )
    kinds = {"dephasing": dephasing, "bitflip": bitflip, "depolarizing": depolarizing}
    noise = draw(
        st.dictionaries(st.integers(0, n - 1), st.tuples(st.sampled_from(sorted(kinds)), st.floats(0, 1)))
    )
    layer = ChannelLayer(tuple(kinds[k](s, p) for s, (k, p) in sorted(noise.items())))
    return h, draw(st.floats(0.05, 2.0)), layer


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
