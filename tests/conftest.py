"""Shared helpers: independent brute-force oracles, exact references and
random model factories.

The oracles here deliberately avoid the package's engine code paths (direct
configuration loops, dict-based marginalization) so that engine bugs cannot
cancel out in the comparisons.  The exact references (the CMI operator, the
dense state of a pauli expansion, a series evaluated at numbers, channel
composition, exact-n colorings, the estimate chain with no memo) are built
from the package's primitives, one step at a time, and only the tests call
them; so does the closed-form noisy-interface bound ``theorem3_bound``, which
no run computes, and so does the pinning construction of the paper's
classical case (post-selection on channel outcomes, pinned Hamiltonians and
their traced series with its checks), since no run computes certificates
under a non-unital layer.  The pauli kernels' full-length forms (one gather update per
term, one damping gather per channel, a stacked transform, a concatenating
span) are kept here as bit-exact references for the in-place kernels, and
so are the certificate path's per-key character series and per-cluster
report for the array forms, and the pauli plan built from one
``PauliString`` product per factor for the plan on (x, z) words.
"""

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from hmnlab.channels import (
    ChannelLayer,
    SiteChannel,
    _paulis,
    bell_measurement,
    bitflip,
    complete_depolarization,
    compose_with_trace,
    dephasing,
    depolarizing,
    pauli_mixture,
)
from hmnlab.classical import Distribution, energy_table, marginal, shannon_entropy
from hmnlab.combinatorics import (
    Cluster,
    _chromatic_poly,
    coloring_weight,
    enumerate_connected_partitions,
    interaction_graph_of_cluster,
    key_factorial,
    quotient_graph,
    spanning_tree_count,
)
from hmnlab.dense import apply_layer_to_matrix, hamiltonian_matrix, partial_trace_matrix, term_matrix
from hmnlab.experiments import beta_critical
from hmnlab.model import HamiltonianTerm, LocalHamiltonian, PauliString, SiteGraph, _terms_commute, build_dual_graph
from hmnlab.pauli import (
    Plan,
    Region,
    _kernel,
    _reduce,
    _xor_span,
    apply_pauli_layer,
    damping,
    group_element,
    region,
    term_group,
    walsh_hadamard,
)
from hmnlab.series import (
    SERIES_FLOOR,
    TruncatedSeries,
    _key_index,
    _series_builder,
    connected_term_sets,
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


_PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_pauli_matrix(p: PauliString) -> np.ndarray:
    """Oracle: the string's matrix as a kron chain of its one-qubit Paulis,
    qubit 0 the most significant factor."""
    out = np.array([[p.sign]], dtype=complex)
    for j in range(p.n):
        xb, zb = (p.x >> j) & 1, (p.z >> j) & 1
        out = np.kron(out, _PAULI_MATS["IXZY"[xb + 2 * zb]])
    return out


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


def entropy_bits_reference(values, degeneracy=1):
    """Reference: p log p over the values of mass (value times degeneracy)
    above 1e-18 in one expression, with full-size temporaries and numpy's
    pairwise sum."""
    v = np.ravel(values)
    v = v[v * degeneracy > 1e-18]
    return float(-degeneracy * (v * np.log(v)).sum() / math.log(2.0))


def brute_marginal(probs, g, region):
    """Oracle: the (q,)*n tensor summed over every site outside ``region``
    by one multi-axis numpy sum; axes of the region sites in increasing order."""
    keep = set(region)
    axes = tuple(s for s in range(g.n_sites) if s not in keep)
    t = np.asarray(probs).reshape((g.q,) * g.n_sites)
    return t.sum(axis=axes) if axes else t


def brute_cmi_bits(probs, g, part):
    return (
        brute_entropy_bits(probs, g, part.a | part.b)
        + brute_entropy_bits(probs, g, part.b | part.c)
        - brute_entropy_bits(probs, g, part.b)
        - brute_entropy_bits(probs, g, part.abc)
    )


def choi_kraus(c: SiteChannel) -> list:
    """Oracle: Kraus operators of a site channel from the eigendecomposition
    of its Choi matrix C[(i, k), (j, l)] = S[i, j, k, l] = sum_K K[i, k]
    conj(K[j, l]): each eigenvector of eigenvalue w > 1e-15, reshaped to
    (q, q) and scaled by sqrt(w)."""
    q = c.dim
    w, v = np.linalg.eigh(c.superop.transpose(0, 2, 1, 3).reshape(q * q, q * q))
    return [math.sqrt(x) * v[:, a].reshape(q, q) for a, x in enumerate(w) if x > 1e-15]


def brute_apply_layer(m, layer, g):
    """Oracle: every site channel's Choi-matrix Kraus operators as
    full-space matrices I (x) K (x) I, applied as sum_K K m K^+ one channel
    after another (also to a stack of matrices, through matmul
    broadcasting)."""
    out = m
    for c in layer.channels:
        left = np.eye(g.q**c.site, dtype=complex)
        right = np.eye(g.q ** (g.n_sites - c.site - 1), dtype=complex)
        ks = [np.kron(np.kron(left, k), right) for k in choi_kraus(c)]
        out = sum(k @ out @ k.conj().T for k in ks)
    return out


def brute_partial_trace(m, keep, g):
    """Oracle: out[i, j] = sum_t m[(i, t), (j, t)], an explicit loop over the
    kept ket and bra configurations i and j and the traced configurations t.
    Each configuration's place in the full index is the sum of its sites'
    digits times q^(n-1-site), so the kept and traced parts add."""
    keep = sorted(set(keep))
    rest = [s for s in range(g.n_sites) if s not in keep]

    def offsets(sites):
        return [
            sum(v * g.q ** (g.n_sites - 1 - s) for s, v in zip(sites, config))
            for config in itertools.product(range(g.q), repeat=len(sites))
        ]

    kept, traced = offsets(keep), offsets(rest)
    out = np.zeros((len(kept), len(kept)), dtype=complex)
    for a, i in enumerate(kept):
        for b, j in enumerate(kept):
            for t in traced:
                out[a, b] += m[i + t, j + t]
    return out


def _psd_log(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    if vals.min() < 1e-12:
        raise ValueError("temperature too low for operator-log form")
    return (vecs * np.log(vals)) @ vecs.conj().T


def embed_operator(m: np.ndarray, region, graph: SiteGraph) -> np.ndarray:
    """m on the sorted sites of region, tensored with identity elsewhere,
    permuted into global site order."""
    region = sorted(set(region))
    rest = [s for s in range(graph.n_sites) if s not in region]
    q, n = graph.q, graph.n_sites
    big = np.kron(m, np.eye(q ** len(rest), dtype=complex))
    order = region + rest
    t = big.reshape((q,) * n * 2)
    inv = [order.index(s) for s in range(n)]
    t = t.transpose(inv + [n + i for i in inv])
    return t.reshape(graph.dim, graph.dim)


def exact_cmi_operator(h, beta, layer, p) -> np.ndarray:
    """Reference: log E[rho_AB] + log E[rho_BC] - log E[rho_B] - log E[rho_ABC]
    with unnormalized rho = exp(-beta H) and each marginal embedded as
    Tr_Lc(.) (x) I_Lc.  The channel layer must live on B."""
    g = h.site_graph
    if not layer.sites <= p.b:
        raise ValueError("exact_cmi_operator expects the channel layer on B")
    hm = hamiltonian_matrix(h)
    vals, vecs = np.linalg.eigh(hm)
    rho_t = (vecs * np.exp(-beta * vals)) @ vecs.conj().T  # unnormalized
    noised = apply_layer_to_matrix(rho_t, layer, g)
    out = np.zeros_like(noised)
    for region, s in ((p.a | p.b, 1), (p.b | p.c, 1), (p.b, -1), (p.abc, -1)):
        if region:
            marg = partial_trace_matrix(noised, region, g)
            full = embed_operator(marg, region, g)
        else:
            full = np.trace(noised).real * np.eye(g.dim, dtype=complex)
        out = out + s * _psd_log(full)
    return out


def expansion_matrix(e) -> np.ndarray:
    """Reference: the dense state of a pauli expansion, sum_v c_v g_v / 2^n."""
    d = 2**e.n
    out = np.zeros((d, d), dtype=complex)
    for v, c in enumerate(e.coeffs):
        out += c * group_element(e.generators, v, e.n).to_matrix()
    return out / d


def pauli_region(e, sites):
    """The pauli ``region`` of a site set over the generators of expansion e."""
    return region(e.graph, e.generators, sites)


def damp_by_layer(e, layer):
    """``apply_pauli_layer`` with the ``damping`` of a layer over e's generators."""
    return apply_pauli_layer(e, damping(e.graph, e.generators, layer))


def lift(e, generators) -> np.ndarray:
    """The coefficients of expansion e over the group of ``generators``, which
    holds e's own generators (each a product g_v of them, sign included); 0
    off e's subgroup."""
    n = e.n
    pivots: dict = {}
    for i, g in enumerate(generators):
        _reduce(pivots, (g.x << n) | g.z, 1 << i)
    masks = []
    for g in e.generators:
        word, mask = _reduce(pivots, (g.x << n) | g.z, 0)
        if word or group_element(generators, mask, n) != g:
            raise ValueError("the expansion's generators are not products of the given ones")
        masks.append(mask)
    out = np.zeros(2 ** len(generators))
    out[_xor_span(masks)] = e.coeffs
    return out


def gather_expansion(h, beta) -> np.ndarray:
    """Reference: the expansion's coefficients by one update
    c <- c - t_a sigma_a c[v xor b_a] per term over all 2^r group elements."""
    gens, coords, signs = term_group(h)
    c = np.zeros(2 ** len(gens))
    c[0] = 1.0
    for t, b, sigma in zip(h.terms, coords, signs):
        lam = t.coefficient
        ta = math.tanh(beta * lam) if not math.isinf(beta) else float(np.sign(lam))
        c = c - ta * sigma * c[np.arange(c.size) ^ b]
    return c / c[0]


def concatenated_xor_span(rows, dtype=np.int64) -> np.ndarray:
    """Reference: out[v] = XOR of rows[i] over the set bits i of v, the span
    grown by one concatenation per row."""
    out = np.zeros(1, dtype)
    for row in rows:
        out = np.concatenate((out, out ^ row))
    return out


def gather_damp(c, graph, generators, layer) -> np.ndarray:
    """Reference: c times each channel's damping table read at the local bits
    of every g_v, one full-length table index per channel."""
    k = graph.qubits_per_site
    mask = (1 << k) - 1
    for ch in layer.channels:
        rows = [
            (((g.x >> ch.site * k) & mask) << k) | ((g.z >> ch.site * k) & mask)
            for g in generators
        ]
        if any(rows):
            c = c * ch.pauli_table[concatenated_xor_span(rows, np.min_scalar_type(4**k - 1))]
    return c


def stacked_walsh_hadamard(x) -> np.ndarray:
    """Reference: the Walsh-Hadamard transform along the last axis, each
    level's sums and differences stacked into a new array."""
    lead, size = x.shape[:-1], x.shape[-1]
    h = 1
    while h < size:
        x = x.reshape(lead + (size // (2 * h), 2, h))
        x = np.stack((x[..., 0, :] + x[..., 1, :], x[..., 0, :] - x[..., 1, :]), axis=-2)
        h *= 2
    return x.reshape(lead + (size,))


def per_key_character_series(h, beta, layer, max_degree):
    """Reference: the character-basis series by one Python step per key, the
    key's factors multiplied in run order and its group element XORed up,
    damped by ``gather_damp`` and transformed by ``stacked_walsh_hadamard``."""
    gens, coords, signs = term_group(h)
    f = gather_damp(np.ones(2 ** len(gens)), h.site_graph, gens, layer)
    keys = _key_index(len(h.terms), max_degree).keys
    elements, scales = [], []
    for key in keys:
        c, v = 1.0, 0
        for a, k in key:
            c *= (-beta * signs[a]) ** k / math.factorial(k)
            v ^= coords[a] if k % 2 else 0
        elements.append(v)
        scales.append(c * f[v])
    stack = np.zeros((len(keys), f.size))
    stack[np.arange(len(keys)), elements] = scales
    chars = stacked_walsh_hadamard(stack)
    chars[0] = 1.0
    return TruncatedSeries(len(h.terms), max_degree, np.ones(f.size), chars).prune(SERIES_FLOOR)


def per_cluster_certificate(h, beta, layer, max_weight):
    """Reference: the derivative-norm report by one Python step per cluster,
    on the log of the series at beta = 1 of the route the library takes (the
    per-key character series in place of the library's), each cluster's norm
    scaled by beta^{|W|} and checked against beta^{|W|} (2e(d+1))^{|W|+1}."""
    g = build_dual_graph(h)
    build = _series_builder(h, layer)
    build = build if build is series_of_channelled_gibbs else per_key_character_series
    s = log_series(build(h, 1.0, layer, max_weight))
    entries, violations = [], 0
    for w in enumerate_connected_clusters(g, max_weight):
        norm = spectral_norm(cluster_derivative(s, w)) / w.factorial * beta**w.weight
        bound = beta**w.weight * (2 * math.e * (g.degree + 1)) ** (w.weight + 1)
        ok = norm <= bound + 1e-12
        violations += not ok
        entries.append(
            {
                "terms": [a for a, _ in w.multiplicities],
                "multiplicities": [m for _, m in w.multiplicities],
                "weight": w.weight,
                "norm": norm,
                "bound": bound,
                "pass": ok,
            }
        )
    return {
        "beta": beta,
        "beta_c": beta_critical(g.degree),
        "degree": g.degree,
        "max_weight": max_weight,
        "clusters": entries,
        "violations": violations,
        "pass": violations == 0,
    }


def series_from_dict(n_terms, max_degree, unit, coeffs: dict) -> TruncatedSeries:
    """A series in ``n_terms`` variables from {key: coefficient}; every key
    it leaves out is a zero row."""
    index = _key_index(n_terms, max_degree)
    stack = np.zeros((len(index.keys),) + unit.shape, unit.dtype)
    for k, m in coeffs.items():
        stack[index.row[k]] = m
    return TruncatedSeries(n_terms, max_degree, unit, stack)


def character_matrices(s, h):
    """Reference: a character-basis series of the model h with (dim, dim)
    coefficients: back to group coefficients c_v by the inverse transform,
    then summed against g_v, the group of ``term_group(h)``."""
    gens = term_group(h)[0]
    r, dim = len(gens), h.site_graph.dim
    c = walsh_hadamard(s.stack) / 2**r
    out = np.zeros((len(c), dim, dim), dtype=complex)
    for v in np.flatnonzero(np.any(c != 0, axis=0)):
        out += c[:, v, None, None] * group_element(gens, int(v), h.site_graph.n_qubits).to_matrix()
    return TruncatedSeries(s.n_terms, s.max_degree, np.eye(dim, dtype=complex), out)


def evaluate_series(s, lam: dict) -> np.ndarray:
    """Reference: the series with numeric values substituted for the term
    variables."""
    out = s.zeros()
    for k, m in s.coeffs.items():
        scale = 1.0
        for a, mu in k:
            scale *= lam.get(a, 0.0) ** mu
        if scale:
            out += scale * m
    return out


def compose_channels(first: SiteChannel, second: SiteChannel) -> SiteChannel:
    """Reference: second after first, on the same site, as the contraction
    of the two superoperators."""
    if first.site != second.site:
        raise ValueError("site mismatch")
    return SiteChannel(first.site, np.einsum("ijmn,mnkl->ijkl", second.superop, first.superop))


def commuting_product_gibbs(h, beta):
    """Oracle: exp(-beta H)/Z of a commuting model at finite beta as the
    product of per-term exponentials, each from its own eigendecomposition."""
    g = h.site_graph
    prod = np.eye(g.dim, dtype=complex)
    for t in h.terms:
        tv, tw = np.linalg.eigh(t.coefficient * term_matrix(g, t))
        prod = prod @ ((tw * np.exp(-beta * (tv - tv.min()))) @ tw.conj().T)
    return prod / np.trace(prod).real


def eigh_gibbs(h, beta) -> np.ndarray:
    """Oracle: exp(-beta H)/Z from one eigendecomposition of the
    Hamiltonian matrix; beta=inf gives the maximally mixed state on the
    eigenvalues within 1e-10 of the lowest."""
    vals, vecs = np.linalg.eigh(hamiltonian_matrix(h))
    if math.isinf(beta):
        w = np.where(vals <= vals[0] + 1e-10, 1.0, 0.0)
    else:
        w = np.exp(-beta * (vals - vals.min()))
    w /= w.sum()
    return (vecs * w) @ vecs.conj().T


def all_pairs_commuting(h) -> bool:
    """Oracle: the commutation verdict over every pair of terms, whether or
    not they share a site."""
    return all(
        _terms_commute(h.terms[i], h.terms[j], h.site_graph)
        for i, j in itertools.combinations(range(len(h.terms)), 2)
    )


def factor_product_series(h, beta, layer, max_degree, prefactor=None):
    """Oracle: {key: coefficient} of the channelled Gibbs series as the product
    of one truncated series per term, sum_k (-beta)^k / k! h_a^k lam_a^k,
    multiplied in term order after the prefactor, then the layer applied to
    each coefficient."""
    g = h.site_graph
    n_terms, eye = len(h.terms), np.eye(g.dim, dtype=complex)
    p0 = eye if prefactor is None else np.array(prefactor, dtype=complex)
    s = series_from_dict(n_terms, max_degree, eye, {(): p0})
    for a, t in enumerate(h.terms):
        ha = term_matrix(g, t)
        factor = {}
        power = eye
        for k in range(max_degree + 1):
            factor[((a, k),) if k else ()] = ((-beta) ** k / math.factorial(k)) * power
            power = power @ ha
        s = s * series_from_dict(n_terms, max_degree, eye, factor)
    return {k: brute_apply_layer(m, layer, g) for k, m in s.coeffs.items()}


def naive_series_product(s1, s2):
    """Oracle: {key: coefficient} of s1 * s2 by the double loop over both
    series' keys, one product per pair within the truncation degree: matmul
    for a matrix unit, elementwise for a character vector."""
    times = np.matmul if s1.unit.ndim == 2 else np.multiply
    out = {}
    for k1, m1 in s1.coeffs.items():
        for k2, m2 in s2.coeffs.items():
            if sum(m for _, m in k1) + sum(m for _, m in k2) > s1.max_degree:
                continue
            acc = dict(k1)
            for a, m in k2:
                acc[a] = acc.get(a, 0) + m
            k = tuple(sorted(acc.items()))
            out[k] = out.get(k, 0) + times(m1, m2)
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
    out = series_from_dict(len(h.terms), max_degree, np.eye(h.site_graph.dim, dtype=complex), {})
    every = set(range(h.site_graph.n_sites))
    for region, sgn in ((p.a | p.b, 1), (p.b | p.c, 1), (p.b, -1), (p.abc, -1)):
        lyr = compose_with_trace(layer, every - region, h.site_graph.q)
        out.stack += sgn * log_series(series_of_channelled_gibbs(h, beta, lyr, max_degree)).stack
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


def anchored_clusters(g, max_weight, anchor):
    """The connected clusters of weight <= max_weight with a term whose
    support meets the site set ``anchor``, in the library's order: the full
    list, filtered."""
    anchor = set(anchor)
    return [w for w in enumerate_connected_clusters(g, max_weight) if any(g.supports[a] & anchor for a in w.support)]


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


def chromatic_polynomial(g, x: int) -> int:
    """P_g(x) from the library's cached coefficients."""
    coeffs = _chromatic_poly(g.n, g.edges)
    return sum(c * x**i for i, c in enumerate(coeffs))


def chi_star(n: int, g) -> int:
    """Reference: proper colorings using exactly n colors (inclusion-exclusion
    over the chromatic polynomial)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return sum(
        (-1) ** (n - j) * math.comb(n, j) * chromatic_polynomial(g, j)
        for j in range(n + 1)
    )


def estimate_chain_reference(w, g):
    """Reference: the estimate chain of one cluster computed afresh, with no
    memo."""
    graph = interaction_graph_of_cluster(w, g)
    left = sum(
        abs(coloring_weight(quotient_graph(graph, blocks)))
        for blocks in enumerate_connected_partitions(graph)
    )
    tau = spanning_tree_count(graph)
    mid1 = 2 ** (w.weight - 1) * tau
    degprod = 1
    for nbrs in graph.neighbors:
        degprod *= max(len(nbrs), 1)
    mid2 = 2 ** (w.weight - 1) * degprod
    right = w.factorial * (2 * math.e * (1 + g.degree)) ** (w.weight + 1)
    return {
        "weight": w.weight,
        "left": left,
        "tree_bound": mid1,
        "degree_bound": mid2,
        "final_bound": right,
        "ok": left <= mid1 <= mid2 and float(mid2) <= right,
    }


def theorem3_bound(k: int, q: float) -> float:
    """Proof-constant lower bound on the CMI retained across a noisy logical
    interface: 2k minus the trace-distance (Fannes-Audenaert) term 4k sqrt(q)
    minus the measurement-entropy term 3 (3/2)^{2/3} q^{1/6}; floored at 0.
    This uses the explicit proof constants and is not claimed tight."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    val = 2 * k - 4 * k * math.sqrt(q) - 3 * (1.5) ** (2 / 3) * q ** (1 / 6)
    return max(val, 0.0)


def prob_tensor(d) -> np.ndarray:
    """A distribution's probabilities as a (q,)*n tensor, site 0 first."""
    return d.probs.reshape((d.graph.q,) * d.graph.n_sites)


def cluster_derivative(s, w) -> np.ndarray:
    """D_W applied to the function the series represents: W! times the
    coefficient of lambda^W."""
    if w.weight > s.max_degree:
        raise ValueError("cluster weight exceeds truncation degree")
    return w.factorial * s.get(w.multiplicities)


def post_select_decompose(d, p) -> list:
    """Per outcome y on B: (P(B=y), I(A:C | B=y)).  The weighted sum of the
    mutual informations equals experiments.cmi(classical, d, p.regions)."""
    if not p.b:
        raise ValueError("B must be nonempty to post-select")
    g = d.graph
    b = sorted(p.b)
    rest = [s for s in range(g.n_sites) if s not in p.b]
    t = np.moveaxis(prob_tensor(d), b + rest, range(g.n_sites))
    t = t.reshape(g.q ** len(b), -1)
    relabel = {s: i for i, s in enumerate(rest)}
    a, c = frozenset(relabel[s] for s in p.a), frozenset(relabel[s] for s in p.c)
    out = []
    for row in t:
        w = row.sum()
        if w < 1e-15:
            continue
        cond = Distribution(row / w, SiteGraph(len(rest), g.q))
        mi = shannon_entropy(cond, a) + shannon_entropy(cond, c) - shannon_entropy(cond, a | c)
        out.append((float(w), float(mi)))
    return out


@dataclass
class PinnedHamiltonian:
    """beta*H plus per-site pinning fields d^{(i)}(y') = -log T_i(y_i, y'),
    one for each channelled site i with observed outcome y_i."""

    h: LocalHamiltonian
    beta: float
    pinning: dict  # site -> length-q array of pinning energies

    def gibbs(self) -> Distribution:
        """exp(-(beta H + sum_i d^{(i)})), normalized over all configurations."""
        e = self.beta * energy_table(self.h)
        g = self.h.site_graph
        for s, d in self.pinning.items():
            shape = [1] * g.n_sites
            shape[s] = g.q
            e = e + d.reshape(shape)
        w = np.exp(-(e.ravel() - e.min()))
        return Distribution(w / w.sum(), g)


def pinned_hamiltonian(h, beta, layer, y: dict) -> PinnedHamiltonian:
    """Pinning construction for conditioning a channelled Gibbs distribution
    on outcome y over the channelled sites: marginalizing the pinned Gibbs
    over the channelled sites reproduces the post-selected conditional."""
    pinning = {}
    for c in layer.channels:
        if c.site not in y:
            raise ValueError(f"no outcome given for site {c.site}")
        col = c.transition[y[c.site], :]
        if np.any(col <= 0):
            raise ValueError("zero transition entry; mix the channel with a small depolarization before pinning")
        pinning[c.site] = -np.log(col)
    return PinnedHamiltonian(h, beta, pinning)


def pinned_conditional(pin: PinnedHamiltonian) -> np.ndarray:
    """Marginal of the pinned Gibbs over the unchannelled sites (the
    prediction for the channel-conditioned distribution there)."""
    g = pin.h.site_graph
    keep = [s for s in range(g.n_sites) if s not in pin.pinning]
    return marginal(pin.gibbs(), keep).ravel()


def pinned_traced_series(pin: PinnedHamiltonian, max_degree: int) -> TruncatedSeries:
    """Series of E_Gamma^Tr[rho_pinned] where rho_pinned = exp(-(beta H + sum d_i))
    normalized by q^{|Y|}/Z_0, traced over the pinned sites Gamma: the
    library's series under no channel, each coefficient multiplied by the
    pinning factors (a fixed, unexpanded diagonal prefactor of mean 1 on each
    pinned site), then the trace applied to every coefficient."""
    h = pin.h
    g = h.site_graph
    pre = np.ones(g.dim)
    for site, d in pin.pinning.items():
        shape = [1] * g.n_sites
        shape[site] = g.q
        factor = (g.q / np.exp(-d).sum()) * np.exp(-d)
        pre = pre * np.broadcast_to(factor.reshape(shape), (g.q,) * g.n_sites).ravel()
    s = series_of_channelled_gibbs(h, pin.beta, ChannelLayer(), max_degree)
    stack = apply_layer_to_matrix(pre[:, None] * s.stack, compose_with_trace(ChannelLayer(), pin.pinning, g.q), g)
    if np.max(np.abs(stack[0] - s.unit)) > 1e-10:
        raise ValueError("degree-0 coefficient is not identity")
    stack[0] = s.unit
    return replace(s, stack=stack).prune(SERIES_FLOOR)


def pinned_series_check(pin: PinnedHamiltonian, max_degree: int) -> dict:
    """Verifies for the pinned traced series: (i) degree-0 coefficient = I,
    (ii) disconnected-cluster log-derivatives vanish, (iii) connected-cluster
    derivatives of the state series obey ||D_V E[rho]|| <= beta^{|V|}."""
    g = build_dual_graph(pin.h)
    s = pinned_traced_series(pin, max_degree)
    d0_ok = bool(np.max(np.abs(s.get(()) - s.unit)) <= 1e-10)
    connected = set(connected_term_sets(g, max_degree))
    max_disc = 0.0
    for key, m in log_series(s).coeffs.items():
        if key and tuple(a for a, _ in key) not in connected:
            max_disc = max(max_disc, spectral_norm(m) * key_factorial(key))
    bound_viol = []
    for w in enumerate_connected_clusters(g, max_degree):
        norm = spectral_norm(cluster_derivative(s, w))
        if norm > pin.beta**w.weight + 1e-12:
            bound_viol.append({"terms": [a for a, _ in w.multiplicities], "norm": norm})
    return {
        "degree0_identity": d0_ok,
        "max_disconnected_log_norm": max_disc,
        "disconnected_ok": max_disc <= 1e-9,
        "beta_power_violations": bound_viol,
        "pass": d0_ok and max_disc <= 1e-9 and not bound_viol,
    }


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
            sup = tuple(sorted(pauli_support(p)))
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
            chans.append(depolarizing(int(s), p, 2))
    return ChannelLayer(tuple(chans))


def pauli_label(p: PauliString) -> str:
    """Left-to-right label like "XZIY" (qubit 0 first), the inverse of
    ``PauliString.from_label`` up to the sign."""
    return "".join("IXZY"[((p.x >> j) & 1) + 2 * ((p.z >> j) & 1)] for j in range(p.n))


def pauli_support(p: PauliString) -> frozenset:
    """The qubits on which ``p`` is not the identity."""
    return frozenset(j for j in range(p.n) if ((p.x | p.z) >> j) & 1)


def masked_product(ops, mask, n):
    """Reference for ``group_element``: the ops in mask multiplied in index
    order from the identity, one ``PauliString`` product per factor."""
    p = PauliString(n, 0, 0, 1)
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
        if (p.x, p.z) != (0, 0) and all(p.commutes_with(g) for g in gens):
            gens.append(p)
    assume(len(gens) >= 2)
    ops = list(gens)
    masks = st.integers(1, 2 ** len(gens) - 1)
    for mask, sign in draw(st.lists(st.tuples(masks, st.sampled_from((1, -1))), min_size=1, max_size=3)):
        p = masked_product(gens, mask, n)
        if (p.x, p.z) != (0, 0):
            ops.append(PauliString(n, p.x, p.z, sign * p.sign))
    assume(len(ops) > len(gens))
    lams = draw(st.lists(st.floats(-1, 1), min_size=len(ops), max_size=len(ops)))
    h = LocalHamiltonian(
        SiteGraph(n),
        tuple(HamiltonianTerm(tuple(sorted(pauli_support(p))), p, lam) for p, lam in zip(ops, lams)),
    )
    kinds = {"dephasing": dephasing, "bitflip": bitflip, "depolarizing": lambda s, p: depolarizing(s, p, 2)}
    noise = draw(
        st.dictionaries(st.integers(0, n - 1), st.tuples(st.sampled_from(sorted(kinds)), st.floats(0, 1)))
    )
    layer = ChannelLayer(tuple(kinds[k](s, p) for s, (k, p) in sorted(noise.items())))
    return h, draw(st.floats(0.05, 2.0)), layer


def tensordot_damping_profile(c: SiteChannel) -> np.ndarray:
    """Reference for ``pauli_damping_profile`` on a Pauli-diagonal channel:
    the images of the Paulis by ``np.tensordot``, each factor read at P's row 0."""
    paulis = _paulis(c.dim.bit_length() - 1)[0]
    images = np.tensordot(paulis, c.superop, ([1, 2], [2, 3]))
    return (paulis[:, 0].conj() * images[:, 0]).sum(axis=1).real


def product_chain_plan(h, layer, regions) -> Plan:
    """Reference for ``pauli.plan``: each sign and kept basis member by one
    ``PauliString`` product per factor (``masked_product``), each channel's
    check rows (its ``tensordot_damping_profile``) reduced one row and one
    pivot bit at a time, and each region's outside mask read off its qubits
    one by one."""
    g = h.site_graph
    n, k = g.n_qubits, g.qubits_per_site
    local = (1 << k) - 1
    gens, pivots, coords = [], {}, []
    for t in h.terms:
        p, new = t.operator, 1 << len(gens)
        word, mask = _reduce(pivots, (p.x << n) | p.z, new)
        if word:
            gens.append(PauliString(n, p.x, p.z))
        coords.append(new if word else mask ^ new)
    signs = [t.operator.sign * masked_product(gens, b, n).sign for t, b in zip(h.terms, coords)]
    words, shift = [0] * len(gens), 0
    for ch in layer.channels:
        table = tensordot_damping_profile(ch)
        if table.all():
            continue
        pivots = {}
        for u in np.flatnonzero(table).tolist():
            _reduce(pivots, u, 0)
        for i, gen in enumerate(gens):
            row = (((gen.x >> ch.site * k) & local) << k) | ((gen.z >> ch.site * k) & local)
            for bit in sorted(pivots, reverse=True):
                if row >> bit & 1:
                    row ^= pivots[bit][0]
            words[i] |= row << shift
        shift += 2 * k
    kept = _kernel(words)
    basis = tuple(gens) if len(kept) == len(gens) else tuple(masked_product(gens, v, n) for v in kept)
    out = []
    for sites in regions:
        qs = [q for s in sites for q in range(s * k, (s + 1) * k)]
        outside = ((1 << n) - 1) ^ sum(1 << q for q in qs)
        out.append(Region(len(qs), tuple(_kernel([((b.x & outside) << n) | (b.z & outside) for b in basis]))))
    return Plan(h, layer, (tuple(gens), coords, signs), words, kept, basis, damping(g, basis, layer), tuple(out))


def table_channel(site: int, table) -> SiteChannel:
    """The Pauli-diagonal map with damping factors ``table`` (indexed
    (x << nq) | z, entry 0 equal to 1), sum_u f_u P_u (x) conj(P_u) / d: its
    zeros fall anywhere, as no physical channel's need, so the plan's check
    rows meet every pivot pattern."""
    f = np.asarray(table, dtype=float)
    ps = _paulis((f.size.bit_length() - 1) // 2)[0]
    return SiteChannel(site, np.einsum("u,uij,ukl->ijkl", f, ps, ps.conj()) / len(ps[0]))


@st.composite
def commuting_pauli_plans(draw):
    """(h, layer, regions): commuting Pauli strings on sites of q = 2 or 4,
    with Y letters, signs -1 and terms that are signed products of others,
    under a layer whose tables may have zeros (dephasing and bit-flip at 1/2,
    complete depolarization, Bell measurement, sparse Pauli mixtures, any
    ``table_channel``), and a few site regions."""
    q = draw(st.sampled_from((2, 4)))
    g = SiteGraph(draw(st.integers(2, 4 if q == 2 else 3)), q)
    n, k = g.n_qubits, g.qubits_per_site
    bits = st.integers(0, 2**n - 1)
    gens = []
    for x, z, sign in draw(st.lists(st.tuples(bits, bits, st.sampled_from((1, -1))), min_size=1, max_size=5)):
        p = PauliString(n, x, z, sign)
        if (x, z) != (0, 0) and all(p.commutes_with(o) for o in gens):
            gens.append(p)
    assume(gens)
    ops = list(gens)
    masks = st.integers(1, 2 ** len(gens) - 1)
    for mask, sign in draw(st.lists(st.tuples(masks, st.sampled_from((1, -1))), max_size=3)):
        p = masked_product(gens, mask, n)
        if (p.x, p.z) != (0, 0):
            ops.append(PauliString(n, p.x, p.z, sign * p.sign))
    lams = draw(st.lists(st.floats(-1, 1), min_size=len(ops), max_size=len(ops)))
    terms = []
    for p, lam in zip(ops, lams):
        support = tuple(s for s in range(g.n_sites) if ((p.x | p.z) >> (s * k)) & ((1 << k) - 1))
        terms.append(HamiltonianTerm(support, p, lam))
    probability = st.sampled_from((0.0, 0.2, 0.5, 1.0))
    weights = st.lists(st.sampled_from((0.0, 0.0, 1.0, 2.0)), min_size=4**k, max_size=4**k).filter(any)
    factors = st.lists(st.sampled_from((0.0, 0.0, 0.5, 1.0)), min_size=4**k - 1, max_size=4**k - 1)
    kinds = {
        "depolarizing": st.builds(lambda p: lambda s: depolarizing(s, p, q), probability),
        "complete_depolarization": st.just(lambda s: complete_depolarization(s, q)),
        "mixture": st.builds(lambda w: lambda s: pauli_mixture(s, np.array(w) / sum(w)), weights),
        "table": st.builds(lambda f: lambda s: table_channel(s, [1.0] + f), factors),
    }
    if q == 2:
        kinds["dephasing"] = st.builds(lambda p: lambda s: dephasing(s, p), probability)
        kinds["bitflip"] = st.builds(lambda p: lambda s: bitflip(s, p), probability)
    else:
        kinds["bell_measurement"] = st.just(bell_measurement)
    noise = draw(st.dictionaries(st.integers(0, g.n_sites - 1), st.one_of(*kinds.values())))
    layer = ChannelLayer(tuple(make(s) for s, make in sorted(noise.items())))
    regions = draw(st.lists(st.frozensets(st.integers(0, g.n_sites - 1), min_size=1), max_size=3))
    return LocalHamiltonian(g, tuple(terms)), layer, regions


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
