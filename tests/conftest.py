"""Shared helpers: independent brute-force oracles and random model factories.

The oracles here deliberately avoid the package's engine code paths (direct
configuration loops, dict-based marginalization) so that engine bugs cannot
cancel out in the comparisons.
"""

import itertools
import math

import numpy as np
import pytest

from hmnlab.channels import ChannelLayer, bitflip, dephasing, depolarizing
from hmnlab.model import HamiltonianTerm, LocalHamiltonian, PauliString, SiteGraph


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
