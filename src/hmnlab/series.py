"""Truncated multivariate series of channelled Gibbs states and their
logarithms, connected clusters, and the derivative-norm certificates.

A series in m term variables truncated at total degree D is one stack with a
row per key of ``_monomials(m, D)``, exponent multisets over term indices (a
zero row is an absent key), expanded around lambda = 0: the term coefficients
lambda_a are the variables, beta a fixed prefactor, and a channelled Gibbs
series has the identity at degree 0 whenever the channels are unital.

Coefficients live in one of two algebras, and one product, log and norm
serve both:

* (dim, dim) matrices, multiplied by matmul: the general case, and the only
  one for diagonal tables and channels that are not Pauli-diagonal.  This
  is what ``series_of_channelled_gibbs`` builds, for non-commuting terms
  too; the certificates and the CMI-operator series refuse those.
* Character vectors over the abelian group g_v that commuting Pauli terms
  generate (``pauli.term_group``), when the pauli engine admits the model
  and the layer: a Pauli-diagonal channel damps each g_v, so every
  coefficient stays in the group algebra.  There a coefficient is its 2^r
  character values, products are pointwise, and the spectral norm is the
  largest |character value|.  Certificates and the CMI-operator series use
  this basis when it applies, and ``cmi_operator_series`` returns its sum
  in it.

A series carries its unit coefficient, the identity matrix or the all-ones
character vector, which fixes its basis.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from . import dense, pauli
from .channels import ChannelLayer, compose_with_trace
from .combinatorics import Cluster, key_weight
from .dense import apply_layer_to_matrix, term_matrix
from .model import DualInteractionGraph, LocalHamiltonian, Partition, build_dual_graph, require_int

MAX_WEIGHT_CAP = 8
CLUSTER_COUNT_CAP = 2_000_000
# coefficients no larger than this (largest |entry| or |character value|)
# are zeroed in built series and logs
SERIES_FLOOR = 1e-16
# bytes of coefficients handled per batched step (series products, channel
# layer): bounds the temporaries whatever the number of keys
_BLOCK_BYTES = 1 << 20
# key codes are taken modulo this prime, so that two codes' sum fits int64
_CODE_PRIME = (1 << 61) - 1


def _block_len(coeff_bytes: int) -> int:
    return max(1, _BLOCK_BYTES // coeff_bytes)


def check_commuting(h: LocalHamiltonian) -> None:
    """Certificates and the CMI-operator series expand E[Pi_a e^{-beta lam_a h_a}],
    which is the channelled Gibbs state only when the terms commute."""
    if not h.commuting:
        raise ValueError("certificates need commuting terms, and this model's terms do not all commute")


def spectral_norm(m: np.ndarray) -> float:
    """Operator norm of a matrix coefficient, or of the group-algebra element
    whose character values ``m`` holds."""
    if m.ndim == 1:
        return float(np.max(np.abs(m)))
    if np.max(np.abs(m - m.conj().T)) < 1e-12:
        return float(np.max(np.abs(np.linalg.eigvalsh(m))))
    return float(np.linalg.norm(m, 2))


def _monomials(m: int, max_degree: int) -> list:
    """The keys of a series in m term variables up to ``max_degree``, by
    degree and then lexicographically: tuples of runs (a, mu)."""
    combos = (c for w in range(max_degree + 1) for c in itertools.combinations_with_replacement(range(m), w))
    return [tuple((a, len(list(run))) for a, run in itertools.groupby(c)) for c in combos]


_KeyIndex = namedtuple("_KeyIndex", "keys row lens prod runs")
Plan = namedtuple("Plan", "h layer max_weight build degree keys rows weights facts")


@lru_cache(maxsize=None)
def _key_index(m: int, max_degree: int) -> _KeyIndex:
    """What every series in m variables up to degree D shares: the keys, a
    key -> row dict, and prod[i][j], the row of key i times key j for each of
    key i's lens[i] partners, the rows j of degree <= D - degree(i) (rows go
    by degree, so they are a prefix).  A key's code is its exponent vector in
    base D + 1 (exact while (D + 1)^m < ``_CODE_PRIME``, and checked
    distinct), so a product's code is its factors' sum, with no carry.
    runs[p, i] is a * (D + 1) + mu for the p-th run (a, mu) of key i, 0 past
    its last run."""
    keys = _monomials(m, max_degree)
    pad = [0] * min(m, max_degree)
    runs = np.array([[a * (max_degree + 1) + mu for a, mu in k] + pad[len(k) :] for k in keys], np.int64).T.copy()
    base = [pow(max_degree + 1, a, _CODE_PRIME) for a in range(m)]
    codes = np.array([sum(mu * base[a] for a, mu in k) % _CODE_PRIME for k in keys], dtype=np.int64)
    order = np.argsort(codes)
    ranked = codes[order]
    if np.any(ranked[1:] == ranked[:-1]):
        raise ValueError(f"series keys of {m} terms up to degree {max_degree} share a code")
    degree = np.array([key_weight(k) for k in keys])
    lens = np.searchsorted(degree, max_degree - degree, side="right")
    starts = np.cumsum(lens) - lens  # the (i, j) pairs, i-major
    j = np.arange(lens.sum()) - np.repeat(starts, lens)
    rows = order[np.searchsorted(ranked, (np.repeat(codes, lens) + codes[j]) % _CODE_PRIME)]
    return _KeyIndex(keys, {k: i for i, k in enumerate(keys)}, lens, np.split(rows, starts[1:]), runs)


def _nonzero_rows(stack: np.ndarray) -> np.ndarray:
    return np.flatnonzero(np.any(stack.reshape(len(stack), -1), axis=1))


@dataclass
class TruncatedSeries:
    """``stack[i]`` is the coefficient of the i-th key of ``_monomials`` and
    ``unit`` that of the identity: np.eye(dim) for (dim, dim) matrices, or
    np.ones(2^r) for the character values of a Pauli group of rank r."""

    n_terms: int
    max_degree: int
    unit: np.ndarray
    stack: np.ndarray

    def zeros(self, *lead: int) -> np.ndarray:
        return np.zeros(lead + self.unit.shape, self.unit.dtype)

    @property
    def coeffs(self) -> dict:
        """{key: coefficient} of the nonzero rows, a new dict on each read."""
        keys = _key_index(self.n_terms, self.max_degree).keys
        return {keys[i]: self.stack[i] for i in _nonzero_rows(self.stack)}

    def get(self, key: tuple) -> np.ndarray:
        i = _key_index(self.n_terms, self.max_degree).row.get(tuple(sorted(key)))
        return self.zeros() if i is None else self.stack[i]

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        idx = _key_index(self.n_terms, self.max_degree)
        out = self.zeros(len(idx.keys))
        left, right = _nonzero_rows(self.stack), _nonzero_rows(other.stack)
        if not (left.size and right.size):
            return replace(self, stack=out)
        # each left row's partner prefix, cut after the right factor's last
        # nonzero row; rows go by degree, so the prefixes shrink
        stop = np.minimum(idx.lens[left], right[-1] + 1).tolist()
        times = np.matmul if self.unit.ndim == 2 else np.multiply
        step = _block_len(self.zeros().nbytes)
        for j0 in range(right[0], stop[0], step):
            # a block of partners: each left row multiplies those it admits
            for i, n in zip(left.tolist(), stop):
                if n <= j0:
                    break
                j1 = min(n, j0 + step)
                out[idx.prod[i][j0:j1]] += times(self.stack[i], other.stack[j0:j1])
        return replace(self, stack=out)

    def prune(self, tol: float) -> "TruncatedSeries":
        """Zeroes, in place, every row of largest |entry| <= tol; returns self."""
        self.stack[np.abs(self.stack).reshape(len(self.stack), -1).max(axis=1) <= tol] = 0
        return self


def series_of_channelled_gibbs(
    h: LocalHamiltonian, beta: float, layer: ChannelLayer, max_degree: int
) -> TruncatedSeries:
    """Series of E[Pi_a e^{-beta lam_a h_a}] in the term variables lam_a,
    with the channel applied to every coefficient.

    Unitality of the layer (degree-0 coefficient = I after the channel) is
    enforced.  The coefficients are dense matrices, so the dense engine's
    cap applies.  A key's coefficient is its prefix key's (the key without its last run
    (a, mu)) times (-beta)^mu/mu! h_a^mu: the factors multiplied in order."""
    dense.check(h)
    g, dim = h.site_graph, h.site_graph.dim
    factors = []  # factors[a][mu] = (-beta)^mu/mu! h_a^mu
    for t in h.terms:
        ha, powers = term_matrix(g, t), [np.eye(dim, dtype=complex)]
        for _ in range(max_degree):
            powers.append(powers[-1] @ ha)
        factors.append([((-beta) ** mu / math.factorial(mu)) * m for mu, m in enumerate(powers)])
    idx = _key_index(len(h.terms), max_degree)
    stack = np.empty((len(idx.keys), dim, dim), dtype=complex)
    stack[0] = np.eye(dim)
    for i, k in enumerate(idx.keys[1:], 1):
        stack[i] = stack[idx.row[k[:-1]]] @ factors[k[-1][0]][k[-1][1]]
    step = _block_len(stack[0].nbytes)
    for i in range(0, len(stack), step):
        stack[i : i + step] = apply_layer_to_matrix(stack[i : i + step], layer, g)
    if np.max(np.abs(stack[0] - np.eye(dim))) > 1e-10:
        raise ValueError("degree-0 coefficient is not identity (non-unital layer?)")
    stack[0] = np.eye(dim)
    return TruncatedSeries(len(h.terms), max_degree, np.eye(dim, dtype=complex), stack).prune(SERIES_FLOOR)


def _character_series(
    h: LocalHamiltonian, beta: float, layer: ChannelLayer, max_degree: int, group: tuple
) -> TruncatedSeries:
    """``series_of_channelled_gibbs`` in the character basis of the term
    group ``group = pauli.term_group(h)``.  With h_a = sigma_a g_{b_a}, the
    coefficient of lambda^k is prod_a (-beta sigma_a)^{k_a} / k_a! times g_v,
    v the XOR of the b_a with k_a odd; the layer damps it by f_v, and one
    Walsh-Hadamard transform of the stack gives the character values."""
    gens, coords, signs = group
    f = pauli.damp(np.ones(2 ** len(gens)), pauli.damping(h.site_graph, gens, layer))
    idx = _key_index(len(h.terms), max_degree)
    # per run code a * (D + 1) + mu: its factor, and b_a where mu is odd; code
    # 0 (past a key's last run) reads 1.0 and 0
    factor = np.array([(-beta * s) ** mu / math.factorial(mu) for s in signs for mu in range(max_degree + 1)])
    coord = np.array([b if mu % 2 else 0 for b in coords for mu in range(max_degree + 1)], np.int64)
    c, v = np.ones(len(idx.keys)), np.zeros(len(idx.keys), np.int64)
    for run in idx.runs:  # the factors multiplied in run order
        c *= factor[run]
        v ^= coord[run]
    stack = np.zeros((len(idx.keys), f.size))
    stack[np.arange(len(idx.keys)), v] = c * f[v]
    chars = pauli.walsh_hadamard(stack)
    chars[0] = 1.0  # the empty key: an admitted layer is unital, f_0 = 1
    return TruncatedSeries(len(h.terms), max_degree, np.ones(f.size), chars).prune(SERIES_FLOOR)


def _series_builder(h: LocalHamiltonian, layer: ChannelLayer):
    """``_character_series`` on the model's term group, computed here once,
    where the pauli engine admits the model and the layer and the model has
    at most TERM_CAP terms, else ``series_of_channelled_gibbs``.  The
    characters span the whole term group whatever the layer keeps, and its
    rank r is at most the number of terms."""
    if len(h.terms) > pauli.TERM_CAP:
        return series_of_channelled_gibbs
    try:
        group = pauli.plan(h, layer, ()).group
    except ValueError:
        return series_of_channelled_gibbs
    return partial(_character_series, group=group)


def log_series(s: TruncatedSeries) -> TruncatedSeries:
    """log(I + A) = sum_n (-1)^{n-1}/n A^n with A = s - I, truncated."""
    if np.max(np.abs(s.get(()) - s.unit)) > 1e-12:
        raise ValueError("log series needs degree-0 coefficient = I")
    a = replace(s, stack=np.concatenate((s.zeros(1), s.stack[1:])))
    out, power = a.stack.copy(), a
    step = _block_len(s.unit.nbytes)
    for n in range(2, s.max_degree + 1):
        power = power * a
        for i in range(0, len(out), step):  # blocks that stay in cache
            out[i : i + step] += (-1.0) ** (n - 1) / n * power.stack[i : i + step]
    return replace(s, stack=out).prune(SERIES_FLOOR)


def connected_term_sets(g: DualInteractionGraph, max_size: int) -> list:
    """Sorted tuples of distinct terms that induce connected subgraphs of the
    dual graph, at most ``max_size`` terms each, ordered by size and then
    lexicographically.

    Grown level by level: a connected set of size k+1 is a connected set of
    size k plus one of its neighbours (drop a leaf of a spanning tree)."""
    level = [(a,) for a in range(g.n_terms)]
    out = list(level)
    for _ in range(max_size - 1):
        grown = set()
        for s in level:
            for b in set().union(*(g.neighbors[a] for a in s)).difference(s):
                grown.add(tuple(sorted(s + (b,))))
            if len(out) + len(grown) > CLUSTER_COUNT_CAP:
                raise ValueError("cluster enumeration budget exceeded")
        level = sorted(grown)
        out += level
    return out


def enumerate_connected_clusters(g: DualInteractionGraph, max_weight: int) -> list:
    """All connected clusters (multisets of terms) of weight <= max_weight.
    A multiset is connected iff its set of distinct terms induces a connected
    subgraph of the dual graph."""
    return [Cluster(k) for k in _cluster_keys(g, max_weight)]


def _cluster_keys(g: DualInteractionGraph, max_weight: int) -> list:
    """The series keys (multiplicities) of ``enumerate_connected_clusters``."""
    require_int(max_weight, "max weight", 1)
    if max_weight > MAX_WEIGHT_CAP:
        raise ValueError(f"max weight {max_weight} exceeds cap {MAX_WEIGHT_CAP}")
    out = []
    for subset in connected_term_sets(g, max_weight):
        size = len(subset)
        # distribute total weight w >= size over the subset, each term >= 1
        for w in range(size, max_weight + 1):
            for extra in _compositions(w - size, size):
                out.append(tuple((a, 1 + e) for a, e in zip(subset, extra)))
                if len(out) > CLUSTER_COUNT_CAP:
                    raise ValueError("cluster enumeration budget exceeded")
    return out


def _compositions(total: int, parts: int):
    """Weak compositions of ``total`` into ``parts`` nonnegative integers."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def connects(w: Cluster, g: DualInteractionGraph, p: Partition) -> bool:
    """Cluster touches both A and C (connectivity is separate)."""
    sites = set()
    for a in w.support:
        sites |= g.supports[a]
    return bool(sites & p.a) and bool(sites & p.c)


def cmi_operator_series(
    h: LocalHamiltonian, beta: float, layer: ChannelLayer, p: Partition, max_degree: int
) -> TruncatedSeries:
    """Series of log E[rho_AB] + log E[rho_BC] - log E[rho_B] - log E[rho_ABC],
    each marginal realized by composing complete depolarization over the
    complement with the B-supported layer (so all four stay full-dimension).
    The sum is in the basis the series were built in: character vectors
    where the pauli engine admits the model and the layer, else matrices."""
    dense.check(h)
    check_commuting(h)
    g = h.site_graph
    all_sites = set(range(g.n_sites))
    # tracing keeps a Pauli-diagonal layer Pauli-diagonal: all four logs
    # share one basis
    build = _series_builder(h, layer)
    ab, bc, b, abc = (
        log_series(build(h, beta, compose_with_trace(layer, all_sites - region, g.q), max_degree))
        for region in p.regions
    )
    return replace(ab, stack=ab.stack + bc.stack - b.stack - abc.stack).prune(SERIES_FLOOR)


def plan(h: LocalHamiltonian, layer: ChannelLayer, max_weight) -> Plan:
    """What every beta of a certificate shares: h, layer, max_weight, the
    series builder, the dual graph's degree, the clusters' keys, their rows
    in ``_key_index``, weights and W! (``facts``).  Raises ValueError for a bad weight, more
    than CLUSTER_COUNT_CAP clusters, a non-unital layer or non-commuting terms."""
    g = build_dual_graph(h)
    keys = _cluster_keys(g, max_weight)
    if not layer.is_unital():
        raise ValueError("certificates need a unital channel layer (E[I] = I), which this one is not")
    check_commuting(h)
    idx = _key_index(len(h.terms), max_weight)
    rows = [idx.row[k] for k in keys]
    mu = idx.runs[:, rows] % (max_weight + 1)  # each cluster's multiplicities, 0 past its runs
    facts = np.array([math.factorial(k) for k in range(max_weight + 1)])[mu].prod(axis=0)  # W!
    return Plan(h, layer, max_weight, _series_builder(h, layer), g.degree, keys, rows, mu.sum(axis=0).tolist(), facts)


def derivative_norm_certificate(plan: Plan, beta: float) -> dict:
    """Per-cluster check of (1/W!) ||D_W log E[rho]|| <= (2e(d+1) beta)^{|W|+1}
    over the connected clusters of a certificate ``plan``, in the character
    basis where the pauli engine admits the model and the layer."""
    s = log_series(plan.build(plan.h, beta, plan.layer, plan.max_weight))
    if s.unit.ndim == 1:  # spectral_norm of W! row, every cluster at once
        norms = (np.abs(plan.facts[:, None] * s.stack[plan.rows]).max(axis=1) / plan.facts).tolist()
    else:
        norms = [spectral_norm(f * s.stack[i]) / f for f, i in zip(plan.facts.tolist(), plan.rows)]
    base = 2 * math.e * (plan.degree + 1) * beta
    bounds = {wt: base ** (wt + 1) for wt in set(plan.weights)}
    entries = [
        {
            "terms": [a for a, _ in k],
            "multiplicities": [m for _, m in k],
            "weight": wt,
            "norm": norm,
            "bound": bounds[wt],
            "pass": norm <= bounds[wt] + 1e-12,
        }
        for k, wt, norm in zip(plan.keys, plan.weights, norms)
    ]
    violations = sum(not e["pass"] for e in entries)
    return {
        "beta": beta,
        "degree": plan.degree,
        "max_weight": plan.max_weight,
        "clusters": entries,
        "violations": violations,
        "pass": violations == 0,
    }
