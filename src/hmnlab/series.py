"""Truncated multivariate series of channelled Gibbs states and their
logarithms, cluster derivatives, and the derivative-norm certificates.

A series is a map {exponent multiset over term indices} -> coefficient,
truncated at total degree D, expanded around lambda = 0 (so the degree-0
coefficient of a channelled Gibbs series is the identity whenever the
channels are unital).  The term coefficients lambda_a are the expansion
variables; beta is a fixed prefactor.

Coefficients live in one of two algebras, and one product, log and norm
serve both:

* (dim, dim) matrices, multiplied by matmul: the general case, and the only
  one for diagonal tables, non-commuting terms, transition or Kraus
  channels that are not Pauli-diagonal, and pinned prefactors.  This is
  what ``series_of_channelled_gibbs`` builds.
* Character vectors over the abelian group g_v that commuting Pauli terms
  generate (``pauli.term_group``), when the pauli engine admits the model
  and the layer: a Pauli-diagonal channel damps each g_v, so every
  coefficient stays in the group algebra.  There a coefficient is its 2^r
  character values, products are pointwise, and the spectral norm is the
  largest |character value|.  Certificates and the CMI-operator series use
  this basis when it applies; ``cmi_operator_series`` converts its sum
  back to matrices once.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import dense, pauli
from .channels import ChannelLayer, compose_with_trace
from .classical import PinnedHamiltonian
from .combinatorics import Cluster, key_factorial, key_weight, merge_keys
from .dense import apply_layer_to_matrix, term_matrix
from .model import DualInteractionGraph, LocalHamiltonian, Partition, require_int

MAX_WEIGHT_CAP = 8
CLUSTER_COUNT_CAP = 2_000_000
# coefficients no larger than this (largest |entry| or |character value|)
# are dropped from built series and logs
SERIES_FLOOR = 1e-16
# bytes of coefficients handled per batched step (series products, channel
# layer): bounds the temporaries whatever the number of keys
_BLOCK_BYTES = 1 << 20


def _block_len(coeff_bytes: int) -> int:
    return max(1, _BLOCK_BYTES // coeff_bytes)


def check_weight(max_weight) -> None:
    """A truncation weight is an int (not a bool) from 1 to MAX_WEIGHT_CAP."""
    require_int(max_weight, "max weight", 1)
    if max_weight > MAX_WEIGHT_CAP:
        raise ValueError(f"max weight {max_weight} exceeds cap {MAX_WEIGHT_CAP}")


def spectral_norm(m: np.ndarray) -> float:
    """Operator norm of a matrix coefficient, or of the group-algebra element
    whose character values ``m`` holds."""
    if m.ndim == 1:
        return float(np.max(np.abs(m)))
    if np.max(np.abs(m - m.conj().T)) < 1e-12:
        return float(np.max(np.abs(np.linalg.eigvalsh(m))))
    return float(np.linalg.norm(m, 2))


@dataclass
class TruncatedSeries:
    """``group`` is None for (dim, dim) matrix coefficients, or the r
    generators of a commuting Pauli group whose 2^r character values each
    coefficient holds; ``dim`` is the Hilbert dimension either way."""

    max_degree: int
    dim: int
    coeffs: dict = field(default_factory=dict)  # exponent key -> ndarray
    group: tuple | None = None

    def zeros(self, *lead: int) -> np.ndarray:
        if self.group is None:
            return np.zeros(lead + (self.dim, self.dim), dtype=complex)
        return np.zeros(lead + (2 ** len(self.group),))

    def unit(self) -> np.ndarray:
        return np.eye(self.dim, dtype=complex) if self.group is None else np.ones(2 ** len(self.group))

    def copy(self) -> "TruncatedSeries":
        return TruncatedSeries(self.max_degree, self.dim, dict(self.coeffs), self.group)

    def get(self, key: tuple) -> np.ndarray:
        return self.coeffs.get(tuple(sorted(key)), self.zeros())

    def add_inplace(self, other: "TruncatedSeries", scale: float = 1.0):
        for k, m in other.coeffs.items():
            if k in self.coeffs:
                self.coeffs[k] = self.coeffs[k] + scale * m
            else:
                self.coeffs[k] = scale * m

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        d = self.max_degree
        # other's keys by weight: the partners k2 with w1 + w2 <= d of any k1
        # are a prefix of this order
        ranked = sorted((key_weight(k), k) for k in other.coeffs)
        w2 = [w for w, _ in ranked]
        keys2 = [k for _, k in ranked]
        prefix = [bisect.bisect_right(w2, d - key_weight(k)) for k in self.coeffs]
        # the merged-key index, built once: slot[k] is k's place in out, and
        # rows[i] holds the slots of the i-th k1's partners (distinct, since
        # k2 -> k1 + k2 is one-to-one)
        slot: dict = {}
        rows = [
            np.array([slot.setdefault(merge_keys(k1, k2), len(slot)) for k2 in keys2[:n]], dtype=np.intp)
            for k1, n in zip(self.coeffs, prefix)
        ]
        out = self.zeros(len(slot))
        times = np.matmul if self.group is None else np.multiply
        step = _block_len(self.zeros().nbytes)
        for j0 in range(0, max(prefix, default=0), step):
            # a block of partners, which each k1 multiplies in one call as far
            # as it admits them
            block = np.stack([other.coeffs[k] for k in keys2[j0 : j0 + step]])
            for m1, n, row in zip(self.coeffs.values(), prefix, rows):
                b = min(n - j0, len(block))
                if b > 0:
                    out[row[j0 : j0 + b]] += times(m1, block[:b])
        return TruncatedSeries(d, self.dim, dict(zip(slot, out)), self.group)

    def evaluate(self, lam: dict) -> np.ndarray:
        """Substitute numeric values for the term variables."""
        out = self.zeros()
        for k, m in self.coeffs.items():
            scale = 1.0
            for a, mu in k:
                scale *= lam.get(a, 0.0) ** mu
            if scale:
                out += scale * m
        return out

    def prune(self, tol: float = 0.0) -> "TruncatedSeries":
        return TruncatedSeries(
            self.max_degree,
            self.dim,
            {k: m for k, m in self.coeffs.items() if np.max(np.abs(m)) > tol},
            self.group,
        )


def identity_series(d: int, dim: int) -> TruncatedSeries:
    return TruncatedSeries(d, dim, {(): np.eye(dim, dtype=complex)})


def _monomials(m: int, max_degree: int) -> list:
    """The keys of a series in m term variables up to ``max_degree``, by
    degree and then lexicographically: tuples of runs (a, mu)."""
    combos = (c for w in range(max_degree + 1) for c in itertools.combinations_with_replacement(range(m), w))
    return [tuple((a, len(list(run))) for a, run in itertools.groupby(c)) for c in combos]


def series_of_channelled_gibbs(
    h: LocalHamiltonian,
    beta: float,
    layer: ChannelLayer,
    max_degree: int,
    prefactor: np.ndarray | None = None,
) -> TruncatedSeries:
    """Series of E[P0 * Pi_a e^{-beta lam_a h_a}] in the term variables
    lam_a, with the channel applied to every coefficient.

    ``P0 = prefactor`` (default I) is a fixed matrix commuting with all
    terms, e.g. the pinning factors; it is NOT expanded.  Unitality of the
    layer (degree-0 coefficient = I after the channel) is enforced.  The
    coefficients are dense matrices, so the dense engine's cap applies.
    A key's coefficient is its prefix key's (the key without its last run
    (a, mu)) times (-beta)^mu/mu! h_a^mu: the factors multiplied in order."""
    dense.check(h)
    g, dim = h.site_graph, h.site_graph.dim
    factors = []  # factors[a][mu] = (-beta)^mu/mu! h_a^mu
    for t in h.terms:
        ha, powers = term_matrix(g, t, bare=True), [np.eye(dim, dtype=complex)]
        for _ in range(max_degree):
            powers.append(powers[-1] @ ha)
        factors.append([((-beta) ** mu / math.factorial(mu)) * m for mu, m in enumerate(powers)])
    keys = _monomials(len(h.terms), max_degree)
    row = {k: i for i, k in enumerate(keys)}
    stack = np.empty((len(keys), dim, dim), dtype=complex)
    stack[0] = np.eye(dim) if prefactor is None else prefactor
    for i, k in enumerate(keys[1:], 1):
        stack[i] = stack[row[k[:-1]]] @ factors[k[-1][0]][k[-1][1]]
    step = _block_len(stack[0].nbytes)
    for i in range(0, len(keys), step):
        stack[i : i + step] = apply_layer_to_matrix(stack[i : i + step], layer, g)
    if np.max(np.abs(stack[0] - np.eye(dim))) > 1e-10:
        raise ValueError("degree-0 coefficient is not identity (non-unital layer?)")
    stack[0] = np.eye(dim)
    return TruncatedSeries(max_degree, dim, dict(zip(keys, stack))).prune(SERIES_FLOOR)


def _character_series(
    h: LocalHamiltonian, beta: float, layer: ChannelLayer, max_degree: int
) -> TruncatedSeries:
    """``series_of_channelled_gibbs`` in the character basis of the term
    group.  With h_a = sigma_a g_{b_a}, the coefficient of lambda^k is
    prod_a (-beta sigma_a)^{k_a} / k_a! times g_v, v the XOR of the b_a with
    k_a odd; the layer damps it by f_v, and one Walsh-Hadamard transform of
    the stack gives the character values."""
    gens, coords, signs = pauli.term_group(h)
    f = pauli.damp(np.ones(2 ** len(gens)), h.site_graph, gens, layer)
    keys = _monomials(len(h.terms), max_degree)
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
    chars = pauli.walsh_hadamard(stack)
    chars[0] = 1.0  # the empty key: an admitted layer is unital, f_0 = 1
    return TruncatedSeries(max_degree, h.site_graph.dim, dict(zip(keys, chars)), gens).prune(
        SERIES_FLOOR
    )


def _series_builder(h: LocalHamiltonian, layer: ChannelLayer):
    """``_character_series`` where the pauli engine admits the model and the
    layer, else ``series_of_channelled_gibbs``."""
    try:
        pauli.check(h)
        pauli.check_layer(layer)
    except ValueError:
        return series_of_channelled_gibbs
    return _character_series


def _to_matrices(s: TruncatedSeries) -> TruncatedSeries:
    """A character-basis series with (dim, dim) coefficients: back to group
    coefficients c_v by the inverse transform, then summed against g_v."""
    keys = list(s.coeffs)
    r, n = len(s.group), s.dim.bit_length() - 1
    c = pauli.walsh_hadamard(np.array([s.coeffs[k] for k in keys]).reshape(-1, 2**r)) / 2**r
    out = np.zeros((len(keys), s.dim, s.dim), dtype=complex)
    for v in np.flatnonzero(np.any(c != 0, axis=0)):
        out += c[:, v, None, None] * pauli.group_element(s.group, int(v), n).to_matrix()
    return TruncatedSeries(s.max_degree, s.dim, dict(zip(keys, out)))


def log_series(s: TruncatedSeries) -> TruncatedSeries:
    """log(I + A) = sum_n (-1)^{n-1}/n A^n with A = s - I, truncated."""
    if np.max(np.abs(s.get(()) - s.unit())) > 1e-12:
        raise ValueError("log series needs degree-0 coefficient = I")
    a = s.copy()
    a.coeffs.pop((), None)
    out = TruncatedSeries(s.max_degree, s.dim, group=s.group)
    power = a.copy()
    for n in range(1, s.max_degree + 1):
        out.add_inplace(power, (-1.0) ** (n - 1) / n)
        if n < s.max_degree:
            # every key of A has weight >= 1: keys of full degree have no
            # partner, so they are dropped before the product
            low = {k: m for k, m in power.coeffs.items() if key_weight(k) < s.max_degree}
            power = TruncatedSeries(s.max_degree, s.dim, low, s.group)
            power = power * a
    return out.prune(SERIES_FLOOR)


def cluster_derivative(s: TruncatedSeries, w: Cluster) -> np.ndarray:
    """D_W applied to the function the series represents: W! times the
    coefficient of lambda^W."""
    if w.weight > s.max_degree:
        raise ValueError("cluster weight exceeds truncation degree")
    return w.factorial * s.get(w.multiplicities)


def connected_term_sets(g: DualInteractionGraph, max_size: int, anchor) -> list:
    """Sorted tuples of distinct terms that induce connected subgraphs of the
    dual graph, at most ``max_size`` terms each, ordered by size and then
    lexicographically: all of them when ``anchor`` is None, else those with
    a term whose support meets ``anchor`` (a site set).

    Grown level by level: a connected set of size k+1 is a connected set of
    size k plus one of its neighbours (drop a leaf of a spanning tree).
    Rooting that tree at a term that meets the anchor keeps the term, so the
    anchored terms are the only seeds."""
    anchor = frozenset(anchor) if anchor is not None else None
    level = [(a,) for a in range(g.n_terms) if anchor is None or g.supports[a] & anchor]
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


def enumerate_connected_clusters(
    g: DualInteractionGraph, max_weight: int, anchor=None
) -> list:
    """All connected clusters (multisets of terms) of weight <= max_weight,
    optionally only those containing a term whose support meets ``anchor``
    (a site set).  A multiset is connected iff its set of distinct terms
    induces a connected subgraph of the dual graph."""
    check_weight(max_weight)
    out = []
    for subset in connected_term_sets(g, max_weight, anchor):
        size = len(subset)
        # distribute total weight w >= size over the subset, each term >= 1
        for w in range(size, max_weight + 1):
            for extra in _compositions(w - size, size):
                out.append(Cluster(tuple((a, 1 + e) for a, e in zip(subset, extra))))
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
    complement with the B-supported layer (so all four stay full-dimension)."""
    dense.check(h)
    g = h.site_graph
    all_sites = set(range(g.n_sites))
    # tracing keeps a Pauli-diagonal layer Pauli-diagonal: all four logs
    # share one basis
    build = _series_builder(h, layer)
    out = TruncatedSeries(max_degree, g.dim)
    for region, sgn in ((p.a | p.b, 1), (p.b | p.c, 1), (p.b, -1), (p.abc, -1)):
        lyr = compose_with_trace(layer, all_sites - region, g.q)
        ls = log_series(build(h, beta, lyr, max_degree))
        out.group = ls.group
        out.add_inplace(ls, sgn)
    out = out.prune(SERIES_FLOOR)
    return out if out.group is None else _to_matrices(out)


def derivative_norm_certificate(
    h: LocalHamiltonian, beta: float, layer: ChannelLayer, max_weight: int
) -> dict:
    """Per-cluster check of (1/W!) ||D_W log E[rho]|| <= (2e(d+1) beta)^{|W|+1}
    over all connected clusters up to max_weight, in the character basis
    where the pauli engine admits the model and the layer."""
    from .model import build_dual_graph

    g = build_dual_graph(h)
    # the weight cap raises before any coefficient is built
    clusters = enumerate_connected_clusters(g, max_weight)
    s = log_series(_series_builder(h, layer)(h, beta, layer, max_weight))
    entries = []
    violations = 0
    for w in clusters:
        norm = spectral_norm(cluster_derivative(s, w)) / w.factorial
        bound = (2 * math.e * (g.degree + 1) * beta) ** (w.weight + 1)
        ok = norm <= bound + 1e-12
        if not ok:
            violations += 1
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
        "degree": g.degree,
        "max_weight": max_weight,
        "clusters": entries,
        "violations": violations,
        "pass": violations == 0,
    }


def pinned_traced_series(
    pin: PinnedHamiltonian, layer_region, max_degree: int
) -> TruncatedSeries:
    """Series of E_Gamma^Tr[rho_pinned] where rho_pinned = exp(-(beta H + sum d_i))
    normalized by q^{|Y|}/Z_0; Gamma = layer_region must contain the pinned
    sites.  The pinning factors enter as a fixed (unexpanded) prefactor."""
    h = pin.h
    g = h.site_graph
    region = set(layer_region)
    if not set(pin.pinning) <= region:
        raise ValueError("traced region must contain every pinned site")
    pre = np.ones(g.dim)
    for site, d in pin.pinning.items():
        shape = [1] * g.n_sites
        shape[site] = g.q
        factor = (g.q / np.exp(-d).sum()) * np.exp(-d)
        pre = pre * np.broadcast_to(factor.reshape(shape), (g.q,) * g.n_sites).ravel()
    return series_of_channelled_gibbs(
        h, pin.beta, compose_with_trace(ChannelLayer(), region, g.q), max_degree, prefactor=np.diag(pre)
    )


def pinned_series_check(pin: PinnedHamiltonian, max_degree: int) -> dict:
    """Verifies for the pinned traced series: (i) degree-0 coefficient = I,
    (ii) disconnected-cluster log-derivatives vanish, (iii) connected-cluster
    derivatives of the state series obey ||D_V E[rho]|| <= beta^{|V|}."""
    from .model import build_dual_graph

    h = pin.h
    g = build_dual_graph(h)
    s = pinned_traced_series(pin, set(pin.pinning), max_degree)
    d0_ok = bool(np.max(np.abs(s.get(()) - np.eye(s.dim))) <= 1e-10)
    ls = log_series(s)
    connected = set(connected_term_sets(g, max_degree, None))
    max_disc = 0.0
    for key, m in ls.coeffs.items():
        if key and tuple(a for a, _ in key) not in connected:
            max_disc = max(max_disc, spectral_norm(m) * key_factorial(key))
    bound_viol = []
    for w in enumerate_connected_clusters(g, max_degree):
        norm = spectral_norm(cluster_derivative(s, w))
        if norm > pin.beta ** w.weight + 1e-12:
            bound_viol.append(
                {"terms": [a for a, _ in w.multiplicities], "norm": norm}
            )
    return {
        "degree0_identity": d0_ok,
        "max_disconnected_log_norm": max_disc,
        "disconnected_ok": max_disc <= 1e-9,
        "beta_power_violations": bound_viol,
        "pass": d0_ok and max_disc <= 1e-9 and not bound_viol,
    }
