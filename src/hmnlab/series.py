"""Truncated multivariate series of channelled Gibbs states and their
logarithms, cluster derivatives, and the derivative-norm certificates.

A series is a map {exponent multiset over term indices} -> dense matrix,
truncated at total degree D, expanded around lambda = 0 (so the degree-0
coefficient of a channelled Gibbs series is the identity whenever the
channels are unital).  The term coefficients lambda_a are the expansion
variables; beta is a fixed prefactor.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import dense
from .channels import ChannelLayer, complete_depolarization, compose_with_trace
from .classical import PinnedHamiltonian
from .combinatorics import Cluster
from .dense import apply_layer_to_matrix, term_matrix
from .model import DualInteractionGraph, LocalHamiltonian, Partition, SiteGraph

MAX_WEIGHT_CAP = 8
CLUSTER_COUNT_CAP = 2_000_000
# bytes of coefficients handled per batched step (series products, channel
# layer): bounds the temporaries whatever the number of keys
_BLOCK_BYTES = 1 << 20


def _block_len(dim: int) -> int:
    return max(1, _BLOCK_BYTES // (16 * dim * dim))


def check_weight(max_weight: int) -> None:
    if max_weight > MAX_WEIGHT_CAP:
        raise ValueError(f"max weight {max_weight} exceeds cap {MAX_WEIGHT_CAP}")


def spectral_norm(m: np.ndarray) -> float:
    if np.max(np.abs(m - m.conj().T)) < 1e-12:
        return float(np.max(np.abs(np.linalg.eigvalsh(m))))
    return float(np.linalg.norm(m, 2))


def _merge_keys(k1: tuple, k2: tuple) -> tuple:
    acc = dict(k1)
    for a, m in k2:
        acc[a] = acc.get(a, 0) + m
    return tuple(sorted(acc.items()))


def _key_weight(k: tuple) -> int:
    return sum(m for _, m in k)


def _key_factorial(k: tuple) -> int:
    out = 1
    for _, m in k:
        out *= math.factorial(m)
    return out


@dataclass
class TruncatedSeries:
    max_degree: int
    dim: int
    coeffs: dict = field(default_factory=dict)  # exponent key -> ndarray

    def copy(self) -> "TruncatedSeries":
        return TruncatedSeries(self.max_degree, self.dim, dict(self.coeffs))

    def get(self, key: tuple) -> np.ndarray:
        return self.coeffs.get(tuple(sorted(key)), np.zeros((self.dim, self.dim), dtype=complex))

    def add_inplace(self, other: "TruncatedSeries", scale: float = 1.0):
        for k, m in other.coeffs.items():
            if k in self.coeffs:
                self.coeffs[k] = self.coeffs[k] + scale * m
            else:
                self.coeffs[k] = scale * m

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        d, dim = self.max_degree, self.dim
        # other's keys by weight: the partners k2 with w1 + w2 <= d of any k1
        # are a prefix of this order
        ranked = sorted((_key_weight(k), k) for k in other.coeffs)
        w2 = [w for w, _ in ranked]
        keys2 = [k for _, k in ranked]
        prefix = [bisect.bisect_right(w2, d - _key_weight(k)) for k in self.coeffs]
        # the merged-key index, built once: slot[k] is k's place in out, and
        # rows[i] holds the slots of the i-th k1's partners
        slot: dict = {}
        rows = [
            [slot.setdefault(_merge_keys(k1, k2), len(slot)) for k2 in keys2[:n]]
            for k1, n in zip(self.coeffs, prefix)
        ]
        out = [np.zeros((dim, dim), dtype=complex) for _ in slot]
        step = _block_len(dim)
        buf = np.empty(step * dim * dim, dtype=complex)
        for j0 in range(0, max(prefix, default=0), step):
            # a block of partners side by side, one dim x (b dim) matrix that
            # each k1 multiplies in one product, as far as it admits them
            block = np.stack([other.coeffs[k] for k in keys2[j0 : j0 + step]], axis=1)
            for m1, n, row in zip(self.coeffs.values(), prefix, rows):
                b = min(n - j0, block.shape[1])
                if b > 0:
                    prod = np.matmul(
                        m1, block[:, :b].reshape(dim, -1), out=buf[: b * dim * dim].reshape(dim, -1)
                    )
                    for r, m in zip(row[j0 : j0 + b], prod.reshape(dim, b, dim).swapaxes(0, 1)):
                        out[r] += m
        return TruncatedSeries(d, dim, dict(zip(slot, out)))

    def evaluate(self, lam: dict) -> np.ndarray:
        """Substitute numeric values for the term variables."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
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
        )


def identity_series(d: int, dim: int) -> TruncatedSeries:
    return TruncatedSeries(d, dim, {(): np.eye(dim, dtype=complex)})


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
    """
    dense.check(h)
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
    # the coefficients are fresh arrays here, so the layer writes back into them
    keys = list(s.coeffs)
    step = _block_len(dim)
    for i in range(0, len(keys), step):
        block = keys[i : i + step]
        images = apply_layer_to_matrix(np.stack([s.coeffs[k] for k in block]), layer, g)
        for k, m in zip(block, images):
            s.coeffs[k][...] = m
    d0 = s.get(())
    if np.max(np.abs(d0 - np.eye(dim))) > 1e-10:
        raise ValueError("degree-0 coefficient is not identity (non-unital layer?)")
    s.coeffs[()] = np.eye(dim, dtype=complex)
    return s.prune(1e-16)


def log_series(s: TruncatedSeries) -> TruncatedSeries:
    """log(I + A) = sum_n (-1)^{n-1}/n A^n with A = s - I, truncated."""
    d0 = s.get(())
    if np.max(np.abs(d0 - np.eye(s.dim))) > 1e-12:
        raise ValueError("log series needs degree-0 coefficient = I")
    a = s.copy()
    a.coeffs.pop((), None)
    out = TruncatedSeries(s.max_degree, s.dim)
    power = a.copy()
    for n in range(1, s.max_degree + 1):
        out.add_inplace(power, (-1.0) ** (n - 1) / n)
        if n < s.max_degree:
            # every key of A has weight >= 1: keys of full degree have no
            # partner, and dropping them first frees them during the product
            low = {k: m for k, m in power.coeffs.items() if _key_weight(k) < s.max_degree}
            power = TruncatedSeries(s.max_degree, s.dim, low)
            power = power * a
    return out.prune(0.0)


def cluster_derivative(s: TruncatedSeries, w: Cluster) -> np.ndarray:
    """D_W applied to the function the series represents: W! times the
    coefficient of lambda^W."""
    if w.weight > s.max_degree:
        raise ValueError("cluster weight exceeds truncation degree")
    return w.factorial * s.get(w.exponent_key())


def enumerate_connected_clusters(
    g: DualInteractionGraph, max_weight: int, anchor=None
) -> list:
    """All connected clusters (multisets of terms) of weight <= max_weight,
    optionally only those containing a term whose support meets ``anchor``
    (a site set).  A multiset is connected iff its set of distinct terms
    induces a connected subgraph of the dual graph."""
    check_weight(max_weight)
    anchor = frozenset(anchor) if anchor is not None else None
    out = []
    n = g.n_terms
    for size in range(1, max_weight + 1):
        for subset in itertools.combinations(range(n), size):
            if not _connected_in_dual(subset, g):
                continue
            if anchor is not None and not any(g.supports[a] & anchor for a in subset):
                continue
            # distribute total weight w >= size over the subset, each term >= 1
            for w in range(size, max_weight + 1):
                for extra in _compositions(w - size, size):
                    out.append(
                        Cluster(tuple((a, 1 + e) for a, e in zip(subset, extra)))
                    )
                    if len(out) > CLUSTER_COUNT_CAP:
                        raise ValueError("cluster enumeration budget exceeded")
    return out


def _connected_in_dual(subset, g: DualInteractionGraph) -> bool:
    subset = set(subset)
    seen = {next(iter(subset))}
    stack = list(seen)
    while stack:
        v = stack.pop()
        for u in g.neighbors[v]:
            if u in subset and u not in seen:
                seen.add(u)
                stack.append(u)
    return seen == subset


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
    g = h.site_graph
    all_sites = set(range(g.n_sites))
    out = TruncatedSeries(max_degree, g.dim)
    for region, sgn in ((p.a | p.b, 1), (p.b | p.c, 1), (p.b, -1), (p.abc, -1)):
        traced = all_sites - region
        lyr = compose_with_trace(layer, traced, g.q)
        ls = log_series(series_of_channelled_gibbs(h, beta, lyr, max_degree))
        out.add_inplace(ls, sgn)
    return out.prune(0.0)


def derivative_norm_certificate(
    h: LocalHamiltonian, beta: float, layer: ChannelLayer, max_weight: int
) -> dict:
    """Per-cluster check of (1/W!) ||D_W log E[rho]|| <= (2e(d+1) beta)^{|W|+1}
    over all connected clusters up to max_weight."""
    from .model import build_dual_graph

    g = build_dual_graph(h)
    # the weight and dense caps both raise before any matrix is built
    clusters = enumerate_connected_clusters(g, max_weight)
    s = log_series(series_of_channelled_gibbs(h, beta, layer, max_weight))
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
    lyr = ChannelLayer(tuple(complete_depolarization(s, g.q) for s in sorted(region)))
    return series_of_channelled_gibbs(
        h, pin.beta, lyr, max_degree, prefactor=np.diag(pre).astype(complex)
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
    max_disc = 0.0
    for key, m in ls.coeffs.items():
        if key and not _connected_in_dual([a for a, _ in key], g):
            max_disc = max(max_disc, spectral_norm(m) * _key_factorial(key))
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
