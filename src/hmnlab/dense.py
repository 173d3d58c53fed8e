"""Exact dense-matrix engine for small quantum systems.

Every state and operator is a plain q^n x q^n ndarray, site 0 the most
significant tensor factor.  It is float64 unless an entry is complex: a
Pauli term with an odd number of Y, or a channel whose superoperator has a
nonzero imaginary part, makes numpy's type promotion carry complex128 from
there on.  Intended for n up to ~12 qubits; used both directly and as the
cross-validation oracle for the faster engines.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .channels import ChannelLayer
from .model import HamiltonianTerm, LocalHamiltonian, SiteGraph, entropy_bits

DENSE_DIM_CAP = 4096
Plan = namedtuple("Plan", "h layer regions")


def check(h: LocalHamiltonian) -> None:
    """Raise ValueError unless the Hilbert dimension is within DENSE_DIM_CAP."""
    dim = h.site_graph.dim
    if dim > DENSE_DIM_CAP:
        raise ValueError(f"dimension {dim} exceeds dense cap {DENSE_DIM_CAP}")


def plan(h: LocalHamiltonian, layer: ChannelLayer, regions) -> Plan:
    """The checked h and layer, and ``regions`` as given: the engine contracts
    every channel's superoperator as it is, so any layer on any model it takes."""
    check(h)
    return Plan(h, layer, regions)


def _entries(graph: SiteGraph, term: HamiltonianTerm) -> tuple[np.ndarray, np.ndarray]:
    """The bare term h_a as one entry per column: (row, value) of each
    column, integer or real values but for a Pauli string with an odd
    number of Y."""
    if term.is_pauli:
        return term.operator.monomial()
    diag = np.broadcast_to(term.site_table(graph.q, range(graph.n_sites)), (graph.q,) * graph.n_sites)
    return np.arange(graph.dim), diag.ravel()


def term_matrix(graph: SiteGraph, term: HamiltonianTerm) -> np.ndarray:
    """Full-space matrix of the bare term h_a (without lambda_a)."""
    rows, values = _entries(graph, term)
    m = np.zeros((graph.dim, graph.dim), np.result_type(float, values))
    m[rows, np.arange(graph.dim)] = values
    return m


def hamiltonian_matrix(h: LocalHamiltonian) -> np.ndarray:
    g = h.site_graph
    entries = [_entries(g, t) for t in h.terms]
    m = np.zeros((g.dim, g.dim), np.result_type(float, *(v for _, v in entries)))
    cols = np.arange(g.dim)
    for t, (rows, values) in zip(h.terms, entries):
        m[rows, cols] += t.coefficient * values
    return m


@dataclass
class DensityMatrix:
    """Hermitian, unit-trace matrix plus its site graph; real entries stay
    float64."""

    entries: np.ndarray
    graph: SiteGraph

    def __post_init__(self):
        e = np.asarray(self.entries)
        e = e if np.iscomplexobj(e) else e.astype(float, copy=False)
        for i in range(0, len(e), 128):  # row blocks: no full-size temporary
            if np.max(np.abs(e[i : i + 128] - e[:, i : i + 128].conj().T)) > 1e-10:
                raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(e).real - 1) > 1e-10:
            raise ValueError("density matrix is not normalized")
        self.entries = e


def _term_product(h: LocalHamiltonian, beta: float) -> np.ndarray | None:
    """exp(-beta H)/Z of commuting terms as the product of one factor per
    term, exp(-beta lambda_a h_a) over its largest eigenvalue, or None where
    ``gibbs_state`` takes eigh.  A string's factor is ((1 + w)/2) I -
    sign(beta lambda_a) ((1 - w)/2) h_a, w = exp(-2 |beta lambda_a|) (0 at
    beta = inf).  Z strings and tables (as exp(-(e - min e)), e = beta
    lambda_a h_a) multiply into one weight vector, each other string
    multiplies diag(weights) as one signed row gather, and a constant term
    only shifts the energy."""
    g = h.site_graph
    inf = math.isinf(beta)
    weights = np.ones((g.q,) * g.n_sites)
    flips = []
    for t in h.terms:
        lam = t.coefficient
        if not t.is_pauli:
            if inf:  # the ground set of real tables needs eigh's 1e-10 tolerance
                return None
            e = beta * lam * t.site_table(g.q, range(g.n_sites))
            weights *= np.exp(e.min() - e)
            continue
        p = t.operator
        if lam == 0 or beta == 0 or not (p.x or p.z):
            continue
        if inf and 2 * abs(lam) <= 1e-10:  # an excitation inside eigh's ground tolerance
            return None
        s = beta * lam
        w = math.exp(-2 * abs(s))
        rows, values = p.monomial()
        if p.x:
            flips.append((rows, values, (1 + w) / 2, math.copysign((1 - w) / 2, s)))
        else:  # h_a = diag(values), -sign(s) on its lower eigenvalue
            weights *= np.where(s * values < 0, 1.0, w).reshape(weights.shape)
    m = np.zeros((g.dim, g.dim), np.result_type(float, *(v for _, v, _, _ in flips)))
    np.fill_diagonal(m, weights.ravel())
    scratch = np.empty_like(m)
    for rows, values, a, b in flips:
        # (h_a m)[r] = values[r ^ x] m[r ^ x], and rows[r] = r ^ x
        np.take(m, rows, axis=0, out=scratch)
        scratch *= (b * values[rows])[:, None]
        m *= a
        m -= scratch
    # some state minimizes every term of a frustration-free model, so the
    # product's largest eigenvalue is 1 and its trace at least 1.  A trace
    # below 1/2 is a frustrated model: 0 where its weights underflow (beta
    # = inf among them), and elsewhere small next to the gathers' absolute
    # rounding, about eps per entry and step
    tr = np.trace(m).real
    if not tr >= 0.5:
        return None
    m /= tr
    return m


def gibbs_state(h: LocalHamiltonian, beta: float) -> DensityMatrix:
    """exp(-beta H)/Z; beta=inf gives the maximally mixed state on the
    ground space.  A commuting model takes the product of its terms'
    factors, in real arithmetic unless a term has an odd number of Y.  A
    model that does not commute, or whose product ``_term_product``
    declines, takes one eigendecomposition of H."""
    check(h)
    m = _term_product(h, beta) if h.commuting else None
    if m is None:
        vals, vecs = np.linalg.eigh(hamiltonian_matrix(h))
        if math.isinf(beta):
            w = np.where(vals <= vals[0] + 1e-10, 1.0, 0.0)
        else:
            w = np.exp(-beta * (vals - vals.min()))
        w /= w.sum()
        m = (vecs * w) @ vecs.conj().T
    return DensityMatrix(m, h.site_graph)


def apply_layer_to_matrix(m: np.ndarray, layer: ChannelLayer, graph: SiteGraph) -> np.ndarray:
    """The layer applied to one matrix or to a stack (..., dim, dim).  Each
    site channel is its q^2 x q^2 superoperator contracted on that site's ket
    and bra axes, about q^2 dim^2 work per matrix."""
    n, q = graph.n_sites, graph.q
    lead = m.shape[:-2]
    t = m.reshape(lead + (q,) * (2 * n))
    for c in layer.channels:
        ket, bra = len(lead) + c.site, len(lead) + n + c.site
        t = np.tensordot(c.superop, t, axes=([2, 3], [ket, bra]))
        t = np.moveaxis(t, (0, 1), (ket, bra))
    return t.reshape(m.shape)


def apply_layer(rho: DensityMatrix, layer: ChannelLayer) -> DensityMatrix:
    return DensityMatrix(apply_layer_to_matrix(rho.entries, layer, rho.graph), rho.graph)


def prepare(plan: Plan, beta: float) -> DensityMatrix:
    return apply_layer(gibbs_state(plan.h, beta), plan.layer)


def partial_trace_matrix(m: np.ndarray, keep, graph: SiteGraph) -> np.ndarray:
    """Trace out every site not in ``keep``; kept sites stay in global order.
    One contraction: a traced site's ket and bra axes share one subscript, so
    only the entries that are summed are read."""
    keep = sorted(set(keep))
    n, q = graph.n_sites, graph.q
    bra = [n + s if s in keep else s for s in range(n)]
    d = q ** len(keep)
    return np.einsum(m.reshape((q,) * n * 2), [*range(n), *bra], [*keep, *(n + s for s in keep)]).reshape(d, d)


def von_neumann_entropy(m: np.ndarray) -> float:
    """Entropy (bits) of a unit-trace PSD matrix."""
    return entropy_bits(np.linalg.eigvalsh(m))


def region_entropy(rho: DensityMatrix, region) -> float:
    if not region:
        return 0.0
    return von_neumann_entropy(partial_trace_matrix(rho.entries, region, rho.graph))
