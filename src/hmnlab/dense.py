"""Exact dense-matrix engine for small quantum systems.

Everything is a plain q^n x q^n complex ndarray; site 0 is the most
significant tensor factor.  Intended for n up to ~12 qubits; used both
directly and as the cross-validation oracle for the faster engines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import ChannelLayer
from .model import HamiltonianTerm, LocalHamiltonian, SiteGraph, entropy_bits

DENSE_DIM_CAP = 4096


def check(h: LocalHamiltonian) -> None:
    """Raise ValueError unless the Hilbert dimension is within DENSE_DIM_CAP."""
    dim = h.site_graph.dim
    if dim > DENSE_DIM_CAP:
        raise ValueError(f"dimension {dim} exceeds dense cap {DENSE_DIM_CAP}")


def check_layer(h: LocalHamiltonian, layer: ChannelLayer) -> None:
    """The dense engine contracts every site channel's superoperator as it
    is, so it takes any layer on any model it takes."""


def term_matrix(graph: SiteGraph, term: HamiltonianTerm) -> np.ndarray:
    """Full-space matrix of the bare term h_a (without lambda_a)."""
    if term.is_pauli:
        return term.operator.to_matrix()
    diag = np.broadcast_to(term.site_table(graph.q, range(graph.n_sites)), (graph.q,) * graph.n_sites)
    return np.diag(diag.ravel()).astype(complex)


def hamiltonian_matrix(h: LocalHamiltonian) -> np.ndarray:
    m = np.zeros((h.site_graph.dim, h.site_graph.dim), dtype=complex)
    for t in h.terms:
        m += t.coefficient * term_matrix(h.site_graph, t)
    return m


@dataclass
class DensityMatrix:
    """Hermitian, unit-trace matrix plus its site graph."""

    entries: np.ndarray
    graph: SiteGraph

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        if np.max(np.abs(e - e.conj().T)) > 1e-10:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(e).real - 1) > 1e-10:
            raise ValueError("density matrix is not normalized")
        self.entries = e


def gibbs_state(h: LocalHamiltonian, beta: float) -> DensityMatrix:
    """exp(-beta H)/Z from one eigendecomposition of H; beta=inf gives the
    maximally mixed state on the ground space."""
    check(h)
    vals, vecs = np.linalg.eigh(hamiltonian_matrix(h))
    if math.isinf(beta):
        w = np.where(vals <= vals[0] + 1e-10, 1.0, 0.0)
    else:
        w = np.exp(-beta * (vals - vals.min()))
    w /= w.sum()
    return DensityMatrix((vecs * w) @ vecs.conj().T, h.site_graph)


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


def prepare(h: LocalHamiltonian, beta: float, layer: ChannelLayer) -> DensityMatrix:
    return apply_layer(gibbs_state(h, beta), layer)


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
