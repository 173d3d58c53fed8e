"""Exact dense-matrix engine for small quantum systems.

Everything is a plain q^n x q^n complex ndarray; site 0 is the most
significant tensor factor.  Intended for n up to ~12 qubits; used both
directly and as the cross-validation oracle for the faster engines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import ChannelLayer, SiteChannel
from .model import HamiltonianTerm, LocalHamiltonian, Partition, SiteGraph, entropy_bits

DENSE_DIM_CAP = 4096


def check(h: LocalHamiltonian) -> None:
    """Raise ValueError unless the Hilbert dimension is within DENSE_DIM_CAP."""
    dim = h.site_graph.dim
    if dim > DENSE_DIM_CAP:
        raise ValueError(f"dimension {dim} exceeds dense cap {DENSE_DIM_CAP}")


def check_layer(layer: ChannelLayer) -> None:
    """Every site channel has a Kraus form, so the dense engine takes any layer."""


def term_matrix(graph: SiteGraph, term: HamiltonianTerm, bare: bool = False) -> np.ndarray:
    """Full-space matrix of lambda_a h_a (or bare h_a)."""
    if term.is_pauli:
        m = term.operator.to_matrix()
    else:
        diag = np.broadcast_to(term.site_table(graph), (graph.q,) * graph.n_sites)
        m = np.diag(diag.ravel()).astype(complex)
    return m if bare else term.coefficient * m


def hamiltonian_matrix(h: LocalHamiltonian) -> np.ndarray:
    m = np.zeros((h.site_graph.dim, h.site_graph.dim), dtype=complex)
    for t in h.terms:
        m += term_matrix(h.site_graph, t)
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
    """exp(-beta H)/Z; beta=inf gives the maximally mixed ground state.

    For commuting Hamiltonians the product of per-term exponentials is used
    and cross-checked against the eigendecomposition exponential.
    """
    check(h)
    g = h.site_graph
    hm = hamiltonian_matrix(h)
    vals, vecs = np.linalg.eigh(hm)
    if math.isinf(beta):
        w = np.where(vals <= vals[0] + 1e-10, 1.0, 0.0)
    else:
        w = np.exp(-beta * (vals - vals.min()))
    w /= w.sum()
    rho = (vecs * w) @ vecs.conj().T
    if not math.isinf(beta) and h.commuting and h.terms:
        prod = np.eye(g.dim, dtype=complex)
        for t in h.terms:
            tm = term_matrix(g, t)
            tv, tw = np.linalg.eigh(tm)
            prod = prod @ ((tw * np.exp(-beta * (tv - tv.min()))) @ tw.conj().T)
        prod /= np.trace(prod).real
        if np.max(np.abs(prod - rho)) > 1e-10:
            raise AssertionError("commuting-product exponential disagrees with eigh")
    return DensityMatrix(rho, g)


def _superoperator(c: SiteChannel) -> np.ndarray:
    """S[i, j, k, l] = sum_K K[i, k] conj(K[j, l]): the channel sends the
    site's ket-bra entry (k, l) to (i, j)."""
    ks = np.array(c.kraus_ops())
    return np.einsum("aik,ajl->ijkl", ks, ks.conj())


def apply_layer_to_matrix(m: np.ndarray, layer: ChannelLayer, graph: SiteGraph) -> np.ndarray:
    """The layer applied to one matrix or to a stack (..., dim, dim).  Each
    site channel is its q^2 x q^2 superoperator contracted on that site's ket
    and bra axes, about q^2 dim^2 work per matrix."""
    n, q = graph.n_sites, graph.q
    lead = m.shape[:-2]
    t = m.reshape(lead + (q,) * (2 * n))
    for c in layer.channels:
        ket, bra = len(lead) + c.site, len(lead) + n + c.site
        t = np.tensordot(_superoperator(c), t, axes=([2, 3], [ket, bra]))
        t = np.moveaxis(t, (0, 1), (ket, bra))
    return t.reshape(m.shape)


def apply_layer(rho: DensityMatrix, layer: ChannelLayer) -> DensityMatrix:
    return DensityMatrix(apply_layer_to_matrix(rho.entries, layer, rho.graph), rho.graph)


def prepare(h: LocalHamiltonian, beta: float, layer: ChannelLayer) -> DensityMatrix:
    return apply_layer(gibbs_state(h, beta), layer)


def partial_trace_matrix(m: np.ndarray, keep, graph: SiteGraph) -> np.ndarray:
    """Trace out every site not in ``keep``; kept sites stay in global order."""
    keep = sorted(set(keep))
    n, q = graph.n_sites, graph.q
    t = m.reshape((q,) * n * 2)
    traced = 0
    for s in range(n):
        if s not in keep:
            ax = s - traced
            live = n - traced
            t = np.trace(t, axis1=ax, axis2=ax + live)
            traced += 1
    d = q ** len(keep)
    return t.reshape(d, d)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    keep = sorted(set(keep))
    if not keep:
        raise ValueError("keep at least one site (use region_entropy for S=0 cases)")
    sub = SiteGraph(n_sites=len(keep), q=rho.graph.q)
    m = partial_trace_matrix(rho.entries, keep, rho.graph)
    return DensityMatrix(m, sub)


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


def von_neumann_entropy(m: np.ndarray) -> float:
    """Entropy (bits) of a unit-trace PSD matrix."""
    vals = np.linalg.eigvalsh(m)
    if vals.min() < -1e-8:
        raise ValueError(f"negative eigenvalue {vals.min()} in entropy input")
    return entropy_bits(vals)


def region_entropy(rho: DensityMatrix, region) -> float:
    if not region:
        return 0.0
    return von_neumann_entropy(partial_trace_matrix(rho.entries, region, rho.graph))


def _psd_log(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    if vals.min() < 1e-12:
        raise ValueError("temperature too low for operator-log form")
    return (vecs * np.log(vals)) @ vecs.conj().T


@dataclass
class CmiOperator:
    matrix: np.ndarray

    @property
    def norm(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvalsh(self.matrix))))


def cmi_operator(h: LocalHamiltonian, beta: float, layer: ChannelLayer, p: Partition) -> CmiOperator:
    """log E[rho_AB] + log E[rho_BC] - log E[rho_B] - log E[rho_ABC]
    with unnormalized rho = exp(-beta H) and each marginal embedded as
    Tr_Lc(.) (x) I_Lc.  The channel layer must live on B."""
    g = h.site_graph
    if not layer.sites <= p.b:
        raise ValueError("cmi_operator expects the channel layer on B")
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
    return CmiOperator(out)
