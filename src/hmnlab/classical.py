"""Exact classical engine: Gibbs distributions of diagonal Hamiltonians,
transition-matrix channels, Shannon entropies, post-selection, and the
pinned-Hamiltonian construction for conditioning on channel outcomes.

Distributions are stored as flat probability vectors of length q^n in
lexicographic order with site 0 most significant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import ChannelLayer
from .model import LocalHamiltonian, Partition, SiteGraph, entropy_bits

MEMORY_CAP = 2**22


@dataclass
class Distribution:
    probs: np.ndarray
    graph: SiteGraph

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.size != self.graph.dim:
            raise ValueError("probability vector has wrong length")
        if p.min() < -1e-12 or abs(p.sum() - 1) > 1e-12:
            raise ValueError("not a probability distribution")
        self.probs = p

    def tensor(self) -> np.ndarray:
        return self.probs.reshape((self.graph.q,) * self.graph.n_sites)


def check(h: LocalHamiltonian) -> None:
    """Raise ValueError unless the engine can take ``h``: diagonal terms and
    at most MEMORY_CAP configurations."""
    dim = h.site_graph.dim
    if dim > MEMORY_CAP:
        raise ValueError(f"{dim} configurations exceed memory cap {MEMORY_CAP}")
    if not h.all_diagonal:
        raise ValueError("classical engine requires diagonal terms; got non-diagonal terms")


def check_layer(layer: ChannelLayer) -> None:
    """Raise ValueError unless every site channel is a transition matrix."""
    if not layer.all_classical():
        raise ValueError("classical engine accepts transition-matrix channels only")


def energy_table(h: LocalHamiltonian) -> np.ndarray:
    """Per-configuration energies as a (q,)*n tensor."""
    check(h)
    g = h.site_graph
    e = np.zeros((g.q,) * g.n_sites)
    for t in h.terms:
        e += t.coefficient * t.site_table(g)
    return e


def gibbs_distribution(h: LocalHamiltonian, beta: float) -> Distribution:
    e = energy_table(h).ravel()
    if math.isinf(beta):
        p = (e <= e.min() + 1e-12).astype(float)
    else:
        p = np.exp(-beta * (e - e.min()))
    p /= p.sum()
    return Distribution(p, h.site_graph)


def apply_transitions(d: Distribution, layer: ChannelLayer) -> Distribution:
    check_layer(layer)
    t = d.tensor()
    n = d.graph.n_sites
    for c in layer.channels:
        t = np.moveaxis(np.tensordot(c.transition, t, axes=([1], [c.site])), 0, c.site)
    p = t.reshape(-1)
    return Distribution(p / p.sum(), d.graph)


def prepare(h: LocalHamiltonian, beta: float, layer: ChannelLayer) -> Distribution:
    return apply_transitions(gibbs_distribution(h, beta), layer)


def marginal(d: Distribution, region) -> np.ndarray:
    """Marginal tensor over the (sorted) region sites."""
    region = sorted(set(region))
    axes = tuple(s for s in range(d.graph.n_sites) if s not in region)
    return d.tensor().sum(axis=axes) if axes else d.tensor()


def shannon_entropy(d: Distribution, region) -> float:
    if not set(region):
        return 0.0
    return entropy_bits(marginal(d, region))


region_entropy = shannon_entropy


def post_select_decompose(d: Distribution, p: Partition) -> list[tuple[float, float]]:
    """Per outcome y on B: (P(B=y), I(A:C | B=y)).  The weighted sum of the
    mutual informations equals experiments.cmi(classical, d, p)."""
    if not p.b:
        raise ValueError("B must be nonempty to post-select")
    g = d.graph
    b = sorted(p.b)
    rest = [s for s in range(g.n_sites) if s not in p.b]
    t = np.moveaxis(d.tensor(), b + rest, range(g.n_sites))
    t = t.reshape(g.q ** len(b), -1)
    out = []
    for row in t:
        w = row.sum()
        if w < 1e-15:
            continue
        cond = Distribution(row / w, SiteGraph(len(rest), g.q))
        relabel = {s: i for i, s in enumerate(rest)}
        sub = Partition(
            frozenset(relabel[s] for s in p.a),
            frozenset(),
            frozenset(relabel[s] for s in p.c),
        )
        mi = (
            shannon_entropy(cond, sub.a)
            + shannon_entropy(cond, sub.c)
            - shannon_entropy(cond, sub.a | sub.c)
        )
        out.append((float(w), float(mi)))
    return out


@dataclass
class PinnedHamiltonian:
    """beta*H plus per-site pinning fields d^{(i)}(y') = -log T_i(y_i, y'),
    one for each channelled site i with observed outcome y_i."""

    h: LocalHamiltonian
    beta: float
    pinning: dict  # site -> length-q array of pinning energies
    outcome: dict  # site -> observed value y_i

    def gibbs(self) -> Distribution:
        """exp(-(beta H + sum_i d^{(i)})), normalized over all configurations."""
        e = self.beta * energy_table(self.h)
        g = self.h.site_graph
        for s, d in self.pinning.items():
            shape = [1] * g.n_sites
            shape[s] = g.q
            e = e + d.reshape(shape)
        p = np.exp(-(e - e.min()).ravel())
        return Distribution(p / p.sum(), g)


def pinned_hamiltonian(
    h: LocalHamiltonian, beta: float, layer: ChannelLayer, y: dict
) -> PinnedHamiltonian:
    """Pinning construction for conditioning a channelled Gibbs distribution
    on outcome y over the channelled sites: marginalizing the pinned Gibbs
    over the channelled sites reproduces the post-selected conditional."""
    pinning = {}
    for c in layer.channels:
        if c.transition is None:
            raise ValueError("pinning requires transition-matrix channels")
        if c.site not in y:
            raise ValueError(f"no outcome given for site {c.site}")
        col = c.transition[y[c.site], :]
        if np.any(col <= 0):
            raise ValueError(
                "zero transition entry; mix the channel with a small "
                "depolarization before pinning"
            )
        pinning[c.site] = -np.log(col)
    return PinnedHamiltonian(h, beta, pinning, dict(y))


def pinned_conditional(pin: PinnedHamiltonian) -> np.ndarray:
    """Marginal of the pinned Gibbs over the unchannelled sites (the
    prediction for the channel-conditioned distribution there)."""
    g = pin.h.site_graph
    keep = [s for s in range(g.n_sites) if s not in pin.pinning]
    return marginal(pin.gibbs(), keep).ravel()
