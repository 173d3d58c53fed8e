"""Exact classical engine: Gibbs distributions of diagonal Hamiltonians
under channels that keep diagonal states diagonal (their transition
matrices), built site by site as the forward algorithm of a hidden Markov
model does, and Shannon entropies of their marginals.

Distributions are stored as flat probability vectors of length q^n in
lexicographic order with site 0 most significant.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .channels import ChannelLayer
from .model import LocalHamiltonian, SiteGraph, entropy_bits

MEMORY_CAP = 2**22
_SLICE_RUN = 8  # runs of at most this many configurations are summed by slice adds
# A channel with fewer than _KRON_RIGHT configurations right of its site is
# one 2-D product with kron(T, I): stacked (q, right) products cost more per
# element there than the right-fold extra flops.  Row blocks keep rows * N * K
# within _GEMM_MNK, under the size at which BLAS starts threads.
_KRON_RIGHT = 8
_GEMM_MNK = 2**17
# prepare's site-grown sweep multiplies Boltzmann factors whose product is at
# least exp(-|beta| sum_a ptp(lambda_a h_a)); it runs only while that bound
# stays a factor 1/eps above the smallest normal float64 (about e^-672), so
# that no weight underflows and a weight times an entry >= eps stays normal
_SWEEP_LOG_RANGE = -math.log(np.finfo(float).tiny / np.finfo(float).eps)
# A sweep step whose (q^span, q^(span-1)) step matrix has at most this many
# entries is one matmul of it, which costs q^(span-1) flops per output; a
# wider step (a ring's closing term, say) broadcasts its factor in and then
# applies each channel, one pass apiece
_STEP_MATRIX_MAX = 2**11
Plan = namedtuple("Plan", "h layer spread steps regions")


@dataclass
class Distribution:
    probs: np.ndarray
    graph: SiteGraph

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.size != self.graph.dim:
            raise ValueError("probability vector has wrong length")
        if not (p.min() >= -1e-12 and abs(p.sum() - 1) <= 1e-12):  # NaN fails too
            raise ValueError("not a probability distribution")
        self.probs = p


def check(h: LocalHamiltonian) -> None:
    """Raise ValueError unless the engine can take ``h``: at most MEMORY_CAP
    configurations, and diagonal terms (a Z-only string reads as a table,
    since the model keeps its bits on its support)."""
    dim = h.site_graph.dim
    if dim > MEMORY_CAP:
        raise ValueError(f"{dim} configurations exceed memory cap {MEMORY_CAP}")
    if not all(t.is_diagonal for t in h.terms):
        raise ValueError("classical engine requires diagonal terms; got a non-diagonal string (X or Y)")


def energy_table(h: LocalHamiltonian) -> np.ndarray:
    """Per-configuration energies as a (q,)*n tensor, grown one site at a
    time: each term is added, over the sites that exist so far, once its
    largest site has been appended."""
    check(h)
    g = h.site_graph
    by_last_site = [[] for _ in range(g.n_sites)]
    for t in h.terms:
        by_last_site[max(t.support, default=0)].append(t)
    e = np.zeros(())
    for k, terms in enumerate(by_last_site):
        e = np.repeat(e[..., None], g.q, axis=-1)
        for t in terms:
            e += t.coefficient * t.site_table(g.q, range(k + 1))
    return e


def gibbs_distribution(h: LocalHamiltonian, beta: float) -> Distribution:
    """Gibbs weights from the full energy table: the Boltzmann weights
    exp(-beta (e - min e)), normalized in place in the flat energy vector,
    or at beta = inf the uniform distribution on the ground states."""
    e = energy_table(h).ravel()
    if math.isinf(beta):
        p = (e <= e.min() + 1e-12).astype(float)
    else:
        e -= e.min()
        e *= -beta
        p = np.exp(e, out=e)
    p /= p.sum()
    return Distribution(p, h.site_graph)


def _transition(t: np.ndarray, p: np.ndarray, left: int, out: np.ndarray) -> None:
    """out = T applied to the site after the first ``left`` configurations of
    the flat vector ``p``: one matmul of T on the (left, q, right) view, or,
    with fewer than _KRON_RIGHT configurations right of the site, row blocks
    of the (left, q*right) view times kron(T, I_right).T."""
    q = t.shape[0]
    right = p.size // (left * q)
    if right < _KRON_RIGHT:
        k = np.kron(t, np.eye(right)).T
        x, y = p.reshape(left, -1), out.reshape(left, -1)
        step = max(1, _GEMM_MNK // k.size)
        for a in range(0, left, step):
            np.matmul(x[a : a + step], k, out=y[a : a + step])
    else:
        np.matmul(t, p.reshape(left, q, right), out=out.reshape(left, q, right))


def apply_transitions(d: Distribution, layer: ChannelLayer) -> Distribution:
    """Each site channel is one ``_transition`` of the flat vector, written
    into one of two fresh buffers in turn, so ``d.probs`` is never written;
    a channel with no transition matrix raises before anything is returned."""
    q = d.graph.q
    p = d.probs
    bufs = []
    for i, c in enumerate(layer.channels):
        if i < 2:
            bufs.append(np.empty_like(p))
        out = bufs[i % 2]
        _transition(c.transition, p, q**c.site, out)
        p = out
    if not bufs:
        return Distribution(p / p.sum(), d.graph)
    p /= p.sum()
    return Distribution(p, d.graph)


def plan(h: LocalHamiltonian, layer: ChannelLayer, regions) -> Plan:
    """What every beta shares, once ``h`` passes ``check`` and every site
    channel keeps diagonal states diagonal, so that it has a transition
    matrix, on any model: h, the layer, ``spread``, ``steps`` and, as given,
    the site sets ``regions`` whose entropies a run takes.  ``spread`` is
    sum_a ptp(lambda_a h_a), which picks ``prepare``'s route.  ``steps`` are
    the site-grown sweep's, from the last site down to site 0: step k takes
    the terms whose smallest site is k, over the span of sites k..(their
    largest site), and the channels of the sites that no term with a smaller
    site touches, as (k, e, channels) with e = sum_a (lambda_a h_a - min
    lambda_a h_a) on the span, a (q, q^(span-1)) array that no beta writes."""
    check(h)
    g = h.site_graph
    n, q = g.n_sites, g.q
    spread = sum(float(a.max() - a.min()) for a in (t.coefficient * t.table(q) for t in h.terms))
    by_first = [[] for _ in range(n)]
    reach = list(range(n))  # the smallest site of a term on each site, or the site
    for t in h.terms:
        if not t.support:
            continue  # a constant energy cancels
        lo = min(t.support)
        by_first[lo].append(t)
        for s in t.support:
            reach[s] = min(reach[s], lo)
    channels_at = [[] for _ in range(n)]
    for c in layer.channels:
        c.transition  # raises for a channel that has none
        channels_at[reach[c.site]].append(c)
    steps = []
    for k in range(n - 1, -1, -1):
        span = max((max(t.support) for t in by_first[k]), default=k) - k + 1
        e = np.zeros((q,) * span)
        for t in by_first[k]:
            a = t.coefficient * t.site_table(q, range(k, k + span))
            e += a - a.min()
        steps.append((k, e.reshape(q, -1), channels_at[k]))
    return Plan(h, layer, spread, steps, regions)


def _sweep(plan: Plan, beta: float) -> np.ndarray:
    """The normalized channelled Gibbs vector, grown from the last site down
    to site 0, each new site the leading axis.  Each of the plan's steps is
    one linear map from the span's last span-1 axes to all span axes: the
    diagonal embedding of w = exp(-beta e) with each channel multiplied on
    from the left, a (q^span, q^(span-1)) step matrix.  A step whose matrix
    has at most _STEP_MATRIX_MAX entries is one matmul of it; a wider one
    multiplies w in by broadcasting and then applies each channel.  Every
    step writes a prefix of one of two buffers in turn, each sized to the
    last (largest) write that lands in it: on a chain q^n and q^(n-1)
    floats."""
    n, q = plan.h.site_graph.n_sites, plan.h.site_graph.q
    wide = [e.size * e.shape[1] > _STEP_MATRIX_MAX for _, e, _ in plan.steps]
    sizes = [q ** (n - k) for (k, _, chs), wd in zip(plan.steps, wide) for _ in range(1 + wd * len(chs))]
    bufs = [np.empty(max(sizes[j::2], default=0)) for j in (0, 1)]
    x = np.ones(1)
    i = 0
    for (k, e, chs), wd in zip(plan.steps, wide):
        w = np.exp(e * -beta)  # not e *= -beta: every beta reads the plan's e
        inner = w.shape[1]
        out = bufs[i % 2][: q * x.size]
        i += 1
        if wd:
            np.multiply(w[:, :, None], x.reshape(1, inner, -1), out=out.reshape(q, inner, -1))
        else:
            m = np.zeros((q * inner, inner))
            m.reshape(q, -1)[:, :: inner + 1] = w  # the diagonal of each (inner, inner) block
            for c in chs:
                m = np.matmul(c.transition, m.reshape(q ** (c.site - k), q, -1)).reshape(q * inner, inner)
            np.matmul(m, x.reshape(inner, -1), out=out.reshape(q * inner, -1))
        x = out
        for c in chs if wd else ():
            out = bufs[i % 2][: x.size]
            i += 1
            _transition(c.transition, x, q ** (c.site - k), out)
            x = out
    x /= x.sum()
    return x


def prepare(plan: Plan, beta: float) -> Distribution:
    """The Gibbs distribution at ``beta`` under the plan's transition layer.
    Every term's factor exp(-beta (lambda_a h_a - min lambda_a h_a)) lies
    between 1 and exp(-beta ptp(lambda_a h_a)), so while |beta| times the
    plan's spread stays within _SWEEP_LOG_RANGE no weight can underflow or
    overflow and ``_sweep`` computes the state; otherwise, and at
    beta = inf, ``gibbs_distribution`` does from the energy table."""
    if math.isfinite(beta) and abs(beta) * plan.spread <= _SWEEP_LOG_RANGE:
        return Distribution(_sweep(plan, beta), plan.h.site_graph)
    return apply_transitions(gibbs_distribution(plan.h, beta), plan.layer)


def marginal(d: Distribution, region) -> np.ndarray:
    """Marginal tensor over the (sorted) region sites.  Each run of adjacent
    summed sites is reduced once, right to left, on a (left, run, right)
    view of what is left of the flat vector."""
    g = d.graph
    keep = set(region)
    x = d.probs
    right = 1  # the configurations of the kept sites right of the run
    stop = g.n_sites
    while stop > 0:
        if stop - 1 in keep:
            stop -= 1
            right *= g.q
            continue
        start = stop - 1
        while start > 0 and start - 1 not in keep:
            start -= 1
        run = g.q ** (stop - start)
        x = x.reshape(g.q**start, run, right)
        if run <= _SLICE_RUN:
            s = x[:, 0] + x[:, 1]
            for i in range(2, run):
                s += x[:, i]
            x = s
        else:
            x = x.sum(axis=1)
        stop = start
    return x.reshape((g.q,) * len(keep))


def shannon_entropy(d: Distribution, region) -> float:
    if not set(region):
        return 0.0
    return entropy_bits(marginal(d, region))


region_entropy = shannon_entropy
