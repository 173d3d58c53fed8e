"""Symplectic engine for Gibbs states of commuting Pauli Hamiltonians under
Pauli-diagonal channels.

F2 elimination of the terms' symplectic vectors (Aaronson-Gottesman form)
picks r independent generators G_i among them.  With g_v = prod_{i in v} G_i
in index order, commutation and G_i^2 = I give g_v g_w = g_{v xor w}
exactly, and each term is h_a = sigma_a g_{b_a}.  The state is one vector

    rho = 2^{-n} sum_v c_v g_v,      c_0 = 1,

a (2,)*r tensor with generator i on axis r-1-i, built from
exp(-b l h) = cosh(b l) (I - tanh(b l) h) term by term.  A term that
introduces generator i doubles c to [c, -t_a sigma_a c]; a term inside the
group (b_a among the existing generators) updates c <- c - t_a sigma_a
c[v xor b_a]; a constant term (b_a = 0) cancels in the normalization.  A
channel multiplies c by a damping table over the generators that touch its
site, broadcast along their axes: g_v's local bits are linear in v.  A
region's marginal lives on the subgroup supported there (the kernel of the
generators' outside bits) and diagonalizes over its characters, so an
entropy costs one in-place Walsh-Hadamard transform of 2^rank values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import ChannelLayer
from .model import LocalHamiltonian, PauliString, SiteGraph, entropy_bits

TERM_CAP = 22
PRUNE = 1e-18


def _xor_span(rows, dtype=np.int64) -> np.ndarray:
    """out[v] = XOR of rows[i] over the set bits i of v, by doubling."""
    out = np.empty(2 ** len(rows), dtype)
    out[0] = 0
    for i, row in enumerate(rows):
        np.bitwise_xor(out[: 1 << i], row, out=out[1 << i : 2 << i])
    return out


def _reduce(pivots: dict, word: int, mask: int) -> tuple[int, int]:
    """F2-eliminate word against pivots {leading bit: (word, mask)}, XORing
    the masks along; a nonzero remainder becomes a new pivot."""
    while word and word.bit_length() - 1 in pivots:
        pw, pm = pivots[word.bit_length() - 1]
        word, mask = word ^ pw, mask ^ pm
    if word:
        pivots[word.bit_length() - 1] = (word, mask)
    return word, mask


def group_element(gens, v: int, n: int) -> PauliString:
    """g_v: the generators in v multiplied in index order."""
    out = PauliString.identity(n)
    for i, g in enumerate(gens):
        if v >> i & 1:
            out = out * g
    return out


@dataclass
class PauliExpansion:
    graph: SiteGraph
    generators: tuple  # independent commuting PauliStrings G_i, each of sign +1
    coeffs: np.ndarray  # c_v, the coefficient of g_v, for v in [0, 2^r)

    @property
    def n(self) -> int:
        return self.graph.n_qubits


def check(h: LocalHamiltonian) -> None:
    """Raise ValueError unless ``h`` is at most TERM_CAP commuting Pauli terms."""
    if not h.all_pauli:
        raise ValueError("Pauli engine needs Pauli terms")
    if not h.commuting:
        raise ValueError("Hamiltonian terms do not commute")
    if len(h.terms) > TERM_CAP:
        raise ValueError(f"{len(h.terms)} terms exceed cap {TERM_CAP}")


def check_layer(layer: ChannelLayer) -> None:
    """Raise ValueError unless every site channel has a Pauli damping profile."""
    for ch in layer.channels:
        ch.pauli_table


def term_group(h: LocalHamiltonian) -> tuple[tuple, list, list]:
    """F2 elimination of the terms' symplectic vectors: the generators G_i
    (each of sign +1) picked among the terms, and per term its mask b_a and
    sign sigma_a with h_a = sigma_a g_{b_a}."""
    n = h.site_graph.n_qubits
    gens: list[PauliString] = []
    pivots: dict = {}
    coords = []
    for t in h.terms:
        p, new = t.operator, 1 << len(gens)
        word, mask = _reduce(pivots, (p.x << n) | p.z, new)
        if word:
            gens.append(PauliString(n, p.x, p.z))
        coords.append(new if word else mask ^ new)
    signs = [t.operator.sign * group_element(gens, b, n).sign for t, b in zip(h.terms, coords)]
    return tuple(gens), coords, signs


def expand_gibbs(h: LocalHamiltonian, beta: float) -> PauliExpansion:
    """Expansion of exp(-beta H)/Z; beta=inf uses tanh(+-inf) = +-1 factors."""
    check(h)
    gens, coords, signs = term_group(h)
    # work with factors I - t_a h_a, t_a = tanh(beta lambda_a); the dropped
    # cosh prefactors cancel in the final normalization, and so does a
    # constant term (b_a = 0), which is skipped: its factor
    # (1 - t_a sigma_a) I is exactly 0 once t_a sigma_a rounds to 1
    c = np.ones(1)
    for t, b, sigma in zip(h.terms, coords, signs):
        lam = t.coefficient
        ta = math.tanh(beta * lam) if not math.isinf(beta) else float(np.sign(lam))
        if b == c.size:
            # b_a introduces the next generator, and c is 0 on the new half;
            # 0.0 - x, not -x, keeps -0.0 out as the gather update does
            c = np.concatenate((c, 0.0 - ta * sigma * c))
        elif b:
            c = c - ta * sigma * c[np.arange(c.size) ^ b]
    if abs(c[0]) < 1e-14:
        raise ValueError("expansion has zero trace (frustrated zero-temperature state)")
    return PauliExpansion(h.site_graph, gens, c / c[0])


def damp(c: np.ndarray, graph: SiteGraph, generators, layer: ChannelLayer) -> np.ndarray:
    """c_v f_v, with E[g_v] = f_v g_v: c times the per-site damping tables
    read at the local bits of g_v, broadcast over the generators' axes."""
    k = graph.qubits_per_site
    mask = (1 << k) - 1
    for ch in layer.channels:
        # local (x, z) bits of each generator at this site, as a table index
        rows = [
            (((g.x >> ch.site * k) & mask) << k) | ((g.z >> ch.site * k) & mask)
            for g in generators
        ]
        if any(rows):
            # the factor varies only along the axes (r-1-i) of the generators
            # that touch the site: a table over their span, broadcast; an
            # admitted model has r <= TERM_CAP axes, inside numpy 1.x's 32
            f = ch.pauli_table[_xor_span([row for row in rows if row], np.min_scalar_type(4**k - 1))]
            shape = [2 if row else 1 for row in reversed(rows)]
            c = (c.reshape((2,) * len(rows)) * f.reshape(shape)).reshape(-1)
    return c


def apply_pauli_layer(e: PauliExpansion, layer: ChannelLayer) -> PauliExpansion:
    """Damp each group coefficient by the per-site channel factors."""
    return PauliExpansion(e.graph, e.generators, damp(e.coeffs, e.graph, e.generators, layer))


def prepare(h: LocalHamiltonian, beta: float, layer: ChannelLayer) -> PauliExpansion:
    return apply_pauli_layer(expand_gibbs(h, beta), layer)


@dataclass
class RestrictedGroup:
    """Span of the region's group elements with nonzero coefficient: generators
    as exponent masks over the expansion's, and coefficients by exponent mask."""

    qubits: tuple[int, ...]
    generators: list  # of int
    elements: np.ndarray


def restricted_group(e: PauliExpansion, region) -> RestrictedGroup:
    qs = tuple(q for s in sorted(region) for q in e.graph.site_qubits(s))
    n = e.n
    outside = ((1 << n) - 1) ^ sum(1 << q for q in qs)
    # F2 kernel of the generators' outside-region bits: the exponent masks v
    # whose g_v is supported inside the region
    pivots: dict = {}
    kernel = []
    for i, g in enumerate(e.generators):
        word, mask = _reduce(pivots, ((g.x & outside) << n) | (g.z & outside), 1 << i)
        if not word:
            kernel.append(mask)
    members = _xor_span(kernel)
    d = e.coeffs[members]
    if np.all(np.abs(d) >= PRUNE):
        gens, elements = kernel, d  # every coefficient is nonzero: the whole kernel
    else:
        gens, elements = _nonzero_span(members, d)
    return RestrictedGroup(qs, gens, elements)


def _nonzero_span(members: np.ndarray, d: np.ndarray) -> tuple[list, np.ndarray]:
    """Generators of the span of the members with nonzero coefficient d, and
    the coefficients by exponent mask over them: eliminate the nonzero
    coordinates u bit by bit; each pivot's hit bits are the new coordinates."""
    u = np.flatnonzero(np.abs(d) >= PRUNE)
    rest, pos = u.copy(), np.zeros_like(u)
    gens: list[int] = []
    for bit in reversed(range(d.size.bit_length() - 1)):
        hit = (rest >> bit) & 1
        if hit.any():
            p = rest[hit.argmax()]
            rest ^= hit * p
            pos |= hit << len(gens)
            gens.append(int(members[p]))
    elements = np.zeros(2 ** len(gens))
    elements[pos] = d[u]
    return gens, elements


def walsh_hadamard(x: np.ndarray) -> np.ndarray:
    """y_s = sum_v x_v (-1)^{s.v} along the last axis (length 2^r): the
    character values of the group element with coefficients x; each
    butterfly pairs index i with i + h, in place on one float copy of x."""
    lead, size = x.shape[:-1], x.shape[-1]
    y = np.array(x, dtype=float)
    scratch = np.empty(y.size // 2)
    h = 1
    while h < size:
        pairs = y.reshape(lead + (size // (2 * h), 2, h))
        a, b = pairs[..., 0, :], pairs[..., 1, :]
        t = np.subtract(a, b, out=scratch.reshape(a.shape))
        a += b
        b[...] = t
        h *= 2
    return y


def marginal_spectrum(e: PauliExpansion, region) -> tuple[np.ndarray, int]:
    """Eigenvalues of the normalized marginal on ``region`` (one value per
    group character) and the degeneracy they each carry."""
    grp = restricted_group(e, region)
    nq = len(grp.qubits)
    return walsh_hadamard(grp.elements) / 2**nq, 2 ** (nq - len(grp.generators))


def marginal_entropy(e: PauliExpansion, region) -> float:
    """Entropy (bits) of the reduced state on a site region."""
    if not set(region):
        return 0.0
    lam, deg = marginal_spectrum(e, region)
    total = lam.sum() * deg
    if abs(total - 1) > 1e-10:
        raise ValueError(f"marginal trace {total} != 1")
    return entropy_bits(lam, deg)


region_entropy = marginal_entropy
