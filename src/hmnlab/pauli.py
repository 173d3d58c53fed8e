"""Symplectic engine for Gibbs states of commuting Pauli Hamiltonians under
Pauli-diagonal channels.

F2 elimination of the terms' symplectic vectors (Aaronson-Gottesman form)
picks r independent generators G_i among them.  With g_v = prod_{i in v} G_i
in index order, commutation and G_i^2 = I give g_v g_w = g_{v xor w}
exactly, and each term is h_a = sigma_a g_{b_a}.  The state is one vector

    rho = 2^{-n} sum_v c_v g_v,      c_0 = 1,

built from exp(-b l h) = cosh(b l) (I - tanh(b l) h) as m vectorized updates
c <- c - t_a sigma_a c[v xor b_a].  A channel multiplies c by per-site
damping tables read at the local bits of g_v, which are linear in v.  A
region's marginal lives on the subgroup supported there (the kernel of the
generators' outside bits) and diagonalizes over its characters, so an
entropy costs one Walsh-Hadamard transform of 2^rank values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import ChannelLayer, pauli_damping_profile
from .model import LocalHamiltonian, PauliString, SiteGraph, entropy_bits

TERM_CAP = 22
RANK_CAP = 24
PRUNE = 1e-18


def _xor_span(rows, dtype=np.int64) -> np.ndarray:
    """out[v] = XOR of rows[i] over the set bits i of v, by doubling."""
    out = np.zeros(1, dtype)
    for row in rows:
        out = np.concatenate((out, out ^ row))
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


def _product(gens, v: int, n: int) -> PauliString:
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

    def element(self, v: int) -> PauliString:
        return _product(self.generators, v, self.n)

    def to_matrix(self) -> np.ndarray:
        """Dense state, for cross-validation on small systems."""
        d = 2**self.n
        out = np.zeros((d, d), dtype=complex)
        for v, c in enumerate(self.coeffs):
            out += c * self.element(v).to_matrix()
        return out / d


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
        pauli_damping_profile(ch)


def expand_gibbs(h: LocalHamiltonian, beta: float) -> PauliExpansion:
    """Expansion of exp(-beta H)/Z; beta=inf uses tanh(+-inf) = +-1 factors."""
    check(h)
    n = h.site_graph.n_qubits
    gens: list[PauliString] = []
    pivots: dict = {}
    coords = []  # per term: b_a, the generator mask with h_a = +-g_{b_a}
    for t in h.terms:
        p, new = t.operator, 1 << len(gens)
        word, mask = _reduce(pivots, (p.x << n) | p.z, new)
        if word:
            gens.append(PauliString(n, p.x, p.z))
        coords.append(new if word else mask ^ new)
    # work with factors I - t_a h_a, t_a = tanh(beta lambda_a); the dropped
    # cosh prefactors cancel in the final normalization
    c = np.zeros(2 ** len(gens))
    c[0] = 1.0
    for t, b in zip(h.terms, coords):
        lam = t.coefficient
        ta = math.tanh(beta * lam) if not math.isinf(beta) else float(np.sign(lam))
        sigma = t.operator.sign * _product(gens, b, n).sign
        c = c - ta * sigma * c[np.arange(c.size) ^ b]
    if abs(c[0]) < 1e-14:
        raise ValueError("expansion has zero trace (frustrated zero-temperature state)")
    return PauliExpansion(h.site_graph, tuple(gens), c / c[0])


def apply_pauli_layer(e: PauliExpansion, layer: ChannelLayer) -> PauliExpansion:
    """Damp each group coefficient by the per-site channel factors."""
    k = e.graph.qubits_per_site
    mask = (1 << k) - 1
    c = e.coeffs
    for ch in layer.channels:
        table = np.empty(4**k)
        for (x, z), f in pauli_damping_profile(ch).items():
            table[(x << k) | z] = f
        # local (x, z) bits of g_v at this site, as a table index
        rows = [
            (((g.x >> ch.site * k) & mask) << k) | ((g.z >> ch.site * k) & mask)
            for g in e.generators
        ]
        if any(rows):
            c = c * table[_xor_span(rows, np.min_scalar_type(4**k - 1))]
    return PauliExpansion(e.graph, e.generators, c)


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
    if len(gens) > RANK_CAP:
        raise ValueError(f"restricted-group rank exceeds cap {RANK_CAP}")
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


def marginal_spectrum(e: PauliExpansion, region) -> tuple[np.ndarray, int]:
    """Eigenvalues of the normalized marginal on ``region`` (one value per
    group character) and the degeneracy they each carry."""
    grp = restricted_group(e, region)
    nq = len(grp.qubits)
    # Walsh-Hadamard transform gives lam_s = sum_b d_b (-1)^{s.b}; each
    # butterfly pairs index i with i + h
    lam = grp.elements
    h = 1
    while h < lam.size:
        lam = lam.reshape(-1, 2, h)
        lam = np.stack((lam[:, 0] + lam[:, 1], lam[:, 0] - lam[:, 1]), axis=1)
        h *= 2
    lam = lam.ravel() / 2**nq
    if lam.min() < -1e-10:
        raise ValueError(f"marginal spectrum has eigenvalue {lam.min()} < -1e-10")
    return lam, 2 ** (nq - len(grp.generators))


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
