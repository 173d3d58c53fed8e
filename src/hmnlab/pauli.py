"""Symplectic engine for Gibbs states of commuting Pauli Hamiltonians under
Pauli-diagonal channels.

F2 elimination of the terms' symplectic vectors (Aaronson-Gottesman form)
picks r independent generators G_i among them.  With g_v = prod_{i in v} G_i
in index order, commutation and G_i^2 = I give g_v g_w = g_{v xor w}
exactly, and each term is h_a = sigma_a g_{b_a}.  A channel multiplies g_v
by a factor read off its damping table at the local bits of g_v, which are
linear in v.  Where a table has exact zeros, the g_v whose local bits lie
outside the span of its nonzero entries are zeroed, so the layer keeps a
subspace K of F2^r (all of it where no table has a zero).  The state is one
vector over a basis of K,

    rho = 2^{-n} sum_{v in K} c_v g_v,      c_0 = 1,

a (2,)*k tensor with kept generator i on axis k-1-i.  From exp(-b l h) =
cosh(b l) (I - tanh(b l) h), c_v is the sum of prod_{a in S} (-t_a sigma_a)
over the term subsets S with XOR of b_a equal to v, normalized by c_0.
Where K is the whole group, c is built term by term: a term that introduces
generator i doubles c to [c, -t_a sigma_a c]; a term inside the group
(b_a among the existing generators) updates c <- c - t_a sigma_a
c[v xor b_a]; a constant term (b_a = 0) cancels in the normalization.  Where
K is smaller, the subsets S that land in K form a subspace of dimension
dim K plus the number of dependent terms, and c is summed over it.
TERM_CAP bounds the rank of the vector the expansion builds: r where K is
the whole group, else that dimension.  A channel multiplies c by a damping
table over the kept generators that touch its site, broadcast along their
axes.  A region's marginal lives on the subgroup supported there (the
kernel of the generators' outside bits) and diagonalizes over its
characters, so an entropy costs one Walsh-Hadamard transform of 2^rank
values.  The plan holds the layer's damping tables and each region's kernel.
It works on the generators' (x, z) words: g_v takes its sign from the words
alone, each distinct channel table reduces its 4^k local rows once (one
lookup per generator and channel), and a region's mask is k bits per site.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .channels import ChannelLayer
from .model import LocalHamiltonian, PauliString, SiteGraph, entropy_bits

TERM_CAP = 22
PRUNE = 1e-18

Plan = namedtuple("Plan", "h layer group words kept basis damping regions")
Region = namedtuple("Region", "qubits kernel")
# a region's group elements with nonzero coefficient: its qubit count, their
# span's generators as exponent masks over e's, coefficients by mask over those
RestrictedGroup = namedtuple("RestrictedGroup", "qubits generators elements")


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


def _kernel(words) -> list:
    """A basis, as masks v, of {v : XOR of words[i] over the set bits i of v
    is 0}.  Each mask's highest bit is its own: the other bits are pivots,
    which no mask owns."""
    pivots: dict = {}
    out = []
    for i, w in enumerate(words):
        word, mask = _reduce(pivots, w, 1 << i)
        if not word:
            out.append(mask)
    return out


def _combine(words, v: int) -> int:
    """XOR of words[i] over the set bits i of v."""
    out = 0
    while v:
        i = v.bit_length() - 1
        out, v = out ^ words[i], v ^ (1 << i)
    return out


def _local_rows(generators, site: int, k: int) -> list:
    """Each generator's (x, z) bits on the site's k qubits, as a table index."""
    mask = (1 << k) - 1
    return [(((g.x >> site * k) & mask) << k) | ((g.z >> site * k) & mask) for g in generators]


def group_element(gens, v: int, n: int) -> PauliString:
    """g_v: the generators in v multiplied in index order, on their (x, z)
    words.  Each product adds the phase y1 + y2 - y3 + 2 popcount(z1 & x2),
    y = popcount(x & z), plus 2 for a factor of sign -1 (Aaronson-Gottesman);
    an odd phase is an anticommuting pair, and the total mod 4 is the sign."""
    x = z = y = phase = 0
    for i, g in enumerate(gens):
        if v >> i & 1:
            x3, z3 = x ^ g.x, z ^ g.z
            y3 = (x3 & z3).bit_count()
            step = y + (g.x & g.z).bit_count() - y3 + 2 * (z & g.x).bit_count() + 1 - g.sign
            if step % 2:
                raise ValueError("product of anticommuting Paulis is not Hermitian")
            x, z, y, phase = x3, z3, y3, phase + step
    return PauliString(n, x, z, -1 if phase % 4 else 1)


@dataclass
class PauliExpansion:
    graph: SiteGraph
    generators: tuple  # independent commuting PauliStrings G_i, each of sign +-1
    coeffs: np.ndarray  # c_v, the coefficient of g_v, for v in [0, 2^len(generators))

    @property
    def n(self) -> int:
        return self.graph.n_qubits


def check(h: LocalHamiltonian) -> None:
    """Raise ValueError unless ``h`` is commuting Pauli terms; the size of its
    expansion depends on the layer too, and ``plan`` bounds it."""
    if not h.all_pauli:
        raise ValueError("Pauli engine needs Pauli terms")
    if not h.commuting:
        raise ValueError("Hamiltonian terms do not commute")


def term_group(h: LocalHamiltonian) -> tuple[tuple, list, list]:
    """F2 elimination of the terms' symplectic vectors: the generators G_i
    (each of sign +1) picked among the terms, and per term its mask b_a and
    sign sigma_a with h_a = sigma_a g_{b_a}."""
    n = h.site_graph.n_qubits
    gens: list[PauliString] = []
    pivots: dict = {}
    coords, signs = [], []
    for t in h.terms:
        p, new = t.operator, 1 << len(gens)
        word, mask = _reduce(pivots, (p.x << n) | p.z, new)
        if word:
            gens.append(PauliString(n, p.x, p.z))
        coords.append(new if word else mask ^ new)
        # a term that introduces its generator is sigma_a g_{b_a} with g_{b_a} of sign +1
        signs.append(p.sign if word else p.sign * group_element(gens, coords[-1], n).sign)
    return tuple(gens), coords, signs


def _checks(graph: SiteGraph, generators, channels) -> list:
    """Per generator, the check bits that the channels' zero factors put on
    its local bits: each local row reduced modulo the span of the table's
    nonzero entries, one 2k-bit field per table with a zero.  The remainder
    (no pivot bit set) is unique, so linear in the row, and 0 exactly on the
    span; g_v is kept where the XOR of the generators' words over v is 0."""
    k = graph.qubits_per_site
    words = [0] * len(generators)
    shift = 0
    remainders: dict = {}  # per distinct table, the remainder of each of its 4^k rows
    for ch in channels:
        table = ch.pauli_table
        if table.all():
            continue
        key = table.tobytes()
        if key not in remainders:
            pivots: dict = {}
            for u in np.flatnonzero(table).tolist():
                _reduce(pivots, u, 0)
            rows = np.arange(table.size)
            for bit in sorted(pivots, reverse=True):
                rows ^= (rows >> bit & 1) * pivots[bit][0]
            remainders[key] = rows.tolist()
        for i, row in enumerate(_local_rows(generators, ch.site, k)):
            words[i] |= remainders[key][row] << shift
        shift += 2 * k
    return words


def plan(h: LocalHamiltonian, layer: ChannelLayer, regions) -> Plan:
    """What every beta shares: h, layer, term_group(h), the generators' check
    words, a basis of the kept subspace K as masks, the expansion's
    ``basis`` (the group's generators where K is all of it, else K's
    basis, each g_v with its sign), the layer's ``damping`` and a ``region``
    per site set in ``regions``, both over the basis.  Raises ValueError
    unless ``h`` passes ``check``, every site channel has a Pauli damping
    profile, and the rank of the vector the expansion builds (r where K is
    the whole group, else dim K plus the number of dependent terms) is
    within TERM_CAP."""
    check(h)
    group = gens, coords, _ = term_group(h)
    g = h.site_graph
    words = _checks(g, gens, layer.channels)
    kept = _kernel(words)
    r = len(gens)
    rank = r if len(kept) == r else len(kept) + sum(1 for b in coords if b) - r
    if rank > TERM_CAP:
        raise ValueError(f"pauli expansion of rank {rank} exceeds cap {TERM_CAP}")
    basis = gens if len(kept) == r else tuple(group_element(gens, v, g.n_qubits) for v in kept)
    regions = tuple(region(g, basis, s) for s in regions)
    return Plan(h, layer, group, words, kept, basis, damping(g, basis, layer), regions)


def _kept_sum(live, words, kept) -> np.ndarray:
    """c on K, unnormalized: the sum over the term subsets S whose b_S (the
    XOR of their b_a) lies in K of prod_{a in S} (-t_a sigma_a), for the
    non-constant terms ``live`` = [(b_a, t_a sigma_a)].  Those S are the
    kernel of S -> the check bits of b_S; the subset of basis members u holds
    term a where col_a . u is odd (col_a: the members holding a), and lands
    at the K coordinates of b_S, its bits at the kept masks' own bits."""
    bs = [b for b, _ in live]
    subsets = _kernel([_combine(words, b) for b in bs])
    own = [v.bit_length() - 1 for v in kept]
    at = [_combine(bs, m) for m in subsets]
    index = _xor_span([sum(((b >> o) & 1) << j for j, o in enumerate(own)) for b in at])
    factors: dict = {}
    for a, (_, s) in enumerate(live):
        col = sum(((m >> a) & 1) << j for j, m in enumerate(subsets))
        if col:
            factors[col] = factors.get(col, 1.0) * -s
    z = np.ones(index.size)
    for col, f in factors.items():
        z[_xor_span([(col >> j) & 1 for j in range(len(subsets))], np.uint8) == 1] *= f
    return np.bincount(index, weights=z, minlength=2 ** len(kept))


def expand_gibbs(plan: Plan, beta: float) -> PauliExpansion:
    """Expansion of exp(-beta H)/Z on the subspace K the plan's layer keeps,
    the whole group where no table has a zero; beta=inf uses tanh(+-inf) =
    +-1 factors."""
    (gens, coords, signs), h, kept = plan.group, plan.h, plan.kept
    # work with factors I - t_a h_a, t_a = tanh(beta lambda_a); the dropped
    # cosh prefactors cancel in the final normalization, and so does a
    # constant term (b_a = 0), which is skipped: its factor
    # (1 - t_a sigma_a) I is exactly 0 once t_a sigma_a rounds to 1
    ts = []
    for t, sigma in zip(h.terms, signs):
        lam = t.coefficient
        ta = math.tanh(beta * lam) if not math.isinf(beta) else float(np.sign(lam))
        ts.append(ta * sigma)
    if len(kept) == len(gens):
        c = np.ones(1)
        for b, s in zip(coords, ts):
            if b == c.size:
                # b_a introduces the next generator, and c is 0 on the new half;
                # 0.0 - x, not -x, keeps -0.0 out as the gather update does
                c = np.concatenate((c, 0.0 - s * c))
            elif b:
                c = c - s * c[np.arange(c.size) ^ b]
    else:
        c = _kept_sum([(b, s) for b, s in zip(coords, ts) if b], plan.words, kept)
    if abs(c[0]) < 1e-14:
        raise ValueError("expansion has zero trace (frustrated zero-temperature state)")
    return PauliExpansion(h.site_graph, plan.basis, c / c[0])


def damping(graph: SiteGraph, generators, layer: ChannelLayer) -> tuple:
    """E[g_v] = f_v g_v: per channel on a site that a generator touches, its
    table read at the local bits of g_v, as (the merged-axis shape of c, the
    table shaped to broadcast against it)."""
    k = graph.qubits_per_site
    out = []
    for ch in layer.channels:
        rows = _local_rows(generators, ch.site, k)
        if any(rows):
            # the factor varies only along the axes (r-1-i) of the generators
            # that touch the site: a table over their span, broadcast; each
            # run of axes alike (touched or not) is merged into one axis
            f = ch.pauli_table[_xor_span([row for row in rows if row], np.min_scalar_type(4**k - 1))]
            cs, fs = [1], [1]  # the sizes of c and f along each merged axis
            for row in reversed(rows):
                if bool(row) != (fs[-1] > 1):  # a new run
                    cs.append(1)
                    fs.append(1)
                cs[-1] *= 2
                fs[-1] *= 2 if row else 1
            out.append((tuple(cs), f.reshape(fs)))
    return tuple(out)


def damp(c: np.ndarray, tables: tuple) -> np.ndarray:
    """c_v f_v: c times each of a layer's ``damping`` tables, broadcast."""
    for i, (cs, f) in enumerate(tables):
        view = c.reshape(cs)
        if i:
            view *= f
        else:  # a new array, so the input is never written
            c = (view * f).reshape(-1)
    return c


def apply_pauli_layer(e: PauliExpansion, tables: tuple) -> PauliExpansion:
    """Damp each coefficient of e by a layer's ``damping`` of its generators."""
    return PauliExpansion(e.graph, e.generators, damp(e.coeffs, tables))


def prepare(plan: Plan, beta: float) -> PauliExpansion:
    """The expansion on the subspace the plan's layer keeps, damped by it."""
    return apply_pauli_layer(expand_gibbs(plan, beta), plan.damping)


def region(graph: SiteGraph, generators, sites) -> Region:
    """A site region's qubit count and the F2 kernel of the generators'
    outside-region bits: a basis of the exponent masks v whose g_v is
    supported inside the region."""
    k, n = graph.qubits_per_site, graph.n_qubits
    outside = ((1 << n) - 1) ^ sum(((1 << k) - 1) << (s * k) for s in sites)
    return Region(k * len(sites), tuple(_kernel([((g.x & outside) << n) | (g.z & outside) for g in generators])))


def restricted_group(e: PauliExpansion, region: Region) -> RestrictedGroup:
    """The group elements of ``e`` on a ``region`` of its generators: the
    members of the region's kernel, cut to the span of those with nonzero
    coefficient."""
    members = _xor_span(region.kernel)
    d = e.coeffs[members]
    if np.all(np.abs(d) >= PRUNE):
        gens, elements = region.kernel, d  # every coefficient is nonzero: the whole kernel
    else:
        gens, elements = _nonzero_span(members, d)
    return RestrictedGroup(region.qubits, gens, elements)


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
    character values of the group element with coefficients x.  Each level
    writes the sums and differences of the even and odd entries to the first
    and second half of the other of two float buffers (a perfect shuffle):
    level j pairs index bit j as the butterfly does, and after r levels the
    index is back in order."""
    y = np.array(x, dtype=float)
    z, half = np.empty_like(y), y.shape[-1] // 2
    for _ in range(half.bit_length()):
        np.add(y[..., 0::2], y[..., 1::2], out=z[..., :half])
        np.subtract(y[..., 0::2], y[..., 1::2], out=z[..., half:])
        y, z = z, y
    return y


def marginal_spectrum(e: PauliExpansion, region: Region) -> tuple[np.ndarray, int]:
    """Eigenvalues of the normalized marginal on a ``region`` (one value per
    group character) and the degeneracy they each carry."""
    grp = restricted_group(e, region)
    return walsh_hadamard(grp.elements) / 2.0**grp.qubits, 2 ** (grp.qubits - len(grp.generators))


def marginal_entropy(e: PauliExpansion, region: Region) -> float:
    """Entropy (bits) of the reduced state on a ``region``."""
    if not region.qubits:
        return 0.0
    lam, deg = marginal_spectrum(e, region)
    total = float(lam.sum()) * deg
    if abs(total - 1) > 1e-10:
        raise ValueError(f"marginal trace {total} != 1")
    support = lam[lam != 0.0]
    if support.min() == support.max():
        # a multiple of a projector (a stabilizer marginal, as at beta = inf)
        # has entropy log2 of its rank, here exact; -sum l log l would round
        # by an ulp of the entropy, and a CMI of 80-bit marginals shows it
        return math.log2(support.size * deg)
    return entropy_bits(lam, deg)


region_entropy = marginal_entropy
