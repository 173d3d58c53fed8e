"""Sites, Pauli strings, local Hamiltonians, partitions, and the dual interaction graph.

Conventions fixed here and used everywhere else:

* Configurations are indexed lexicographically with site 0 most significant.
* A site carries a q-dimensional space; for Pauli models q must be a power
  of two and site ``i`` owns qubits ``i*k .. (i+1)*k - 1`` with ``k = log2(q)``.
* Pauli strings are stored in binary symplectic form ``(x_bits, z_bits)``
  plus a real sign; the operator is ``sign * prod_j P_j`` where ``P_j`` is
  I, X, Z, or Y (= i X Z) depending on the bit pair at qubit ``j``.  Every
  stored string is Hermitian by construction.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

INF_DISTANCE = math.inf

@dataclass(frozen=True)
class SiteGraph:
    """Collection of n sites with local dimension q.  Distances come from
    the dual interaction graph, not from site geometry."""

    n_sites: int
    q: int = 2

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError("need at least one site")
        if self.q < 2:
            raise ValueError("local dimension must be >= 2")

    @property
    def qubits_per_site(self) -> int:
        k = self.q.bit_length() - 1
        if 2**k != self.q:
            raise ValueError(f"q={self.q} is not a power of two; no qubit layout")
        return k

    @property
    def n_qubits(self) -> int:
        return self.n_sites * self.qubits_per_site

    def site_qubits(self, site: int) -> range:
        k = self.qubits_per_site
        return range(site * k, (site + 1) * k)

    @property
    def dim(self) -> int:
        return self.q**self.n_sites


@dataclass(frozen=True)
class PauliString:
    """Hermitian n-qubit Pauli operator in binary symplectic form.

    ``x`` and ``z`` are bit masks (qubit 0 = least significant bit) and
    ``sign`` is +-1.  Y at qubit j is encoded as both bits set; the implicit
    phase i^{popcount(x & z)} keeps the operator Hermitian.
    """

    n: int
    x: int
    z: int
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +-1")
        if self.x >> self.n or self.z >> self.n:
            raise ValueError("bit mask exceeds qubit count")

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Build from a left-to-right label like "XZIY" (qubit 0 first)."""
        x = z = 0
        for j, ch in enumerate(label):
            if ch in ("X", "Y"):
                x |= 1 << j
            if ch in ("Z", "Y"):
                z |= 1 << j
            if ch not in "IXYZ":
                raise ValueError(f"bad Pauli letter {ch!r}")
        return cls(len(label), x, z)

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0, 1)

    def commutes_with(self, other: "PauliString") -> bool:
        return ((self.x & other.z).bit_count() + (self.z & other.x).bit_count()) % 2 == 0

    def __mul__(self, other: "PauliString") -> "PauliString":
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        x3, z3 = self.x ^ other.x, self.z ^ other.z
        y1 = (self.x & self.z).bit_count()
        y2 = (other.x & other.z).bit_count()
        y3 = (x3 & z3).bit_count()
        swaps = (self.z & other.x).bit_count()
        phase = (y1 + y2 - y3 + 2 * swaps) % 4
        if phase % 2:
            raise ValueError("product of anticommuting Paulis is not Hermitian")
        sign = self.sign * other.sign * (1 if phase == 0 else -1)
        return PauliString(self.n, x3, z3, sign)

    def monomial(self) -> tuple[np.ndarray, np.ndarray]:
        """The matrix sign * i^popcount(x & z) * X^x Z^z, qubit 0 the most
        significant tensor factor, as one entry per column: (rows, values),
        column c holding values[c] at row rows[c].  Column c (qubit j at bit
        n-1-j) goes to row c ^ X and carries the sign (-1)^popcount(c & Z), X
        and Z being the masks in that bit order, times the phase.  The values
        are ints +-1 when popcount(x & z) is even, else complex +-1j."""
        xm, zm = (int(f"{m:0{self.n}b}"[::-1], 2) for m in (self.x, self.z))
        c = np.arange(1 << self.n)
        parity = c & zm  # xor-folded to its popcount parity (no np.bitwise_count before numpy 2)
        for shift in (32, 16, 8, 4, 2, 1):
            parity ^= parity >> shift
        phase = self.sign * (1, 1j, -1, -1j)[(self.x & self.z).bit_count() % 4]
        return c ^ xm, phase * (1 - 2 * (parity & 1))

    def to_matrix(self) -> np.ndarray:
        """Dense complex matrix of the string: its ``monomial`` entries."""
        rows, values = self.monomial()
        out = np.zeros((rows.size, rows.size), dtype=complex)
        out[rows, np.arange(rows.size)] = values
        return out


@dataclass(frozen=True)
class HamiltonianTerm:
    """One bounded term lambda_a * h_a.

    ``operator`` is a PauliString over the full qubit register, or a real
    table of shape (q,)*len(support) (axes in the order ``support`` is
    listed).  A table and a string with no X bit are diagonal terms.
    """

    support: tuple[int, ...]
    operator: object
    coefficient: float

    def __post_init__(self):
        if len(set(self.support)) != len(self.support):
            raise ValueError(f"term support {self.support} lists a site twice")
        if not abs(self.coefficient) <= 1 + 1e-12:  # NaN fails too
            raise ValueError(f"|lambda|={abs(self.coefficient)} exceeds 1")
        if not self.is_pauli:
            table = np.asarray(self.operator, dtype=float)
            if not np.max(np.abs(table)) <= 1 + 1e-12:
                raise ValueError("diagonal term exceeds unit operator norm")
            object.__setattr__(self, "operator", table)

    @property
    def is_diagonal(self) -> bool:
        return not self.is_pauli or not self.operator.x

    @property
    def is_pauli(self) -> bool:
        return isinstance(self.operator, PauliString)

    def table(self, q: int) -> np.ndarray:
        """A diagonal term's table, axes in ``support`` order; a Z-only string's
        is read off its bits on the support, and one with a bit elsewhere refused."""
        if not self.is_pauli:
            return self.operator
        p, k = self.operator, q.bit_length() - 1
        z = sum((p.z >> (s * k) & (q - 1)) << (i * k) for i, s in enumerate(self.support))
        if p.x or z.bit_count() != p.z.bit_count():
            raise ValueError(f"Pauli string {p} is not a Z-only string on its support {self.support}")
        return _z_table(z, p.sign, len(self.support), q)

    def site_table(self, q: int, sites: range) -> np.ndarray:
        """A diagonal term's table with its axes in increasing site order,
        shaped to broadcast against the (q,)*len(sites) configuration tensor
        of the consecutive ``sites``, which hold the support."""
        order = sorted(range(len(self.support)), key=self.support.__getitem__)
        return self.table(q).transpose(order).reshape([q if s in self.support else 1 for s in sites])


@lru_cache(maxsize=None)
def _z_table(z: int, sign: int, n_sites: int, q: int) -> np.ndarray:
    """The +-1 table of sign * Z^z on n_sites whole sites, site 0 the first axis."""
    _, values = PauliString(n_sites * (q.bit_length() - 1), 0, z, sign).monomial()
    return values.astype(float).reshape((q,) * n_sites)


@dataclass(frozen=True)
class LocalHamiltonian:
    """H = sum_a lambda_a h_a over a site graph."""

    site_graph: SiteGraph
    terms: tuple[HamiltonianTerm, ...]

    def __post_init__(self):
        """Every term lies on the site graph: its support, and a Pauli
        string's qubits, which are the model's and have no X or Z bit off
        the support's sites."""
        object.__setattr__(self, "terms", tuple(self.terms))
        g = self.site_graph
        for t in self.terms:
            for s in t.support:
                if not 0 <= s < g.n_sites:
                    raise ValueError(f"term support {t.support} outside site graph")
            if t.is_pauli:
                p, k = t.operator, g.qubits_per_site
                if p.n != g.n_qubits:
                    raise ValueError(f"Pauli string on {p.n} qubits in a model of {g.n_qubits}")
                if (p.x | p.z) & ~sum(((1 << k) - 1) << (s * k) for s in t.support):
                    raise ValueError(f"Pauli string {p} has a bit off its support {t.support}")

    @cached_property
    def commuting(self) -> bool:
        return verify_commuting(self)

    @property
    def all_pauli(self) -> bool:
        return all(t.is_pauli for t in self.terms)


@dataclass(frozen=True)
class Partition:
    """Disjoint regions A, B, C of I(A:C|B), A and C nonempty."""

    a: frozenset[int]
    b: frozenset[int]
    c: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "a", frozenset(self.a))
        object.__setattr__(self, "b", frozenset(self.b))
        object.__setattr__(self, "c", frozenset(self.c))
        if self.a & self.b or self.a & self.c or self.b & self.c:
            raise ValueError("regions must be pairwise disjoint")
        if not self.a or not self.c:
            raise ValueError("A and C must be nonempty")

    @property
    def abc(self) -> frozenset[int]:
        return self.a | self.b | self.c

    @property
    def regions(self) -> tuple:
        """(AB, BC, B, ABC): the site sets whose entropies make I(A:C|B)."""
        return self.a | self.b, self.b | self.c, self.b, self.abc


# values per chunk of entropy_bits: a 64 KB temporary is reused from the heap,
# where one the size of a 2^19-value input is a fresh, page-faulting mmap
_ENTROPY_BLOCK = 1 << 13


def entropy_bits(values, degeneracy: int = 1) -> float:
    """Entropy in bits of a probability vector or spectrum whose every value
    occurs ``degeneracy`` times.  The rules go by the mass a value carries,
    value times degeneracy, on every engine: a mass below -1e-10 raises, and
    values of mass <= 1e-18 (and NaN) count as zero; none is raised to a
    floor.  Summed in chunks of ``_ENTROPY_BLOCK`` values, whose sums are
    added exactly (no rounding from the chunking)."""
    v = np.ravel(values)
    # a pauli marginal on nq qubits has values near 2^-nq, each 2^(nq - rank)
    # times: an absolute floor would drop all of them from nq = 60 on
    floor, low_mass = 1e-18 / degeneracy, -1e-10 / degeneracy
    parts = []
    for i in range(0, v.size, _ENTROPY_BLOCK):
        c = v[i : i + _ENTROPY_BLOCK]
        if not c.min() > floor:  # a value to drop, or a NaN
            low = np.fmin.reduce(c)  # skips NaN, which min returns over any value
            if low < low_mass:
                raise ValueError(f"entropy input has a value {low} < {low_mass:g}")
            c = c[c > floor]
        parts.append(float(np.dot(c, np.log(c))))
    return float(-degeneracy * math.fsum(parts) / math.log(2.0))


def neighbor_sets(n: int, edges) -> tuple[frozenset[int], ...]:
    """Each node's neighbours in the undirected graph on 0..n-1 with ``edges``."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return tuple(frozenset(s) for s in adj)


@dataclass(frozen=True)
class DualInteractionGraph:
    """Terms as nodes, edges between terms with overlapping support."""

    n_terms: int
    edges: frozenset[tuple[int, int]]
    degree: int
    supports: tuple[frozenset[int], ...]

    @cached_property
    def neighbors(self) -> tuple[frozenset[int], ...]:
        return neighbor_sets(self.n_terms, self.edges)


def build_dual_graph(h: LocalHamiltonian) -> DualInteractionGraph:
    """Two terms overlap iff some site lists both, so the edges are the pairs
    of each site's terms and the degree is the longest such list."""
    supports = tuple(frozenset(t.support) for t in h.terms)
    on_site: list[list[int]] = [[] for _ in range(h.site_graph.n_sites)]
    for a, sup in enumerate(supports):
        for s in sup:
            on_site[s].append(a)
    edges = frozenset(e for terms in on_site for e in itertools.combinations(terms, 2))
    degree = max(len(terms) for terms in on_site)
    return DualInteractionGraph(len(supports), edges, degree, supports)


def graph_distance(h: LocalHamiltonian, p: Partition) -> float:
    """Minimum weight of a connected cluster touching both A and C.

    BFS on the dual graph from all terms touching A; the answer is the node
    count of the shortest path into a term touching C.  ``inf`` when no
    connecting cluster exists.
    """
    g = build_dual_graph(h)
    touch_a = [i for i, s in enumerate(g.supports) if s & p.a]
    touch_c = {i for i, s in enumerate(g.supports) if s & p.c}
    if not touch_a or not touch_c:
        return INF_DISTANCE
    dist = {i: 1 for i in touch_a}
    frontier = list(touch_a)
    while frontier:
        hits = [dist[i] for i in frontier if i in touch_c]
        if hits:
            return float(min(hits))
        nxt = []
        for i in frontier:
            for j in g.neighbors[i]:
                if j not in dist:
                    dist[j] = dist[i] + 1
                    nxt.append(j)
        frontier = nxt
    return INF_DISTANCE


def _flip_invariant(term: HamiltonianTerm, p: PauliString, graph: SiteGraph) -> bool:
    """Whether a diagonal table D commutes with the Pauli string P.  P maps
    |a> to a unit-modulus phase times |a xor m>, m its X bits, so the
    commutator's entries are those phases times D(a xor m) - D(a), and only
    m on D's support matters."""
    k = graph.qubits_per_site
    flipped = term.operator
    for axis, s in enumerate(term.support):
        # qubit s*k is the most significant bit of site s's value
        m = sum(((p.x >> (s * k + j)) & 1) << (k - 1 - j) for j in range(k))
        flipped = np.take(flipped, np.arange(graph.q) ^ m, axis=axis)
    return bool(np.max(np.abs(flipped - term.operator)) <= 1e-12)


def _terms_commute(ti: HamiltonianTerm, tj: HamiltonianTerm, graph: SiteGraph) -> bool:
    """Whether two bare terms commute: symplectic check for a Pauli pair, the
    table against the Pauli string's flips for a mixed pair; table pairs
    always commute."""
    if not ti.is_pauli and not tj.is_pauli:
        return True
    if ti.is_pauli and tj.is_pauli:
        return ti.operator.commutes_with(tj.operator)
    diag, p = (ti, tj.operator) if tj.is_pauli else (tj, ti.operator)
    return _flip_invariant(diag, p, graph)


def verify_commuting(h: LocalHamiltonian) -> bool:
    """True iff every pair of bare terms h_a commutes.  Terms on disjoint
    supports commute, so only the pairs the dual graph joins are checked."""
    return all(_terms_commute(h.terms[i], h.terms[j], h.site_graph) for i, j in sorted(build_dual_graph(h).edges))


_MODEL_KEYS = {"q", "n_sites", "terms"}
_TERM_KEYS = {"support", "pauli", "diag", "lambda"}


def require_int(value, what: str, least: int) -> int:
    """``value`` if it is an int (not a bool) >= ``least``; no other number
    is rounded to one."""
    if type(value) is not int or value < least:
        raise ValueError(f"{what} {value!r} is not an integer >= {least}")
    return value


def require_list(value, what: str) -> list:
    """``value`` if it is a list (or tuple)."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} {value!r} is not a list")
    return value


def is_number(value) -> bool:
    """Whether ``value`` is an int or a float: not a bool, not a string."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numbers(value) -> bool:
    return all(map(_numbers, value)) if isinstance(value, list) else is_number(value)


def require_array(value, what: str, form: str) -> np.ndarray:
    """``value`` as a float array if it is nested lists whose every leaf is a
    number: numpy would read [1, true] as ints and "0.5" as 0.5, so the
    leaves are checked, not the dtype.  ``form`` says what else it should be."""
    if _numbers(value):
        try:
            return np.asarray(value, dtype=float)
        except (ValueError, OverflowError):  # ragged, or an int past the float range
            pass
    raise ValueError(f"{what} {value!r} is not {form}")


def parse_model(obj: dict) -> LocalHamiltonian:
    """Parse the JSON model format; unknown keys are rejected, ``n_sites``,
    ``q`` and every support entry must be ints, and every lambda an int or a
    float (not a bool or a string)."""
    if not isinstance(obj, dict):
        raise ValueError(f"model {obj!r} is not a JSON object")
    unknown = set(obj) - _MODEL_KEYS
    if unknown:
        raise ValueError(f"unknown model keys: {sorted(unknown)}")
    graph = SiteGraph(require_int(obj["n_sites"], "n_sites", 1), require_int(obj.get("q", 2), "q", 2))
    terms = []
    for raw in require_list(obj["terms"], "terms"):
        if not isinstance(raw, dict):
            raise ValueError(f"term {raw!r} is not an object")
        unknown = set(raw) - _TERM_KEYS
        if unknown:
            raise ValueError(f"unknown term keys: {sorted(unknown)}")
        support = tuple(require_int(s, "support entry", 0) for s in require_list(raw["support"], "term support"))
        if any(s >= graph.n_sites for s in support):
            raise ValueError(f"term support {support} outside site graph")
        lam = raw["lambda"]
        if not is_number(lam):
            raise ValueError(f"term lambda {lam!r} is not a number")
        if "pauli" in raw and "diag" in raw:
            raise ValueError("term cannot be both pauli and diag")
        if "pauli" in raw:
            label = raw["pauli"]
            k = graph.qubits_per_site
            if not isinstance(label, str) or len(label) != len(support) * k:
                raise ValueError(f"pauli label {label!r} is not a string of log2 q = {k} letters per support site")
            # the support's letters, placed on a label of the whole register
            letters = ["I"] * graph.n_qubits
            for idx, ch in enumerate(label):
                letters[support[idx // k] * k + idx % k] = ch
            op = PauliString.from_label("".join(letters))
        elif "diag" in raw:
            vals = require_array(raw["diag"], "diag table", "a table of numbers")
            shape = (graph.q,) * len(support)
            if vals.size != graph.q ** len(support):
                raise ValueError("diag table has wrong size for the support")
            op = vals.reshape(shape)
        else:
            raise ValueError("term needs either 'pauli' or 'diag'")
        terms.append(HamiltonianTerm(support, op, float(lam)))
    return LocalHamiltonian(graph, tuple(terms))


def load_model(path) -> LocalHamiltonian:
    with open(path) as f:
        return parse_model(json.load(f))
