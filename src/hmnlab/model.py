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
from functools import cached_property

import numpy as np

INF_DISTANCE = math.inf

_PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


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
    def from_label(cls, label: str, sign: int = 1) -> "PauliString":
        """Build from a left-to-right label like "XZIY" (qubit 0 first)."""
        x = z = 0
        for j, ch in enumerate(label):
            if ch in ("X", "Y"):
                x |= 1 << j
            if ch in ("Z", "Y"):
                z |= 1 << j
            if ch not in "IXYZ":
                raise ValueError(f"bad Pauli letter {ch!r}")
        return cls(len(label), x, z, sign)

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0, 1)

    def label(self) -> str:
        out = []
        for j in range(self.n):
            xb, zb = (self.x >> j) & 1, (self.z >> j) & 1
            out.append("IXZY"[xb + 2 * zb])
        return "".join(out)

    @property
    def key(self) -> tuple[int, int]:
        return (self.x, self.z)

    def support(self) -> frozenset[int]:
        m = self.x | self.z
        return frozenset(j for j in range(self.n) if (m >> j) & 1)

    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    def commutes_with(self, other: "PauliString") -> bool:
        a = bin(self.x & other.z).count("1")
        b = bin(self.z & other.x).count("1")
        return (a + b) % 2 == 0

    def __mul__(self, other: "PauliString") -> "PauliString":
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        x3, z3 = self.x ^ other.x, self.z ^ other.z
        y1 = bin(self.x & self.z).count("1")
        y2 = bin(other.x & other.z).count("1")
        y3 = bin(x3 & z3).count("1")
        swaps = bin(self.z & other.x).count("1")
        phase = (y1 + y2 - y3 + 2 * swaps) % 4
        if phase % 2:
            raise ValueError("product of anticommuting Paulis is not Hermitian")
        sign = self.sign * other.sign * (1 if phase == 0 else -1)
        return PauliString(self.n, x3, z3, sign)

    def to_matrix(self) -> np.ndarray:
        """Dense matrix with qubit 0 as the most significant tensor factor."""
        out = np.array([[self.sign]], dtype=complex)
        for j in range(self.n):
            xb, zb = (self.x >> j) & 1, (self.z >> j) & 1
            out = np.kron(out, _PAULI_MATS["IXZY"[xb + 2 * zb]])
        return out


@dataclass(frozen=True)
class HamiltonianTerm:
    """One bounded term lambda_a * h_a.

    ``operator`` is a PauliString over the full qubit register, or a real
    table of shape (q,)*len(support) for diagonal classical terms (axes in
    the order ``support`` is listed).
    """

    support: tuple[int, ...]
    operator: object
    coefficient: float

    def __post_init__(self):
        if len(set(self.support)) != len(self.support):
            raise ValueError(f"term support {self.support} lists a site twice")
        if not abs(self.coefficient) <= 1 + 1e-12:  # NaN fails too
            raise ValueError(f"|lambda|={abs(self.coefficient)} exceeds 1")
        if self.is_diagonal:
            table = np.asarray(self.operator, dtype=float)
            if not np.max(np.abs(table)) <= 1 + 1e-12:
                raise ValueError("diagonal term exceeds unit operator norm")
            object.__setattr__(self, "operator", table)

    @property
    def is_diagonal(self) -> bool:
        return not isinstance(self.operator, PauliString)

    @property
    def is_pauli(self) -> bool:
        return isinstance(self.operator, PauliString)

    def site_table(self, graph: SiteGraph) -> np.ndarray:
        """A diagonal term's table with its axes in increasing site order,
        shaped to broadcast against the (q,)*n configuration tensor."""
        table = np.transpose(self.operator, np.argsort(self.support))
        return table.reshape([graph.q if s in self.support else 1 for s in range(graph.n_sites)])


@dataclass(frozen=True)
class LocalHamiltonian:
    """H = sum_a lambda_a h_a over a site graph."""

    site_graph: SiteGraph
    terms: tuple[HamiltonianTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        for t in self.terms:
            for s in t.support:
                if not 0 <= s < self.site_graph.n_sites:
                    raise ValueError(f"term support {t.support} outside site graph")

    @cached_property
    def commuting(self) -> bool:
        return verify_commuting(self)

    @property
    def all_pauli(self) -> bool:
        return all(t.is_pauli for t in self.terms)

    @property
    def all_diagonal(self) -> bool:
        return all(t.is_diagonal for t in self.terms)


@dataclass(frozen=True)
class Partition:
    """Disjoint regions A, B, C (aliases X, Y, Z in the classical engine)."""

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


def entropy_bits(values, degeneracy: int = 1) -> float:
    """Entropy in bits of a probability vector or spectrum whose every value
    occurs ``degeneracy`` times.  Values <= 1e-18 count as zero; none is
    raised to a floor."""
    v = np.ravel(values)
    v = v[v > 1e-18]
    return float(-degeneracy * (v * np.log(v)).sum() / math.log(2.0))


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


def verify_commuting(h: LocalHamiltonian) -> bool:
    """True iff every pair of terms commutes (symplectic check for Pauli pairs,
    dense commutator on the joint support otherwise)."""
    from .dense import term_matrix  # local import to avoid a cycle

    for i in range(len(h.terms)):
        for j in range(i + 1, len(h.terms)):
            ti, tj = h.terms[i], h.terms[j]
            if ti.is_diagonal and tj.is_diagonal:
                continue
            if ti.is_pauli and tj.is_pauli:
                if not ti.operator.commutes_with(tj.operator):
                    return False
                continue
            mi = term_matrix(h.site_graph, ti)
            mj = term_matrix(h.site_graph, tj)
            if np.max(np.abs(mi @ mj - mj @ mi)) > 1e-12:
                return False
    return True


_MODEL_KEYS = {"q", "n_sites", "terms"}
_TERM_KEYS = {"support", "pauli", "diag", "lambda"}


def require_int(value, what: str, least: int) -> int:
    """``value`` if it is an int (not a bool) >= ``least``; no other number
    is rounded to one."""
    if type(value) is not int or value < least:
        raise ValueError(f"{what} {value!r} is not an integer >= {least}")
    return value


def parse_model(obj: dict) -> LocalHamiltonian:
    """Parse the JSON model format; unknown keys are rejected, and ``n_sites``,
    ``q`` and every support entry must be ints."""
    unknown = set(obj) - _MODEL_KEYS
    if unknown:
        raise ValueError(f"unknown model keys: {sorted(unknown)}")
    graph = SiteGraph(require_int(obj["n_sites"], "n_sites", 1), require_int(obj.get("q", 2), "q", 2))
    terms = []
    for raw in obj["terms"]:
        unknown = set(raw) - _TERM_KEYS
        if unknown:
            raise ValueError(f"unknown term keys: {sorted(unknown)}")
        support = tuple(require_int(s, "support entry", 0) for s in raw["support"])
        if any(s >= graph.n_sites for s in support):
            raise ValueError(f"term support {support} outside site graph")
        lam = float(raw["lambda"])
        if "pauli" in raw and "diag" in raw:
            raise ValueError("term cannot be both pauli and diag")
        if "pauli" in raw:
            label = raw["pauli"]
            k = graph.qubits_per_site
            if len(label) != len(support) * k:
                raise ValueError("pauli label length must cover the support qubits")
            # the support's letters, placed on a label of the whole register
            letters = ["I"] * graph.n_qubits
            for idx, ch in enumerate(label):
                letters[support[idx // k] * k + idx % k] = ch
            op = PauliString.from_label("".join(letters))
        elif "diag" in raw:
            vals = np.asarray(raw["diag"], dtype=float)
            shape = (graph.q,) * len(support)
            if vals.size != graph.q ** len(support):
                raise ValueError("diag table has wrong size for the support")
            op = vals.reshape(shape)
        else:
            raise ValueError("term needs either 'pauli' or 'diag'")
        terms.append(HamiltonianTerm(support, op, lam))
    return LocalHamiltonian(graph, tuple(terms))


def load_model(path) -> LocalHamiltonian:
    with open(path) as f:
        return parse_model(json.load(f))
