"""Per-site channels / transition matrices and the channel-class checks.

A "site" is the q-dimensional cell of the site graph, so a channel on a
q=4 site may touch two qubits while still being single-site in the sense
of the decay theorems.

Conventions (fixed repo-wide):

* transition matrices are column-stochastic, ``T[out, in]``;
* depolarizing: rho -> (1-p) rho + p I/q, so p=1 is the complete
  depolarization that realizes a partial trace;
* dephasing(p): rho -> (1-p) rho + p Z rho Z; bitflip likewise with X.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import LocalHamiltonian, PauliString, require_int

_TOL = 1e-12


@dataclass(frozen=True)
class SiteChannel:
    """Channel acting on one site.

    Exactly one of the representations is set:

    * ``transition`` -- q x q column-stochastic matrix (classical engine);
    * ``kraus`` -- list of q x q complex Kraus operators (dense engine);
    * ``pauli_mixture`` -- list of (PauliString on the site's qubits, prob)
      conjugation mixture (Pauli engine; also convertible to Kraus).
    """

    site: int
    transition: np.ndarray | None = None
    kraus: tuple[np.ndarray, ...] | None = None
    pauli_mixture: tuple[tuple[PauliString, float], ...] | None = None

    def __post_init__(self):
        reps = [r is not None for r in (self.transition, self.kraus, self.pauli_mixture)]
        if sum(reps) != 1:
            raise ValueError("exactly one channel representation must be given")
        if self.transition is not None:
            t = np.asarray(self.transition, dtype=float)
            if np.any(t < -_TOL) or np.max(np.abs(t.sum(axis=0) - 1)) > 1e-10:
                raise ValueError("transition matrix must be column-stochastic")
            object.__setattr__(self, "transition", t)
        if self.kraus is not None:
            ks = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
            d = ks[0].shape[0]
            s = sum(k.conj().T @ k for k in ks)
            if np.max(np.abs(s - np.eye(d))) > 1e-10:
                raise ValueError("Kraus operators are not trace-preserving")
            object.__setattr__(self, "kraus", ks)
        if self.pauli_mixture is not None:
            probs = [p for _, p in self.pauli_mixture]
            if any(p < -_TOL for p in probs) or abs(sum(probs) - 1) > 1e-10:
                raise ValueError("Pauli mixture probabilities must sum to 1")

    @property
    def dim(self) -> int:
        if self.transition is not None:
            return self.transition.shape[0]
        if self.kraus is not None:
            return self.kraus[0].shape[0]
        return 2 ** self.pauli_mixture[0][0].n

    def kraus_ops(self) -> tuple[np.ndarray, ...]:
        """Kraus representation usable by the dense engine."""
        if self.kraus is not None:
            return self.kraus
        if self.pauli_mixture is not None:
            return tuple(
                math.sqrt(p) * ps.to_matrix() for ps, p in self.pauli_mixture if p > 0
            )
        # column-stochastic T as a channel on diagonal states
        q = self.transition.shape[0]
        ops = []
        for i in range(q):
            for j in range(q):
                if self.transition[i, j] > 0:
                    k = np.zeros((q, q), dtype=complex)
                    k[i, j] = math.sqrt(self.transition[i, j])
                    ops.append(k)
        return tuple(ops)


def dephasing(site: int, p: float) -> SiteChannel:
    z = PauliString.from_label("Z")
    i = PauliString.identity(1)
    return SiteChannel(site, pauli_mixture=((i, 1 - p), (z, p)))


def bitflip(site: int, p: float) -> SiteChannel:
    x = PauliString.from_label("X")
    i = PauliString.identity(1)
    return SiteChannel(site, pauli_mixture=((i, 1 - p), (x, p)))


def depolarizing(site: int, p: float, q: int = 2) -> SiteChannel:
    """rho -> (1-p) rho + p I/q as a uniform Pauli conjugation mixture."""
    nq = q.bit_length() - 1
    if 2**nq != q:
        raise ValueError("depolarizing channel needs q a power of two")
    mix = [(PauliString.identity(nq), 1 - p + p / q**2)]
    for x in range(2**nq):
        for z in range(2**nq):
            if (x, z) != (0, 0):
                mix.append((PauliString(nq, x, z), p / q**2))
    return SiteChannel(site, pauli_mixture=tuple(mix))


def complete_depolarization(site: int, q: int = 2) -> SiteChannel:
    if 2 ** (q.bit_length() - 1) == q:
        return depolarizing(site, 1.0, q)
    ks = []
    for i in range(q):
        for j in range(q):
            k = np.zeros((q, q), dtype=complex)
            k[i, j] = 1 / math.sqrt(q)
            ks.append(k)
    return SiteChannel(site, kraus=tuple(ks))


def stabilizer_measurement(site: int, generators: list[PauliString]) -> SiteChannel:
    """Dephasing onto the joint eigenbasis of commuting Pauli generators
    (uniform conjugation mixture over the group they generate)."""
    group = {PauliString.identity(generators[0].n).key: PauliString.identity(generators[0].n)}
    for g in generators:
        for el in list(group.values()):
            prod = el * g
            group.setdefault(prod.key, prod)
    p = 1 / len(group)
    return SiteChannel(site, pauli_mixture=tuple((g, p) for g in group.values()))


def bell_measurement(site: int) -> SiteChannel:
    """Measurement of the XX and ZZ stabilizers on a two-qubit site."""
    return stabilizer_measurement(
        site, [PauliString.from_label("XX"), PauliString.from_label("ZZ")]
    )


def transition_channel(site: int, matrix) -> SiteChannel:
    return SiteChannel(site, transition=np.asarray(matrix, dtype=float))


@dataclass(frozen=True)
class ChannelLayer:
    """Map site -> SiteChannel; identity on absent sites."""

    channels: tuple[SiteChannel, ...] = ()

    def __post_init__(self):
        sites = [c.site for c in self.channels]
        if len(set(sites)) != len(sites):
            raise ValueError("duplicate site in channel layer")
        object.__setattr__(self, "channels", tuple(self.channels))

    @property
    def sites(self) -> frozenset[int]:
        return frozenset(c.site for c in self.channels)

    def is_unital(self) -> bool:
        return all(is_unital(c) for c in self.channels)

    def all_classical(self) -> bool:
        return all(c.transition is not None for c in self.channels)


def is_unital(c: SiteChannel) -> bool:
    """E[I] = I: doubly stochastic transition, sum K K+ = I for Kraus,
    always true for conjugation mixtures."""
    if c.pauli_mixture is not None:
        return True
    if c.transition is not None:
        return bool(np.max(np.abs(c.transition.sum(axis=1) - 1)) <= 1e-10)
    s = sum(k @ k.conj().T for k in c.kraus)
    return bool(np.max(np.abs(s - np.eye(c.dim))) <= 1e-10)


def compose_channels(first: SiteChannel, second: SiteChannel) -> SiteChannel:
    """second after first, on the same site."""
    if first.site != second.site:
        raise ValueError("site mismatch")
    if first.transition is not None and second.transition is not None:
        return SiteChannel(first.site, transition=second.transition @ first.transition)
    if first.pauli_mixture is not None and second.pauli_mixture is not None:
        # conjugation ignores phases, so the composite element is just the
        # XOR of the symplectic masks
        acc: dict[tuple[int, int], tuple[PauliString, float]] = {}
        for p1, w1 in first.pauli_mixture:
            for p2, w2 in second.pauli_mixture:
                key = (p1.x ^ p2.x, p1.z ^ p2.z)
                prev = acc.get(key)
                prod = prev[0] if prev else PauliString(p1.n, key[0], key[1])
                acc[key] = (prod, (prev[1] if prev else 0.0) + w1 * w2)
        return SiteChannel(first.site, pauli_mixture=tuple(acc.values()))
    k1 = first.kraus_ops()
    k2 = second.kraus_ops()
    return SiteChannel(first.site, kraus=tuple(b @ a for a in k1 for b in k2))


def compose_with_trace(layer: ChannelLayer, traced_region, q: int = 2) -> ChannelLayer:
    """Realizes a partial trace as a channel: complete depolarization on every
    traced site.  Every site channel is trace-preserving, so the trace absorbs
    the site's own channel.  It is the uniform transition matrix on a site
    whose channel is one, and on a traced site without a channel when the
    layer's first channel is one."""
    traced = frozenset(traced_region)

    def trace(site: int, like: SiteChannel | None) -> SiteChannel:
        if like is not None and like.transition is not None:
            return transition_channel(site, np.full((q, q), 1 / q))
        return complete_depolarization(site, q)

    out = [trace(c.site, c) if c.site in traced else c for c in layer.channels]
    first = layer.channels[0] if layer.channels else None
    return ChannelLayer(tuple(out + [trace(s, first) for s in sorted(traced - layer.sites)]))


def pauli_damping_profile(c: SiteChannel) -> dict[tuple[int, int], float]:
    """Factors f with E[P] = f(P) P for every Pauli P on the site.

    Works for conjugation mixtures directly; for Kraus channels the action
    is checked to be Pauli-diagonal first.
    """
    if c.pauli_mixture is not None:
        nq = c.pauli_mixture[0][0].n
        prof = {}
        for x in range(2**nq):
            for z in range(2**nq):
                p = PauliString(nq, x, z)
                f = 0.0
                for g, w in c.pauli_mixture:
                    f += w if p.commutes_with(g) else -w
                prof[(x, z)] = f
        return prof
    if c.kraus is not None:
        d = c.dim
        nq = d.bit_length() - 1
        if 2**nq != d:
            raise ValueError("channel dimension is not a qubit register")
        prof = {}
        for x in range(2**nq):
            for z in range(2**nq):
                p = PauliString(nq, x, z).to_matrix()
                img = sum(k @ p @ k.conj().T for k in c.kraus)
                f = np.trace(img @ p).real / d
                if np.max(np.abs(img - f * p)) > 1e-10:
                    raise ValueError(
                        "channel is not diagonal in the Pauli basis; use the dense engine"
                    )
                prof[(x, z)] = float(f)
        return prof
    raise ValueError("transition matrices have no Pauli damping profile; use the dense engine")


class CommutationCheck(enum.Enum):
    PRESERVED = "preserved"
    VIOLATED = "violated"
    INCONCLUSIVE = "inconclusive-within-cap"


def is_commutation_preserving(
    layer: ChannelLayer,
    h: LocalHamiltonian,
    budget: int = 200_000,
) -> CommutationCheck:
    """Brute-force falsifier for the commutation-preserving property.

    Enumerates products O_m of Hamiltonian terms (multiplicities mod 2 for
    Pauli terms, up to 2 otherwise), applies the layer's channels on every
    site subset S (of at most 3 sites when the model has more than 6), and
    checks all image pairs for commutation.  A finite enumeration can only
    falsify, so the outcomes are a tri-state: VIOLATED on a found
    counterexample, PRESERVED when every product and every image pair was
    checked and commutes, INCONCLUSIVE when the budget runs out first or the
    products were cut at 65.
    """
    from .dense import apply_layer_to_matrix, term_matrix

    g = h.site_graph
    subset_cap = g.n_sites if g.n_sites <= 6 else 3

    m = len(h.terms)
    all_pauli = h.all_pauli
    caps = [1 if all_pauli else 2] * m
    products: list[np.ndarray] = []
    combos = itertools.product(*(range(c + 1) for c in caps))
    # products of bare h_a (coefficient-free), which is what must stay commuting
    bare = [term_matrix(g, t, bare=True) for t in h.terms]
    truncated = False
    for mu in combos:
        if len(products) > 64:
            truncated = True
            break
        op = np.eye(g.dim, dtype=complex)
        for a, k in enumerate(mu):
            for _ in range(k):
                op = op @ bare[a]
        products.append(op)

    subsets = []
    sites = sorted(layer.sites)
    for r in range(0, subset_cap + 1):
        subsets.extend(itertools.combinations(sites, r))

    spent = 0
    for s in subsets:
        sub = ChannelLayer(tuple(c for c in layer.channels if c.site in s))
        images = []
        for op in products:
            spent += 1
            if spent > budget:
                return CommutationCheck.INCONCLUSIVE
            images.append(apply_layer_to_matrix(op, sub, g))
        for i in range(len(images)):
            for j in range(i + 1, len(images)):
                spent += 1
                if spent > budget:
                    return CommutationCheck.INCONCLUSIVE
                comm = images[i] @ images[j] - images[j] @ images[i]
                if np.max(np.abs(comm)) > 1e-10:
                    return CommutationCheck.VIOLATED
    return CommutationCheck.INCONCLUSIVE if truncated else CommutationCheck.PRESERVED


_CHANNEL_KEYS = {"site", "kind", "p", "matrix", "kraus"}


def parse_probability(p) -> float:
    """A channel's ``p``: a number (not a bool) in [0, 1]."""
    try:
        v = math.nan if isinstance(p, bool) else float(p)
    except (TypeError, ValueError):
        v = math.nan
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"channel p {p!r} is not a probability in [0, 1]")
    return v


def parse_channel(obj: dict, q: int = 2) -> SiteChannel:
    """One per-site channel object; the site must be an int >= 0 (whether it
    is in the model is the caller's check), and a missing key is named."""
    if not isinstance(obj, dict):
        raise ValueError(f"channel {obj!r} is not an object")
    unknown = set(obj) - _CHANNEL_KEYS
    if unknown:
        raise ValueError(f"unknown channel keys: {sorted(unknown)}")

    def field(key: str):
        if key not in obj:
            raise ValueError(f"channel {obj!r} has no {key!r}")
        return obj[key]

    site = require_int(field("site"), "channel site", 0)
    kind = field("kind")
    if kind == "dephasing":
        return dephasing(site, parse_probability(field("p")))
    if kind == "bitflip":
        return bitflip(site, parse_probability(field("p")))
    if kind == "depolarizing":
        return depolarizing(site, parse_probability(field("p")), q)
    if kind == "transition":
        return transition_channel(site, field("matrix"))
    if kind == "kraus":
        ks = tuple(
            np.array([[complex(re, im) for re, im in row] for row in k]) for k in field("kraus")
        )
        return SiteChannel(site, kraus=ks)
    raise ValueError(f"unknown channel kind {kind!r}")


def parse_layer(objs, q: int = 2) -> ChannelLayer:
    return ChannelLayer(tuple(parse_channel(o, q) for o in objs))
