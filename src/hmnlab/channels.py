"""Per-site channels and the channel-class checks.

A "site" is the q-dimensional cell of the site graph, so a channel on a
q=4 site may touch two qubits while still being single-site in the sense
of the decay theorems.

Conventions (fixed repo-wide):

* a channel is its superoperator S[i, j, k, l], which sends the site's
  ket-bra entry (k, l) to (i, j);
* transition matrices are column-stochastic, ``T[out, in]``, the channel
  on diagonal states: T[i, k] = S[i, i, k, k];
* depolarizing: rho -> (1-p) rho + p I/q, so p=1 is the complete
  depolarization that realizes a partial trace;
* dephasing(p): rho -> (1-p) rho + p Z rho Z; bitflip likewise with X.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .model import LocalHamiltonian, PauliString, is_number, require_array, require_int

_TOL = 1e-12


@dataclass(frozen=True)
class SiteChannel:
    """Channel acting on one site as its superoperator: ``superop[i, j, k,
    l]`` sends the site's ket-bra entry (k, l) to (i, j).  The dense engine
    contracts it as it is; the classical and pauli engines read their forms
    off it, once per channel, and take the channel exactly when that form
    exists.  A superoperator whose imaginary part is exactly 0 is stored as
    float64, so that it maps real matrices to real ones in real arithmetic."""

    site: int
    superop: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.superop)
        if np.iscomplexobj(s) and not s.imag.any():
            object.__setattr__(self, "superop", np.ascontiguousarray(s.real))

    @property
    def dim(self) -> int:
        return self.superop.shape[0]

    @cached_property
    def transition(self) -> np.ndarray:
        """T[i, k] = S[i, i, k, k], the classical engine's form: the channel
        on diagonal states, which it must keep diagonal."""
        q = self.dim
        # images[i * q + j, k] = S[i, j, k, k], entry (i, j) of the image of |k><k|
        images = self.superop.reshape(q * q, q * q)[:, :: q + 1]
        off = np.abs(images)
        off[:: q + 1] = 0
        if off.max() > _TOL:
            raise ValueError("classical engine needs channels that keep diagonal states diagonal")
        return np.ascontiguousarray(images[:: q + 1].real)

    @cached_property
    def pauli_table(self) -> np.ndarray:
        """The pauli engine's form, ``pauli_damping_profile`` of the channel."""
        return pauli_damping_profile(self)


@lru_cache(maxsize=None)
def _paulis(nq: int) -> tuple[np.ndarray, np.ndarray]:
    """The 4^nq Pauli matrices on nq qubits, indexed (x << nq) | z, and their
    superoperators P (x) conj(P), each flattened to one row."""
    ps = np.array([PauliString(nq, v >> nq, v & ((1 << nq) - 1)).to_matrix() for v in range(4**nq)])
    return ps, np.einsum("pik,pjl->pijkl", ps, ps.conj()).reshape(4**nq, -1)


def pauli_mixture(site: int, weights) -> SiteChannel:
    """rho -> sum_P w_P P rho P over the Pauli strings P on the site's nq
    qubits, from their 4^nq weights indexed (x << nq) | z."""
    w = np.asarray(weights, dtype=float)
    if not (w.min() >= -_TOL and abs(w.sum() - 1) <= 1e-10):  # NaN fails too
        raise ValueError("Pauli mixture probabilities must sum to 1")
    nq = (w.size.bit_length() - 1) // 2
    return SiteChannel(site, (w @ _paulis(nq)[1]).reshape((2**nq,) * 4))


def dephasing(site: int, p: float) -> SiteChannel:
    return pauli_mixture(site, (1 - p, p, 0.0, 0.0))


def bitflip(site: int, p: float) -> SiteChannel:
    return pauli_mixture(site, (1 - p, 0.0, p, 0.0))


def depolarizing(site: int, p: float, q: int) -> SiteChannel:
    """rho -> (1-p) rho + p Tr(rho) I/q on a site of any dimension q."""
    eye = np.eye(q)
    keep, replace = np.einsum("ik,jl->ijkl", eye, eye), np.einsum("ij,kl->ijkl", eye, eye)
    return SiteChannel(site, (1 - p) * keep + (p / q) * replace)


def complete_depolarization(site: int, q: int) -> SiteChannel:
    return depolarizing(site, 1.0, q)


def bell_measurement(site: int) -> SiteChannel:
    """Measurement of the XX and ZZ stabilizers on a two-qubit site: the
    uniform conjugation mixture over the group they generate, II, XX, ZZ and
    XX ZZ = -YY, each with weight 1/4."""
    w = np.zeros(16)
    w[[0b0000, 0b1100, 0b0011, 0b1111]] = 0.25  # (x << 2) | z of II, XX, ZZ, YY
    return pauli_mixture(site, w)


def transition_channel(site: int, matrix) -> SiteChannel:
    """A column-stochastic T[out, in] as the channel that sends |k><k| to
    sum_i T[i, k] |i><i| and every off-diagonal entry to 0."""
    t = np.asarray(matrix, dtype=float)
    if t.ndim != 2 or t.shape[0] != t.shape[1] or t.size == 0:
        raise ValueError(f"transition matrix of shape {t.shape} is not square")
    if not np.all(np.isfinite(t)):
        raise ValueError("transition matrix has a non-finite entry")
    if np.any(t < -_TOL) or np.max(np.abs(t.sum(axis=0) - 1)) > 1e-10:
        raise ValueError("transition matrix must be column-stochastic")
    r = np.arange(t.shape[0])
    s = np.zeros(t.shape * 2)
    s[r[:, None], r[:, None], r, r] = t
    return SiteChannel(site, s)


def kraus_channel(site: int, ops) -> SiteChannel:
    """rho -> sum_K K rho K^+ for trace-preserving Kraus operators K:
    S = sum_K K (x) conj(K)."""
    ks = [np.asarray(k, dtype=complex) for k in ops]
    d = ks[0].shape[0] if ks else 0
    if d == 0 or any(k.shape != (d, d) for k in ks):
        raise ValueError("Kraus operators must be square matrices of one size")
    ks = np.array(ks)
    if not np.all(np.isfinite(ks)):
        raise ValueError("Kraus operator has a non-finite entry")
    s = np.einsum("aik,ajl->ijkl", ks, ks.conj())
    if np.max(np.abs(np.einsum("iikl->kl", s) - np.eye(d))) > 1e-10:
        raise ValueError("Kraus operators are not trace-preserving")
    return SiteChannel(site, s)


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


def is_unital(c: SiteChannel) -> bool:
    """E[I] = I: sum_k S[i, j, k, k] = delta_ij."""
    return bool(np.max(np.abs(np.einsum("ijkk->ij", c.superop) - np.eye(c.dim))) <= 1e-10)


def compose_with_trace(layer: ChannelLayer, traced_region, q: int) -> ChannelLayer:
    """Realizes a partial trace as a channel: complete depolarization on every
    traced site.  Every site channel is trace-preserving, so the trace absorbs
    the site's own channel."""
    traced = frozenset(traced_region)
    out = [complete_depolarization(c.site, q) if c.site in traced else c for c in layer.channels]
    return ChannelLayer(tuple(out + [complete_depolarization(s, q) for s in sorted(traced - layer.sites)]))


def pauli_damping_profile(c: SiteChannel) -> np.ndarray:
    """Factors f with E[P] = f[(x << nq) | z] P for every Pauli P with X bits
    x and Z bits z on the site's nq qubits, as one table of 4^nq floats.

    The images of all 4^nq Paulis are one contraction with the
    superoperator; each factor is read at the one nonzero entry of P's row
    0, an exact product, once every image is checked to be f P.
    """
    d = c.dim
    nq = d.bit_length() - 1
    if 2**nq != d:
        raise ValueError("channel dimension is not a qubit register")
    paulis = _paulis(nq)[0]
    images = np.tensordot(paulis, c.superop, ([1, 2], [2, 3]))
    table = (paulis[:, 0].conj() * images[:, 0]).sum(axis=1).real
    if np.max(np.abs(images - table[:, None, None] * paulis)) > 1e-10:
        raise ValueError("channel is not diagonal in the Pauli basis; use the dense engine")
    return table


class CommutationCheck(enum.Enum):
    PRESERVED = "preserved"
    VIOLATED = "violated"
    INCONCLUSIVE = "inconclusive-within-cap"


def is_commutation_preserving(
    layer: ChannelLayer,
    h: LocalHamiltonian,
    budget: int,
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
    bare = [term_matrix(g, t) for t in h.terms]
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


# the key each channel kind reads besides site and kind
_READS = {"dephasing": "p", "bitflip": "p", "depolarizing": "p", "transition": "matrix", "kraus": "kraus"}
_CHANNEL_KEYS = {"site", "kind", *_READS.values()}


def parse_probability(p) -> float:
    """A channel's ``p``: a number (not a bool or a string) in [0, 1]."""
    if not (is_number(p) and 0.0 <= p <= 1.0):
        raise ValueError(f"channel p {p!r} is not a probability in [0, 1]")
    return float(p)


def parse_channel(obj: dict, q: int) -> SiteChannel:
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
    if not isinstance(kind, str) or kind not in _READS:
        raise ValueError(f"unknown channel kind {kind!r}")
    unread = sorted(set(obj) - {"site", "kind", _READS[kind]})
    if unread:
        raise ValueError(f"channel kind {kind!r} does not read {unread}")
    if kind == "transition":
        return transition_channel(site, require_array(field("matrix"), "channel matrix", "a matrix of numbers"))
    if kind == "kraus":
        form = "a list of matrices of [re, im] pairs"
        k = require_array(field("kraus"), "channel kraus", form)
        if k.ndim != 4 or k.shape[-1] != 2:
            raise ValueError(f"channel kraus {obj['kraus']!r} is not {form}")
        return kraus_channel(site, k[..., 0] + 1j * k[..., 1])
    p = parse_probability(field("p"))
    if kind == "depolarizing":
        return depolarizing(site, p, q)
    return dephasing(site, p) if kind == "dephasing" else bitflip(site, p)


def parse_layer(objs, q: int) -> ChannelLayer:
    return ChannelLayer(tuple(parse_channel(o, q) for o in objs))
