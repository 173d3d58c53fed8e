"""Built-in model families.

Chains are keyed by ids like ``ising_chain_n8``; each family also knows its
canonical noise channel so experiments and the CLI need no external files.

Bit conventions for the two-bit (q = 4) sites: value a encodes bits
(u, v) = (a >> 1, a & 1); u is the bit facing the previous site, v the bit
facing the next one, so every link (i, i+1) couples v_i with u_{i+1}.
"""

from __future__ import annotations

import re

import numpy as np

from .channels import (
    ChannelLayer,
    SiteChannel,
    bell_measurement,
    bitflip,
    dephasing,
    transition_channel,
)
from .model import HamiltonianTerm, LocalHamiltonian, PauliString, SiteGraph

def ising_chain(n: int) -> LocalHamiltonian:
    """Ferromagnetic ZZ chain, lambda = -1 per bond, as Z-only strings."""
    terms = (HamiltonianTerm((i, i + 1), PauliString(n, 0, 3 << i), -1.0) for i in range(n - 1))
    return LocalHamiltonian(SiteGraph(n), tuple(terms))


def parity_chain(n: int) -> LocalHamiltonian:
    """Chain of two-bit sites where each link carries a perfectly correlated
    bit pair (v_i with u_{i+1}); diagonal terms, classical engine."""
    if n < 3:
        raise ValueError("parity chain needs at least 3 sites")
    g = SiteGraph(n, q=4)
    table = np.zeros((4, 4))
    for a in range(4):
        for b in range(4):
            table[a, b] = 1.0 if (a & 1) != (b >> 1) else -1.0
    terms = tuple(HamiltonianTerm((i, i + 1), table, 1.0) for i in range(n - 1))
    return LocalHamiltonian(g, terms)


def parity_channel(site: int) -> SiteChannel:
    """Deterministically replaces a two-bit site value by NOT(u xor v)
    (stored in the low bit), discarding everything else."""
    t = np.zeros((4, 4))
    for a in range(4):
        t[1 - ((a >> 1) ^ (a & 1)), a] = 1.0
    return transition_channel(site, t)


def bell_chain(n: int) -> LocalHamiltonian:
    """Chain of two-qubit sites with a Bell pair on every link: XX and ZZ
    stabilizers on (v-qubit of i, u-qubit of i+1), lambda = -1."""
    if n < 3:
        raise ValueError("bell chain needs at least 3 sites")
    terms = []
    for i in range(n - 1):
        link = 3 << (2 * i + 1)  # the v qubit of site i and the u qubit of site i + 1
        terms += [HamiltonianTerm((i, i + 1), PauliString(2 * n, x, z), -1.0) for x, z in ((link, 0), (0, link))]
    return LocalHamiltonian(SiteGraph(n, q=4), tuple(terms))


def cluster_chain(n: int) -> LocalHamiltonian:
    """1D cluster-state Hamiltonian H = -sum_i Z_{i-1} X_i Z_{i+1} (open
    boundaries), whose beta -> inf Gibbs state is the cluster state."""
    terms = []
    for i in range(n):
        sup = tuple(range(max(i - 1, 0), min(i + 2, n)))
        z = sum(1 << s for s in sup if s != i)
        terms.append(HamiltonianTerm(sup, PauliString(n, 1 << i, z), -1.0))
    return LocalHamiltonian(SiteGraph(n), tuple(terms))


# a family's id is its builder's name, and every builder takes n alone
_BUILDERS = {f.__name__: f for f in (ising_chain, parity_chain, bell_chain, cluster_chain)}
FAMILIES = tuple(_BUILDERS)


def build_model(family: str, n: int) -> LocalHamiltonian:
    if family not in _BUILDERS:
        raise ValueError(f"unknown model family {family!r}")
    return _BUILDERS[family](n)


# each family's bulk channel, the noise it is studied under: its config
# ``kind`` and its constructor (site, p).  The parity and Bell chains have a
# fixed read-out channel (parity read-out, Bell measurement) and take no kind
BULK = {
    "ising_chain": ("bitflip", bitflip),
    "cluster_chain": ("dephasing", dephasing),
    "parity_chain": (None, lambda site, p: parity_channel(site)),
    "bell_chain": (None, lambda site, p: bell_measurement(site)),
}


def bulk_layer(family: str, n: int, p: float) -> ChannelLayer:
    if family not in BULK:
        raise ValueError(f"unknown model family {family!r}")
    return ChannelLayer(tuple(BULK[family][1](s, p) for s in range(1, n - 1)))


_ID_RE = re.compile(r"^([a-z_]+)_n(\d+)$")


def parse_model_id(model_id: str) -> tuple[str, int]:
    m = _ID_RE.match(model_id)
    if not m or m.group(1) not in FAMILIES:
        raise ValueError(f"unknown builtin model id {model_id!r}")
    return m.group(1), int(m.group(2))
