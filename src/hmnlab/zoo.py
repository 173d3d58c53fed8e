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

FAMILIES = ("ising_chain", "parity_chain", "bell_chain", "cluster_chain")


def ising_chain(n: int, kind: str = "pauli") -> LocalHamiltonian:
    """Ferromagnetic ZZ chain, lambda = -1 per bond."""
    g = SiteGraph(n)
    terms = []
    for i in range(n - 1):
        if kind == "pauli":
            op = PauliString.from_label("I" * i + "ZZ" + "I" * (n - i - 2))
        elif kind == "diag":
            op = np.array([[1.0, -1.0], [-1.0, 1.0]])
        else:
            raise ValueError(f"unknown kind {kind!r}")
        terms.append(HamiltonianTerm((i, i + 1), op, -1.0))
    return LocalHamiltonian(g, tuple(terms))


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
    g = SiteGraph(n, q=4)
    terms = []
    for i in range(n - 1):
        for letter in ("X", "Z"):
            label = ["I"] * g.n_qubits
            label[2 * i + 1] = label[2 * i + 2] = letter
            terms.append(HamiltonianTerm((i, i + 1), PauliString.from_label("".join(label)), -1.0))
    return LocalHamiltonian(g, tuple(terms))


def cluster_chain(n: int) -> LocalHamiltonian:
    """1D cluster-state Hamiltonian H = -sum_i Z_{i-1} X_i Z_{i+1} (open
    boundaries), whose beta -> inf Gibbs state is the cluster state."""
    terms = []
    for i in range(n):
        sup = tuple(range(max(i - 1, 0), min(i + 2, n)))
        label = "".join("X" if s == i else "Z" if s in sup else "I" for s in range(n))
        terms.append(HamiltonianTerm(sup, PauliString.from_label(label), -1.0))
    return LocalHamiltonian(SiteGraph(n), tuple(terms))


def build_model(family: str, n: int, engine: str = "auto") -> LocalHamiltonian:
    if family == "ising_chain":
        return ising_chain(n, "diag" if engine == "classical" else "pauli")
    if family == "parity_chain":
        return parity_chain(n)
    if family == "bell_chain":
        return bell_chain(n)
    if family == "cluster_chain":
        return cluster_chain(n)
    raise ValueError(f"unknown model family {family!r}")


# the config ``kind`` of each family's bulk channel; the parity and Bell
# chains have a fixed read-out channel and take no kind
BULK_KIND = {"ising_chain": "bitflip", "cluster_chain": "dephasing"}


def default_bulk_channel(
    family: str, site: int, p: float = 1.0, engine: str = "auto"
) -> SiteChannel:
    """The noise each family is studied under: parity read-out, Bell
    measurement, bit-flip, or dephasing."""
    if family == "parity_chain":
        return parity_channel(site)
    if family == "bell_chain":
        return bell_measurement(site)
    if family == "ising_chain":
        if engine == "classical":
            return transition_channel(site, [[1 - p, p], [p, 1 - p]])
        return bitflip(site, p)
    if family == "cluster_chain":
        return dephasing(site, p)
    raise ValueError(f"unknown model family {family!r}")


def bulk_layer(family: str, n: int, p: float = 1.0, engine: str = "auto") -> ChannelLayer:
    return ChannelLayer(
        tuple(default_bulk_channel(family, s, p, engine) for s in range(1, n - 1))
    )


_ID_RE = re.compile(r"^([a-z_]+)_n(\d+)$")


def parse_model_id(model_id: str) -> tuple[str, int]:
    m = _ID_RE.match(model_id)
    if not m or m.group(1) not in FAMILIES:
        raise ValueError(f"unknown builtin model id {model_id!r}")
    return m.group(1), int(m.group(2))
