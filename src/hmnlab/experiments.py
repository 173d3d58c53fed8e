"""End-to-end studies: CMI decay curves, Markov-length fits, the long-range
chain demonstrations, the dephased-cluster-state equivalence, and the
low-temperature CMI lower-bound calculator."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import classical, dense, pauli, zoo
from .channels import ChannelLayer, dephasing
from .model import LocalHamiltonian, Partition, entropy_bits

CMI_FLOOR = 1e-12

# Each engine module has check(h), check_layer(layer), prepare(h, beta,
# layer) -> state and region_entropy(state, region) in bits.  The seam reads
# them as module attributes at call time, so a patched engine function is the
# one called.
ENGINES = {"classical": classical, "dense": dense, "pauli": pauli}


def beta_critical(degree: int) -> float:
    """Convergence threshold for the cluster expansion (the conservative,
    factor-2 version from the convergence analysis)."""
    return 1.0 / (2 * math.e * (degree + 1) * (1 + math.e * (degree - 1)))


def xi_analytic(beta: float, degree: int) -> float:
    """Decay length implied by the leading-order (beta/beta_c)^{d} scaling."""
    bc = beta_critical(degree)
    if beta >= bc:
        return math.inf
    return 1.0 / math.log(bc / beta)


def boundary_partition(n: int) -> Partition:
    """A = first site, C = last site, B = everything between."""
    return Partition(frozenset({0}), frozenset(range(1, n - 1)), frozenset({n - 1}))


def cmi(engine, state, p: Partition) -> float:
    """I(A:C|B) = S(AB) + S(BC) - S(B) - S(ABC) in bits for a state of the
    engine module ``engine``.  A raw value below -1e-10 raises; smaller
    negatives are rounding and read 0."""
    s = engine.region_entropy
    raw = s(state, p.a | p.b) + s(state, p.b | p.c) - s(state, p.b) - s(state, p.abc)
    if raw < -1e-10:
        raise AssertionError(f"CMI came out {raw} < -1e-10")
    return max(raw, 0.0)


def evaluate_cmi(
    h: LocalHamiltonian, beta: float, layer: ChannelLayer, p: Partition, engine: str
) -> float:
    """One CMI evaluation (bits) on the named engine."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    eng = ENGINES[engine]
    return cmi(eng, eng.prepare(h, beta, layer), p)


@dataclass
class DecayCurve:
    beta: float
    model: str
    engine: str
    points: list = field(default_factory=list)  # (distance, cmi bits)

    def add(self, distance: float, cmi: float):
        if self.points and distance <= self.points[-1][0]:
            raise ValueError("distances must be strictly increasing")
        self.points.append((distance, cmi))


@dataclass
class MarkovLengthFit:
    xi: float
    intercept: float
    r_squared: float
    used_points: int
    censored_points: int
    diverged: bool


def fit_markov_length(curve: DecayCurve) -> MarkovLengthFit:
    """Least squares on (d, ln cmi); slope >= -1e-3 flags divergence
    (no decay / long-range CMI)."""
    usable = [(d, v) for d, v in curve.points if v > CMI_FLOOR and math.isfinite(d)]
    censored = len(curve.points) - len(usable)
    if len(usable) < 3:
        raise ValueError(f"only {len(usable)} points above floor; need >= 3")
    x = np.array([d for d, _ in usable])
    y = np.log([v for _, v in usable])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - float((resid**2).sum()) / ss_tot
    diverged = bool(slope >= -1e-3)
    xi = math.inf if diverged else float(-1.0 / slope)
    return MarkovLengthFit(xi, float(intercept), r2, len(usable), censored, diverged)


def decay_curve(
    family: str,
    engine: str,
    beta: float,
    distances,
    channel_p: float = 1.0,
) -> DecayCurve:
    """CMI against the chain distance d: a chain of d+1 sites, A and C its end
    sites, the family's bulk channel on B.  d is the dual-graph distance on
    every family but ``cluster_chain``, whose terms cover three sites."""
    curve = DecayCurve(beta, family, engine)
    for d in distances:
        n = int(d) + 1
        h = zoo.build_model(family, n, engine)
        layer = zoo.bulk_layer(family, n, channel_p, engine)
        curve.add(float(d), evaluate_cmi(h, beta, layer, boundary_partition(n), engine))
    return curve


def cluster_gibbs_equivalence(n: int, beta: float, engine: str = "dense") -> dict:
    """Check that the thermal state of the cluster-state Hamiltonian equals
    the zero-temperature cluster state pushed through per-site dephasing of
    strength p = 1/(e^{2 beta}+1)."""
    h = zoo.cluster_chain(n)
    p = 1.0 / (math.exp(2 * beta) + 1.0)
    layer = ChannelLayer(tuple(dephasing(s, p) for s in range(n)))
    if engine not in ("dense", "pauli"):
        raise ValueError(f"unknown engine {engine!r}")
    thermal = ENGINES[engine].prepare(h, beta, ChannelLayer())
    dephased = ENGINES[engine].prepare(h, math.inf, layer)
    if engine == "dense":
        diff = np.linalg.eigvalsh(thermal.entries - dephased.entries)
        dist = 0.5 * float(np.abs(diff).sum())
    else:  # both expansions come from h, so they share generators and index
        dist = float(np.max(np.abs(thermal.coeffs - dephased.coeffs)))
    return {
        "n": n,
        "beta": beta,
        "p": p,
        "engine": engine,
        "metric": "trace_distance" if engine == "dense" else "max_coeff_dev",
        "distance": dist,
        "pass": dist <= 1e-10,
    }


def binary_entropy(d: float) -> float:
    """H(D) = -D log2 D - (1-D) log2 (1-D), the Fannes-Audenaert helper."""
    if not 0.0 <= d <= 1.0:
        raise ValueError("argument must lie in [0, 1]")
    return entropy_bits([d, 1 - d])


def theorem3_bound(k: int, q: float) -> float:
    """Proof-constant lower bound on the CMI retained across a noisy logical
    interface: 2k minus the trace-distance (Fannes-Audenaert) term 4k sqrt(q)
    minus the measurement-entropy term 3 (3/2)^{2/3} q^{1/6}; floored at 0.
    This uses the explicit proof constants and is not claimed tight."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    val = 2 * k - 4 * k * math.sqrt(q) - 3 * (1.5) ** (2 / 3) * q ** (1 / 6)
    return max(val, 0.0)


def low_temperature_chain_demo(distances, betas) -> dict:
    """Parity chain (classical) and Bell chain (quantum) CMI against distance
    for each beta; at beta = inf the curves sit at the long-range values 1
    and 2, at finite beta they decay with a finite fitted length."""
    out = {"parity_chain": [], "bell_chain": []}
    for beta in betas:
        c = decay_curve("parity_chain", "classical", beta, distances)
        out["parity_chain"].append(c)
        q = decay_curve("bell_chain", "pauli", beta, distances)
        out["bell_chain"].append(q)
    return out
