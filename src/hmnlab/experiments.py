"""The engine seam and the studies ``hmnlab run`` computes: CMI decay curves,
Markov-length fits with the regime the decay proof covers (its convergence
threshold beta_c and the decay length it implies), and the
dephased-cluster-state equivalence."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import classical, dense, pauli, zoo
from .channels import ChannelLayer, dephasing
from .model import Partition

CMI_FLOOR = 1e-12

class _Engines(dict):  # ENGINES[name] raises ValueError for a name it lacks
    def __missing__(self, name):
        raise ValueError(f"unknown engine {name!r}")


# Each engine module has check(h), plan(h, layer, regions) -> a named plan
# (check, the layer's checks, every index a beta leaves unchanged, and the
# site sets ``regions`` in the engine's form), prepare(plan, beta) -> state
# and region_entropy(state, one of plan.regions) in bits.  The seam reads them
# as module attributes at call time, so a patched engine function is the one called.
ENGINES = _Engines(classical=classical, dense=dense, pauli=pauli)


def beta_critical(degree: int) -> float:
    """Convergence threshold for the cluster expansion (the conservative,
    factor-2 version from the convergence analysis)."""
    return 1.0 / (2 * math.e * (degree + 1) * (1 + math.e * (degree - 1)))


def xi_analytic(beta: float, degree: int) -> float:
    """Decay length implied by the leading-order (beta/beta_c)^{d} scaling:
    inf from beta_c up, 0 at beta = 0."""
    bc = beta_critical(degree)
    if beta >= bc:
        return math.inf
    return 1.0 / math.log(bc / beta) if beta > 0 else 0.0


def boundary_partition(n: int) -> Partition:
    """A = first site, C = last site, B = everything between."""
    return Partition(frozenset({0}), frozenset(range(1, n - 1)), frozenset({n - 1}))


def cmi(engine, state, regions) -> float:
    """I(A:C|B) = S(AB) + S(BC) - S(B) - S(ABC) in bits for a state of the
    engine module ``engine`` and its ``regions`` (AB, BC, B, ABC).  A raw
    value below -1e-10 raises; smaller negatives are rounding and read 0."""
    ab, bc, b, abc = (engine.region_entropy(state, r) for r in regions)
    raw = ab + bc - b - abc
    if raw < -1e-10:
        raise AssertionError(f"CMI came out {raw} < -1e-10")
    return max(raw, 0.0)


def evaluate_cmi(plan, beta: float, engine: str) -> float:
    """One CMI evaluation (bits) on the regions of a plan the named engine made."""
    eng = ENGINES[engine]
    return cmi(eng, eng.prepare(plan, beta), plan.regions)


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
    slope_stderr: float
    used_points: int
    censored_points: int
    diverged: bool


def fit_markov_length(curve: DecayCurve) -> MarkovLengthFit:
    """Least squares on (d, ln cmi); slope >= -1e-3 flags divergence
    (no decay / long-range CMI).  The slope's standard error is
    sqrt(SSR / (N - 2) / sum (x - mean x)^2) over the N used points."""
    usable = [(d, v) for d, v in curve.points if v > CMI_FLOOR and math.isfinite(d)]
    censored = len(curve.points) - len(usable)
    if len(usable) < 3:
        raise ValueError(f"only {len(usable)} points above floor; need >= 3")
    x = np.array([d for d, _ in usable])
    y = np.log([v for _, v in usable])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ssr = float((resid**2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ssr / ss_tot
    stderr = math.sqrt(ssr / (len(usable) - 2) / float(((x - x.mean()) ** 2).sum()))
    diverged = bool(slope >= -1e-3)
    xi = math.inf if diverged else float(-1.0 / slope)
    return MarkovLengthFit(xi, float(intercept), r2, stderr, len(usable), censored, diverged)


def decay_points(family: str, distances, bulk: ChannelLayer) -> list:
    """One (distance, model, layer, partition) per chain distance d: a chain
    of d+1 sites, A and C its end sites, the family's bulk channel on B.  d is
    the dual-graph distance on every family but ``cluster_chain``, whose
    terms cover three sites.  ``bulk`` is the longest chain's bulk layer:
    each bulk channel depends on its site alone, so the (d+1)-site chain's
    layer on sites 1..d-1 is its first d-1 channels."""
    return [
        (float(d), zoo.build_model(family, d + 1), ChannelLayer(bulk.channels[: d - 1]), boundary_partition(d + 1))
        for d in map(int, distances)
    ]


def decay_curve(
    family: str,
    engine: str,
    beta: float,
    distances,
    channel_p: float = 1.0,
) -> DecayCurve:
    """CMI against the chain distance d at ``decay_points``, each planned."""
    distances = list(distances)
    curve = DecayCurve(beta, family, engine)
    bulk = zoo.bulk_layer(family, int(max(distances, default=0)) + 1, channel_p)
    for d, h, layer, p in decay_points(family, distances, bulk):
        curve.add(d, evaluate_cmi(ENGINES[engine].plan(h, layer, p.regions), beta, engine))
    return curve


def cluster_gibbs_equivalence(n: int, beta: float, engine: str) -> dict:
    """Check that the thermal state of the cluster-state Hamiltonian equals
    the zero-temperature cluster state pushed through per-site dephasing of
    strength p = 1/(e^{2 beta}+1)."""
    h = zoo.cluster_chain(n)
    try:
        p = 1.0 / (math.exp(2 * beta) + 1.0)
    except OverflowError:  # then 1 + e^{-2 beta} rounds to 1
        p = math.exp(-2 * beta)
    layer = ChannelLayer(tuple(dephasing(s, p) for s in range(n)))
    eng = ENGINES[engine]  # classical's plan refuses the X terms
    plan = eng.plan(h, ChannelLayer(), ())
    thermal = eng.prepare(plan, beta)
    if engine == "dense":
        dephased = dense.apply_layer(dense.gibbs_state(h, math.inf), layer)
        diff = np.linalg.eigvalsh(thermal.entries - dephased.entries)
        dist = 0.5 * float(np.abs(diff).sum())
    else:  # both on h's whole term group, where the layer zeroes what it drops
        tables = pauli.damping(h.site_graph, plan.basis, layer)
        dist = float(np.max(np.abs(thermal.coeffs - pauli.damp(pauli.expand_gibbs(plan, math.inf).coeffs, tables))))
    return {
        "n": n,
        "beta": beta,
        "p": p,
        "engine": engine,
        "metric": "trace_distance" if engine == "dense" else "max_coeff_dev",
        "distance": dist,
        "pass": dist <= 1e-10,
    }
