import math
from types import SimpleNamespace

import numpy as np
import pytest

from hmnlab import experiments, zoo
from hmnlab.channels import ChannelLayer, transition_channel
from hmnlab.experiments import (
    DecayCurve,
    beta_critical,
    boundary_partition,
    cluster_gibbs_equivalence,
    cmi,
    decay_curve,
    evaluate_cmi,
    fit_markov_length,
    xi_analytic,
)
from hmnlab.model import HamiltonianTerm, LocalHamiltonian, SiteGraph, graph_distance
from hmnlab.zoo import build_model, cluster_chain
from tests.conftest import ising_diag_chain, theorem3_bound


def test_beta_critical_value():
    # 1 / (2 e (d+1) (1 + e (d-1))) at chain degree d = 2
    d = 2
    expect = 1.0 / (2 * math.e * (d + 1) * (1 + math.e * (d - 1)))
    assert beta_critical(2) == pytest.approx(expect)
    assert 0.016 < beta_critical(2) < 0.017


def test_xi_analytic_monotone_and_divergent():
    xs = [xi_analytic(b, 2) for b in (0.0, 0.001, 0.005, 0.01, 0.016)]
    assert xs[0] == 0.0
    assert all(a < b for a, b in zip(xs, xs[1:]))
    assert xi_analytic(beta_critical(2), 2) == math.inf
    assert xi_analytic(math.inf, 2) == math.inf


def test_engines_agree_on_shared_model():
    h = ising_diag_chain(4)
    from hmnlab.channels import ChannelLayer, transition_channel

    t = [[0.8, 0.2], [0.2, 0.8]]
    layer = ChannelLayer((transition_channel(1, t), transition_channel(2, t)))
    p = boundary_partition(4)
    c = evaluate_cmi(experiments.ENGINES["classical"].plan(h, layer, p.regions), 0.7, "classical")
    d = evaluate_cmi(experiments.ENGINES["dense"].plan(h, layer, p.regions), 0.7, "dense")
    assert c == pytest.approx(d, abs=1e-10)
    with pytest.raises(ValueError):
        evaluate_cmi(experiments.ENGINES["dense"].plan(h, layer, p.regions), 0.7, "magic")


def test_fit_markov_length_exact_exponential():
    curve = DecayCurve(0.1, "synthetic", "none")
    xi = 1.7
    for d in range(1, 7):
        curve.add(float(d), 0.5 * math.exp(-d / xi))
    fit = fit_markov_length(curve)
    assert fit.xi == pytest.approx(xi, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0)
    assert fit.slope_stderr == pytest.approx(0.0, abs=1e-15)
    assert not fit.diverged


def test_fit_slope_stderr_by_hand():
    """ln cmi = 0, -1, -1, -3 at d = 1..4: slope -0.9, intercept 1, residuals
    -0.1, -0.2, 0.7, -0.4, so SSR = 0.7, sum (d - 2.5)^2 = 5 and the slope's
    standard error is sqrt(0.7 / 2 / 5) = sqrt(0.07)."""
    curve = DecayCurve(0.1, "synthetic", "none")
    for d, y in zip(range(1, 5), (0.0, -1.0, -1.0, -3.0)):
        curve.add(float(d), math.exp(y))
    fit = fit_markov_length(curve)
    assert fit.xi == pytest.approx(1 / 0.9, rel=1e-12)
    assert fit.intercept == pytest.approx(1.0, rel=1e-12)
    assert fit.r_squared == pytest.approx(1 - 0.7 / 4.75, rel=1e-12)
    assert fit.slope_stderr == pytest.approx(math.sqrt(0.07), rel=1e-12)


def test_fit_flags_divergence_and_censors():
    curve = DecayCurve(math.inf, "synthetic", "none")
    for d in range(1, 5):
        curve.add(float(d), 1.0)
    curve.add(5.0, 1e-15)  # below floor, censored
    fit = fit_markov_length(curve)
    assert fit.diverged and fit.xi == math.inf
    assert fit.censored_points == 1 and fit.used_points == 4


def test_fit_needs_three_points():
    curve = DecayCurve(0.1, "synthetic", "none")
    curve.add(1.0, 0.5)
    curve.add(2.0, 0.25)
    with pytest.raises(ValueError, match="need >= 3"):
        fit_markov_length(curve)


def test_decay_curve_classical_ising():
    curve = decay_curve("ising_chain", "classical", 0.2, range(1, 6), 0.2)
    vals = [v for _, v in curve.points]
    assert all(a > b > 0 for a, b in zip(vals, vals[1:]))
    fit = fit_markov_length(curve)
    assert not fit.diverged and fit.r_squared > 0.98


def _channel_fields(c):
    """A site channel as plain values, so that two channels compare exactly."""
    return c.site, c.superop.tolist()


@pytest.mark.parametrize(
    "family, engine, beta, p",
    [
        ("ising_chain", "classical", 0.3, 0.1),
        ("ising_chain", "dense", 0.3, 0.1),
        ("ising_chain", "pauli", 0.3, 0.1),
        ("parity_chain", "classical", 1.0, 1.0),
        ("bell_chain", "pauli", 1.0, 1.0),
        ("cluster_chain", "pauli", 0.5, 0.2),
    ],
)
def test_decay_curve_layers_are_bulk_layer_prefixes(monkeypatch, family, engine, beta, p):
    """A curve builds one bulk layer: each distance's layer, a prefix of it,
    equals the (d+1)-site chain's own bulk layer channel by channel, and the
    points are those of one evaluate_cmi call per distance."""
    distances = range(2, 6)
    layers = []
    evaluate = experiments.evaluate_cmi

    def spy(plan, beta, engine):
        layers.append(plan.layer)
        return evaluate(plan, beta, engine)

    monkeypatch.setattr(experiments, "evaluate_cmi", spy)
    curve = decay_curve(family, engine, beta, distances, p)
    assert len(layers) == len(distances)
    expect = []
    for d, layer in zip(distances, layers):
        own = zoo.bulk_layer(family, d + 1, p)
        assert [_channel_fields(c) for c in layer.channels] == [_channel_fields(c) for c in own.channels]
        h = zoo.build_model(family, d + 1)
        plan = experiments.ENGINES[engine].plan(h, own, boundary_partition(d + 1).regions)
        expect.append((float(d), evaluate(plan, beta, engine)))
    assert curve.points == expect
    assert decay_curve(family, engine, beta, [], p).points == []


def test_markov_length_grows_with_beta():
    xis = []
    for beta in (0.1, 0.15, 0.2):
        curve = decay_curve("ising_chain", "classical", beta, range(1, 6), 0.2)
        xis.append(fit_markov_length(curve).xi)
    assert xis[0] < xis[1] < xis[2]


def test_parity_curve_flat_at_zero_temperature():
    curve = decay_curve("parity_chain", "classical", math.inf, range(2, 6))
    assert all(v == pytest.approx(1.0, abs=1e-10) for _, v in curve.points)
    assert fit_markov_length(curve).diverged


def test_bell_curve_flat_then_decaying():
    flat = decay_curve("bell_chain", "pauli", math.inf, range(2, 6))
    assert all(v == pytest.approx(2.0, abs=1e-9) for _, v in flat.points)
    warm = decay_curve("bell_chain", "pauli", 1.0, range(2, 6))
    fit = fit_markov_length(warm)
    assert not fit.diverged and fit.r_squared > 0.99


def test_an_unknown_engine_is_a_value_error():
    """decay_curve, evaluate_cmi and cluster_gibbs_equivalence look the engine
    up in one place, which raises ValueError for a name it lacks."""
    p = boundary_partition(3)
    plan = experiments.ENGINES["dense"].plan(build_model("ising_chain", 3), ChannelLayer(), p.regions)
    with pytest.raises(ValueError, match="unknown engine 'magic'"):
        decay_curve("ising_chain", "magic", 0.5, [1, 2])
    with pytest.raises(ValueError, match="unknown engine 'magic'"):
        evaluate_cmi(plan, 0.5, "magic")
    with pytest.raises(ValueError, match="unknown engine 'magic'"):
        cluster_gibbs_equivalence(4, 0.5, "magic")


def test_cluster_gibbs_equivalence_both_engines():
    for engine in ("dense", "pauli"):
        rep = cluster_gibbs_equivalence(5, 0.8, engine)
        assert rep["pass"], rep
        assert rep["p"] == pytest.approx(1 / (math.exp(1.6) + 1))


def test_theorem3_bound_closed_form():
    assert theorem3_bound(1, 0.0) == 2.0
    assert theorem3_bound(3, 0.0) == 6.0
    q = 1e-12
    expect = 2 - 4 * math.sqrt(q) - 3 * 1.5 ** (2 / 3) * q ** (1 / 6)
    assert theorem3_bound(1, q) == pytest.approx(expect, rel=1e-15)
    assert theorem3_bound(1, q) == pytest.approx(1.9606848790868667, rel=1e-12)


def test_theorem3_bound_monotone_and_floored():
    qs = np.logspace(-12, -2, 50)
    vals = [theorem3_bound(2, float(q)) for q in qs]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert theorem3_bound(1, 0.9) == 0.0  # floored
    with pytest.raises(ValueError):
        theorem3_bound(0, 0.1)


def test_low_temperature_demo_shapes():
    """At beta = inf the long-range chains keep their CMI at every distance:
    1 bit on the parity chain (classical), 2 bits on the Bell chain (pauli)."""
    for family, engine, bits in (("parity_chain", "classical", 1.0), ("bell_chain", "pauli", 2.0)):
        curve = decay_curve(family, engine, math.inf, range(2, 5))
        assert [d for d, _ in curve.points] == [2.0, 3.0, 4.0]
        assert [v for _, v in curve.points] == pytest.approx([bits] * 3, abs=1e-9)


def test_low_temperature_demo_takes_a_generator():
    """A one-shot generator of distances serves a whole curve."""
    for family, engine in (("parity_chain", "classical"), ("bell_chain", "pauli")):
        curve = decay_curve(family, engine, 1.0, (d for d in range(2, 5)))
        assert [d for d, _ in curve.points] == [2.0, 3.0, 4.0]


def test_cmi_policy_clamps_rounding_and_raises_below_tolerance():
    """One negative-CMI policy for every engine: raw values down to -1e-10
    read 0, lower ones raise."""
    p = boundary_partition(4)

    def engine(s_ab):  # S(AB) = s_ab, every other region entropy 0
        return SimpleNamespace(region_entropy=lambda state, r: s_ab if r == p.a | p.b else 0.0)

    assert cmi(engine(0.25), None, p.regions) == 0.25
    assert cmi(engine(-1e-11), None, p.regions) == 0.0
    with pytest.raises(AssertionError):
        cmi(engine(-1e-9), None, p.regions)


@pytest.mark.parametrize(
    "family, engine",
    [("ising_chain", "pauli"), ("ising_chain", "classical"), ("parity_chain", "classical"), ("bell_chain", "pauli")],
)
def test_chain_distance_is_the_dual_graph_distance(family, engine):
    """A decay point at distance d is a chain of d+1 sites; for families whose
    terms cover two sites, d is the dual-graph distance between its ends."""
    for d in range(1 if family == "ising_chain" else 2, 9):
        h = build_model(family, d + 1)
        experiments.ENGINES[engine].check(h)
        assert graph_distance(h, boundary_partition(d + 1)) == d


def test_cluster_chain_distance_is_the_chain_distance():
    """The cluster chain's three-site terms join the end sites of a chain of
    d+1 sites in fewer than d steps; the decay curve keeps d."""
    assert graph_distance(cluster_chain(6), boundary_partition(6)) == 3
    curve = decay_curve("cluster_chain", "pauli", 0.5, [2, 3, 4, 5], 0.2)
    assert [d for d, _ in curve.points] == [2.0, 3.0, 4.0, 5.0]


def _zz_ring(n):
    """ZZ bonds around a ring, lambda = -0.9: the closing bond makes the
    classical sweep's step 0 span every site, a wide step."""
    tbl = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return LocalHamiltonian(SiteGraph(n), tuple(HamiltonianTerm((i, (i + 1) % n), tbl, -0.9) for i in range(n)))


_FLIP = [[0.9, 0.2], [0.1, 0.8]]
STATE_ARRAY = {"classical": "probs", "dense": "entries", "pauli": "coeffs"}
READ_ONLY_CASES = {
    **{
        f"ising_{engine}": (engine, build_model("ising_chain", 6), zoo.bulk_layer("ising_chain", 6, 0.1))
        for engine in experiments.ENGINES
    },
    # Bell measurement keeps a subspace of the term group
    "bell_pauli": ("pauli", zoo.bell_chain(5), zoo.bulk_layer("bell_chain", 5, 1.0)),
    "zz_ring_classical": ("classical", _zz_ring(12), ChannelLayer(tuple(transition_channel(s, _FLIP) for s in (0, 3, 11)))),
}


def _pauli_indices(plan):
    """A pauli plan's damping tables, as bytes, and its region kernels."""
    return [(cs, f.tobytes()) for cs, f in plan.damping] + [list(r.kernel) for r in plan.regions]


@pytest.mark.parametrize("betas", [(0.3, 1.0), (math.inf, 100.0), (1.0, math.inf)])
@pytest.mark.parametrize("case", sorted(READ_ONLY_CASES))
def test_a_plan_is_read_only(case, betas):
    """One plan prepared at beta1, then beta2, then beta1 again, with the
    four entropies of I(A:C|B) taken of each state: both beta1 states and
    their entropies are byte-equal to each other and to a fresh plan's, and
    the pauli plan's damping tables and region kernels are unchanged, so no
    prepare or entropy writes the plan.  beta = inf and beta = 100 (past the
    classical sweep bound on both models) take the classical energy route;
    the 12-site ring's closing bond takes the sweep's wide step."""
    engine, h, layer = READ_ONLY_CASES[case]
    eng = experiments.ENGINES[engine]
    b1, b2 = betas
    regions = boundary_partition(h.site_graph.n_sites).regions
    plan = eng.plan(h, layer, regions)
    before = _pauli_indices(plan) if engine == "pauli" else None
    runs = [(plan, b) for b in (b1, b2, b1)] + [(eng.plan(h, layer, regions), b1)]
    states = [eng.prepare(p, b) for p, b in runs]
    entropies = [[eng.region_entropy(s, r) for r in p.regions] for s, (p, _) in zip(states, runs)]
    first, _, again, fresh = (getattr(s, STATE_ARRAY[engine]).tobytes() for s in states)
    assert first == again == fresh
    assert entropies[0] == entropies[2] == entropies[3]
    if engine == "pauli":
        assert states[0].generators == states[2].generators == states[3].generators
        assert _pauli_indices(plan) == before
