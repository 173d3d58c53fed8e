import math
from types import SimpleNamespace

import numpy as np
import pytest

from hmnlab import experiments
from hmnlab.experiments import (
    DecayCurve,
    beta_critical,
    binary_entropy,
    boundary_partition,
    cluster_gibbs_equivalence,
    cmi,
    decay_curve,
    evaluate_cmi,
    fit_markov_length,
    theorem3_bound,
    xi_analytic,
)
from hmnlab.model import graph_distance
from hmnlab.zoo import build_model, cluster_chain
from tests.conftest import ising_diag_chain


def test_beta_critical_value():
    # 1 / (2 e (d+1) (1 + e (d-1))) at chain degree d = 2
    d = 2
    expect = 1.0 / (2 * math.e * (d + 1) * (1 + math.e * (d - 1)))
    assert beta_critical(2) == pytest.approx(expect)
    assert 0.016 < beta_critical(2) < 0.017


def test_xi_analytic_monotone_and_divergent():
    xs = [xi_analytic(b, 2) for b in (0.001, 0.005, 0.01, 0.016)]
    assert all(a < b for a, b in zip(xs, xs[1:]))
    assert xi_analytic(beta_critical(2), 2) == math.inf


def test_engines_agree_on_shared_model():
    h = ising_diag_chain(4)
    from hmnlab.channels import ChannelLayer, transition_channel

    t = [[0.8, 0.2], [0.2, 0.8]]
    layer = ChannelLayer((transition_channel(1, t), transition_channel(2, t)))
    p = boundary_partition(4)
    c = evaluate_cmi(h, 0.7, layer, p, "classical")
    d = evaluate_cmi(h, 0.7, layer, p, "dense")
    assert c == pytest.approx(d, abs=1e-10)
    with pytest.raises(ValueError):
        evaluate_cmi(h, 0.7, layer, p, "magic")


def test_fit_markov_length_exact_exponential():
    curve = DecayCurve(0.1, "synthetic", "none")
    xi = 1.7
    for d in range(1, 7):
        curve.add(float(d), 0.5 * math.exp(-d / xi))
    fit = fit_markov_length(curve)
    assert fit.xi == pytest.approx(xi, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0)
    assert not fit.diverged


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


def test_cluster_gibbs_equivalence_both_engines():
    for engine in ("dense", "pauli"):
        rep = cluster_gibbs_equivalence(5, 0.8, engine)
        assert rep["pass"], rep
        assert rep["p"] == pytest.approx(1 / (math.exp(1.6) + 1))


def test_binary_entropy():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    with pytest.raises(ValueError):
        binary_entropy(1.5)


def test_theorem3_bound_closed_form():
    assert theorem3_bound(1, 0.0) == 2.0
    assert theorem3_bound(3, 0.0) == 6.0
    q = 1e-12
    expect = 2 - 4 * math.sqrt(q) - 3 * 1.5 ** (2 / 3) * q ** (1 / 6)
    assert theorem3_bound(1, q) == pytest.approx(expect, rel=1e-15)
    assert theorem3_bound(1, q) == pytest.approx(1.9606848790868667, rel=1e-12)


def test_theorem3_bound_monotone_and_floored():
    qs = np.logspace(-12, -2, 30)
    vals = [theorem3_bound(2, float(q)) for q in qs]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert theorem3_bound(1, 0.9) == 0.0  # floored
    with pytest.raises(ValueError):
        theorem3_bound(0, 0.1)


def test_low_temperature_demo_shapes():
    out = experiments.low_temperature_chain_demo(range(2, 5), [math.inf])
    assert set(out) == {"parity_chain", "bell_chain"}
    for fam, curves in out.items():
        assert len(curves) == 1 and len(curves[0].points) == 3


def test_cmi_policy_clamps_rounding_and_raises_below_tolerance():
    """One negative-CMI policy for every engine: raw values down to -1e-10
    read 0, lower ones raise."""
    p = boundary_partition(4)

    def engine(s_ab):  # S(AB) = s_ab, every other region entropy 0
        return SimpleNamespace(region_entropy=lambda state, r: s_ab if r == p.a | p.b else 0.0)

    assert cmi(engine(0.25), None, p) == 0.25
    assert cmi(engine(-1e-11), None, p) == 0.0
    with pytest.raises(AssertionError):
        cmi(engine(-1e-9), None, p)


@pytest.mark.parametrize(
    "family, engine",
    [("ising_chain", "pauli"), ("ising_chain", "classical"), ("parity_chain", "classical"), ("bell_chain", "pauli")],
)
def test_chain_distance_is_the_dual_graph_distance(family, engine):
    """A decay point at distance d is a chain of d+1 sites; for families whose
    terms cover two sites, d is the dual-graph distance between its ends."""
    for d in range(1 if family == "ising_chain" else 2, 9):
        h = build_model(family, d + 1, engine)
        assert graph_distance(h, boundary_partition(d + 1)) == d


def test_cluster_chain_distance_is_the_chain_distance():
    """The cluster chain's three-site terms join the end sites of a chain of
    d+1 sites in fewer than d steps; the decay curve keeps d."""
    assert graph_distance(cluster_chain(6), boundary_partition(6)) == 3
    curve = decay_curve("cluster_chain", "pauli", 0.5, [2, 3, 4, 5], 0.2)
    assert [d for d, _ in curve.points] == [2.0, 3.0, 4.0, 5.0]
