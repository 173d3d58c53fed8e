import math

import numpy as np
import pytest

from hmnlab.channels import (
    ChannelLayer,
    CommutationCheck,
    SiteChannel,
    bell_measurement,
    bitflip,
    complete_depolarization,
    compose_channels,
    compose_with_trace,
    dephasing,
    depolarizing,
    is_commutation_preserving,
    is_unital,
    parse_channel,
    pauli_damping_profile,
    transition_channel,
)
from hmnlab.dense import apply_layer_to_matrix, partial_trace_matrix
from hmnlab.model import HamiltonianTerm, LocalHamiltonian, PauliString, SiteGraph
from tests.conftest import ising_pauli_chain


def test_dephasing_damping_profile():
    prof = pauli_damping_profile(dephasing(0, 0.3))
    assert prof[(0, 0)] == 1.0
    assert prof[(0, 1)] == 1.0  # Z commutes
    assert abs(prof[(1, 0)] - 0.4) < 1e-14  # X damped by 1-2p
    assert abs(prof[(1, 1)] - 0.4) < 1e-14


def test_depolarizing_profile():
    prof = pauli_damping_profile(depolarizing(0, 0.8))
    for key in ((1, 0), (0, 1), (1, 1)):
        assert abs(prof[key] - 0.2) < 1e-14
    # p = 1 kills everything but identity
    prof = pauli_damping_profile(complete_depolarization(0))
    assert prof[(0, 0)] == 1.0
    assert all(abs(prof[k]) < 1e-14 for k in prof if k != (0, 0))


def test_profile_matches_kraus_action():
    c = dephasing(0, 0.25)
    ck = SiteChannel(0, kraus=c.kraus_ops())
    assert pauli_damping_profile(c) == pytest.approx(pauli_damping_profile(ck))


def test_unitality():
    assert is_unital(dephasing(0, 0.2))
    assert is_unital(transition_channel(0, [[0.8, 0.2], [0.2, 0.8]]))
    assert not is_unital(transition_channel(0, [[1.0, 0.6], [0.0, 0.4]]))


def test_transition_must_be_column_stochastic():
    with pytest.raises(ValueError):
        transition_channel(0, [[0.5, 0.5], [0.4, 0.5]])


def test_compose_transition():
    a = transition_channel(0, [[0.9, 0.1], [0.1, 0.9]])
    c = compose_channels(a, a)
    expect = np.array([[0.9, 0.1], [0.1, 0.9]]) @ np.array([[0.9, 0.1], [0.1, 0.9]])
    assert np.allclose(c.transition, expect)


def test_compose_pauli_mixtures():
    c = compose_channels(bitflip(0, 0.3), bitflip(0, 0.3))
    prof = pauli_damping_profile(c)
    assert abs(prof[(0, 1)] - 0.4**2) < 1e-14  # Z damped twice


def test_trace_as_depolarization():
    """Complete depolarization on a region equals the partial trace tensored
    with the maximally mixed state."""
    rng = np.random.default_rng(3)
    g = SiteGraph(3)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    layer = ChannelLayer((complete_depolarization(1),))
    out = apply_layer_to_matrix(rho, layer, g)
    marg = partial_trace_matrix(rho, [0, 2], g)
    # direct index construction: site order 0,1,2 with I/2 at site 1
    m = marg.reshape(2, 2, 2, 2)
    full = np.zeros((8, 8), dtype=complex)
    for i0 in range(2):
        for i2 in range(2):
            for j0 in range(2):
                for j2 in range(2):
                    for s in range(2):
                        row = i0 * 4 + s * 2 + i2
                        col = j0 * 4 + s * 2 + j2
                        full[row, col] = m[i0, i2, j0, j2] / 2
    assert np.max(np.abs(out - full)) < 1e-12


def test_compose_with_trace_adds_depolarization():
    layer = ChannelLayer((bitflip(1, 0.2),))
    traced = compose_with_trace(layer, {1, 2})
    assert traced.sites == {1, 2}
    for c in traced.channels:
        prof = pauli_damping_profile(c)
        assert all(abs(prof[k]) < 1e-13 for k in prof if k != (0, 0))


def test_bell_measurement_mixture():
    c = bell_measurement(0)
    keys = {p.key for p, w in c.pauli_mixture}
    assert keys == {(0, 0), (3, 0), (0, 3), (3, 3)}  # II, XX, ZZ, YY
    assert all(abs(w - 0.25) < 1e-15 for _, w in c.pauli_mixture)


def test_commutation_preserving_checker():
    h = ising_pauli_chain(3)
    good = ChannelLayer((bitflip(1, 0.3),))
    assert is_commutation_preserving(good, h) == CommutationCheck.PRESERVED
    tiny = is_commutation_preserving(good, h, budget=3)
    assert tiny == CommutationCheck.INCONCLUSIVE


def test_commutation_check_inconclusive_past_product_cut():
    """Seven commuting Pauli terms have 2^7 = 128 products, past the cut of
    65 that the checker enumerates, so it cannot claim PRESERVED."""
    g = SiteGraph(4)
    labels = ("ZIII", "IZII", "IIZI", "IIIZ", "ZZII", "IZZI", "IIZZ")
    h = LocalHamiltonian(
        g,
        tuple(
            HamiltonianTerm(tuple(j for j, c in enumerate(lab) if c == "Z"), PauliString.from_label(lab), -1.0)
            for lab in labels
        ),
    )
    layer = ChannelLayer((bitflip(1, 0.3),))
    assert is_commutation_preserving(layer, h) == CommutationCheck.INCONCLUSIVE


def test_commutation_violating_channel():
    """XX and ZZ commute, but the Hadamard mixture maps both X and Z on one
    site to (X+Z)/2, whose images anticommute with the wrong sign."""
    g = SiteGraph(2)
    from hmnlab.model import HamiltonianTerm, LocalHamiltonian

    h = LocalHamiltonian(
        g,
        (
            HamiltonianTerm((0, 1), PauliString.from_label("XX"), 0.5),
            HamiltonianTerm((0, 1), PauliString.from_label("ZZ"), 0.5),
        ),
    )
    had = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    mix = SiteChannel(
        0, kraus=(math.sqrt(0.5) * np.eye(2, dtype=complex), math.sqrt(0.5) * had)
    )
    layer = ChannelLayer((mix,))
    assert is_commutation_preserving(layer, h) == CommutationCheck.VIOLATED


def test_parse_channel():
    c = parse_channel({"site": 1, "kind": "dephasing", "p": 0.2})
    assert c.site == 1 and c.pauli_mixture is not None
    c = parse_channel({"site": 0, "kind": "transition", "matrix": [[1, 0], [0, 1]]})
    assert np.allclose(c.transition, np.eye(2))
    with pytest.raises(ValueError, match="unknown channel keys"):
        parse_channel({"site": 0, "kind": "dephasing", "p": 0.1, "bogus": 1})
    with pytest.raises(ValueError, match="unknown channel kind"):
        parse_channel({"site": 0, "kind": "nope"})


def _superop(c):
    ks = np.array(c.kraus_ops())
    return np.einsum("aik,ajl->ijkl", ks, ks.conj())


@pytest.mark.parametrize("q", [2, 3, 4])
def test_trace_absorbs_the_site_channel(q):
    """Tracing a site gives the same channel as composing its channel with
    the trace, as compose_channels does: transition, Kraus and Pauli-mixture
    channels, compared as superoperators."""
    rng = np.random.default_rng(q)
    cols = rng.uniform(0.05, 1, (q, q))
    v, _ = np.linalg.qr(rng.normal(size=(3 * q, q)) + 1j * rng.normal(size=(3 * q, q)))
    chans = [
        transition_channel(1, cols / cols.sum(axis=0)),
        SiteChannel(1, kraus=tuple(v[i * q : (i + 1) * q] for i in range(3))),
    ]
    if q == 2:
        chans += [bitflip(1, 0.3), depolarizing(1, 0.4)]
    if q == 4:
        chans += [bell_measurement(1), depolarizing(1, 0.4, 4)]
    for c in chans:
        if c.transition is not None:
            trace = transition_channel(1, np.full((q, q), 1 / q))
        else:
            trace = complete_depolarization(1, q)
        keep = transition_channel(0, np.eye(q)) if c.transition is not None else SiteChannel(0, kraus=(np.eye(q),))
        traced = compose_with_trace(ChannelLayer((c, keep)), {1, 2}, q)
        assert [d.site for d in traced.channels] == [1, 0, 2]
        assert traced.channels[1] is keep
        assert (traced.channels[0].transition is not None) == (c.transition is not None)
        assert np.max(np.abs(_superop(traced.channels[0]) - _superop(compose_channels(c, trace)))) < 1e-12
        assert np.max(np.abs(_superop(traced.channels[2]) - _superop(trace))) < 1e-12
