import math
import re

import numpy as np
import pytest

from hmnlab.channels import (
    ChannelLayer,
    CommutationCheck,
    bell_measurement,
    bitflip,
    complete_depolarization,
    compose_with_trace,
    dephasing,
    depolarizing,
    is_commutation_preserving,
    is_unital,
    kraus_channel,
    parse_channel,
    pauli_damping_profile,
    pauli_mixture,
    transition_channel,
)
from hmnlab.dense import apply_layer_to_matrix, partial_trace_matrix
from hmnlab.model import HamiltonianTerm, LocalHamiltonian, PauliString, SiteGraph
from tests.conftest import choi_kraus, compose_channels, ising_pauli_chain, tensordot_damping_profile


def test_dephasing_damping_profile():
    prof = pauli_damping_profile(dephasing(0, 0.3))  # indexed (x << 1) | z
    assert prof[0b00] == 1.0
    assert prof[0b01] == 1.0  # Z commutes
    assert abs(prof[0b10] - 0.4) < 1e-14  # X damped by 1-2p
    assert abs(prof[0b11] - 0.4) < 1e-14


def test_depolarizing_profile():
    prof = pauli_damping_profile(depolarizing(0, 0.8, 2))
    for key in (0b10, 0b01, 0b11):
        assert abs(prof[key] - 0.2) < 1e-14
    # p = 1 kills everything but identity
    prof = pauli_damping_profile(complete_depolarization(0, 2))
    assert prof[0b00] == 1.0
    assert all(abs(f) < 1e-14 for f in prof[1:])


def test_profile_matches_kraus_action():
    c = dephasing(0, 0.25)
    ck = kraus_channel(0, choi_kraus(c))
    assert pauli_damping_profile(c) == pytest.approx(pauli_damping_profile(ck))


def _every_constructor():
    rng = np.random.default_rng(11)
    t = rng.uniform(0, 1, (3, 3))
    v, _ = np.linalg.qr(rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2)))
    return [
        dephasing(0, 0.3),
        bitflip(0, 0.1),
        depolarizing(0, 0.4, 2),
        depolarizing(0, 0.4, 3),
        depolarizing(0, 0.7, 4),
        complete_depolarization(0, 3),
        bell_measurement(0),
        pauli_mixture(0, (0.1, 0.2, 0.3, 0.4)),
        transition_channel(0, t / t.sum(axis=0)),
        kraus_channel(0, [v[:2], v[2:4], v[4:]]),
    ]


def test_damping_profile_matches_tensordot_bit_for_bit():
    """Each Pauli-diagonal constructor's table, on one and two qubits, has
    the bits of the tensordot reference; the one product is its reshape."""
    channels = [
        dephasing(0, 0.3),
        bitflip(0, 0.1),
        depolarizing(0, 0.4, 2),
        depolarizing(0, 0.7, 4),
        bell_measurement(0),
        pauli_mixture(0, (0.1, 0.2, 0.3, 0.4)),
        complete_depolarization(0, 2),
        complete_depolarization(0, 4),
        pauli_mixture(0, np.arange(16) / 120),
        transition_channel(0, [[0.9, 0.1], [0.1, 0.9]]),
        kraus_channel(0, choi_kraus(dephasing(0, 0.2))),
    ]
    for c in channels:
        table, ref = pauli_damping_profile(c), tensordot_damping_profile(c)
        assert table.dtype == ref.dtype and table.tobytes() == ref.tobytes(), c


def test_superoperators_round_trip_through_choi_kraus():
    """Every constructor's superoperator is sum_K K (x) conj(K) over the
    Kraus operators that the eigendecomposition of its Choi matrix gives."""
    for c in _every_constructor():
        ks = choi_kraus(c)
        s = sum(np.einsum("ik,jl->ijkl", k, k.conj()) for k in ks)
        assert np.max(np.abs(s - c.superop)) <= 1e-14, c


def test_transition_read_off_is_exact():
    """The classical engine's matrix is the one the channel was built from,
    bit for bit, and a bit-flip's is [[1-p, p], [p, 1-p]]."""
    rng = np.random.default_rng(5)
    for q in (2, 3, 5):
        t = rng.uniform(0, 1, (q, q))
        t /= t.sum(axis=0)
        assert np.array_equal(transition_channel(0, t).transition, t)
    for p in (0.1, 0.2, 0.37):
        assert np.array_equal(bitflip(0, p).transition, np.array([[1 - p, p], [p, 1 - p]]))


def test_mixture_tables_are_sign_sums():
    """Each damping factor of a Pauli mixture is sum_g (+-w_g), + where the
    Pauli commutes with g, added in the mixture's order: the table read off
    the superoperator is that sum exactly."""
    mixtures = [
        (dephasing(0, 0.3), [("I", 1 - 0.3), ("Z", 0.3)]),
        (bitflip(0, 0.1), [("I", 1 - 0.1), ("X", 0.1)]),
        (bitflip(0, 0.37), [("I", 1 - 0.37), ("X", 0.37)]),
        (bell_measurement(0), [("II", 0.25), ("XX", 0.25), ("ZZ", 0.25), ("YY", 0.25)]),
    ]
    for c, mix in mixtures:
        nq = len(mix[0][0])
        expect = []
        for v in range(4**nq):
            p, f = PauliString(nq, v >> nq, v & ((1 << nq) - 1)), 0.0
            for label, w in mix:
                f += w if p.commutes_with(PauliString.from_label(label)) else -w
            expect.append(f)
        assert c.pauli_table.tolist() == expect


def test_each_engine_takes_a_channel_by_what_it_does():
    """A bit-flip has a transition matrix (``test_transition_read_off_is_exact``);
    a symmetric transition has a damping table, which damps Z and removes X
    and Y; a Hadamard conjugation, a non-unital transition and a qutrit
    channel lack the form an engine needs."""
    assert transition_channel(0, [[0.9, 0.1], [0.1, 0.9]]).pauli_table.tolist() == [1.0, 0.9 - 0.1, 0.0, 0.0]
    had = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    with pytest.raises(ValueError, match="keep diagonal states diagonal"):
        kraus_channel(0, (had,)).transition
    with pytest.raises(ValueError, match="not diagonal in the Pauli basis"):
        transition_channel(0, [[1.0, 0.6], [0.0, 0.4]]).pauli_table
    with pytest.raises(ValueError, match="not a qubit register"):
        depolarizing(0, 0.5, 3).pauli_table


def test_unitality():
    assert is_unital(dephasing(0, 0.2))
    assert is_unital(transition_channel(0, [[0.8, 0.2], [0.2, 0.8]]))
    assert not is_unital(transition_channel(0, [[1.0, 0.6], [0.0, 0.4]]))


def test_transition_must_be_column_stochastic():
    with pytest.raises(ValueError):
        transition_channel(0, [[0.5, 0.5], [0.4, 0.5]])


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"transition": [[math.nan, 0.5], [0.5, 0.5]]}, "non-finite entry"),
        ({"transition": [[math.inf, 0.0], [-math.inf, 1.0]]}, "non-finite entry"),
        ({"transition": [[0.5, 0.5, 1.0], [0.5, 0.5, 0.0]]}, "not square"),
        ({"transition": [1.0]}, "not square"),
        ({"kraus": (np.array([[math.nan, 0], [0, 1]]),)}, "non-finite entry"),
        ({"kraus": (np.eye(2), np.eye(3))}, "square matrices of one size"),
        ({"kraus": ()}, "square matrices of one size"),
        ({"pauli_mixture": (math.nan, 0.0, 0.0, 0.0)}, "sum to 1"),
    ],
)
def test_channel_entries_refused(kwargs, message):
    """NaN fails every comparison, so each check is one NaN cannot pass."""
    ((kind, arg),) = kwargs.items()
    make = {"transition": transition_channel, "kraus": kraus_channel, "pauli_mixture": pauli_mixture}[kind]
    with pytest.raises(ValueError, match=message):
        make(0, arg)


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"kind": "kraus", "kraus": [[1, 0], [0, 1]]}, "channel kraus [[1, 0], [0, 1]] is not a list of matrices"),
        ({"kind": "kraus", "kraus": 5}, "channel kraus 5 is not a list of matrices of [re, im] pairs"),
        ({"kind": "kraus", "kraus": [[[1, 0], [0, 1]]]}, "channel kraus [[[1, 0], [0, 1]]] is not a list of matrices"),
        ({"kind": "kraus", "kraus": [[[[1, 0, 0]]]]}, "is not a list of matrices of [re, im] pairs"),
        ({"kind": "kraus", "kraus": [[[[1, 0]]], [[[1, 0], [0, 0]]]]}, "is not a list of matrices of [re, im] pairs"),
        (
            {"kind": "transition", "matrix": [[0.9, "a"], [0.1, 0.9]]},
            "channel matrix [[0.9, 'a'], [0.1, 0.9]] is not a matrix of numbers",
        ),
        ({"kind": "transition", "matrix": [[1.0], [0.0, 1.0]]}, "is not a matrix of numbers"),
        (
            {"kind": "transition", "matrix": [[True, False], [False, True]]},
            "channel matrix [[True, False], [False, True]] is not a matrix of numbers",
        ),
        (
            {"kind": "transition", "matrix": [[0.9, "0.1"], [0.1, 0.9]]},
            "channel matrix [[0.9, '0.1'], [0.1, 0.9]] is not a matrix of numbers",
        ),
        ({"kind": "kraus", "kraus": [[[[1, 0], [0, "0"]], [[0, 0], [True, 0]]]]}, "is not a list of matrices of [re, im] pairs"),
        ({"kind": "bitflip", "p": 0.1, "matrix": [[1, 0], [0, 1]]}, "channel kind 'bitflip' does not read ['matrix']"),
        ({"kind": "transition", "matrix": [[1, 0], [0, 1]], "p": 0.7}, "channel kind 'transition' does not read ['p']"),
        (
            {"kind": "kraus", "kraus": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]], "p": 0.2, "matrix": [[1]]},
            "channel kind 'kraus' does not read ['matrix', 'p']",
        ),
    ],
    ids=[
        "kraus_real_matrix",
        "kraus_a_number",
        "kraus_without_pairs",
        "kraus_triples",
        "kraus_ragged",
        "transition_string_entry",
        "transition_ragged",
        "transition_bools",
        "transition_numeric_string",
        "kraus_bool_and_string_leaves",
        "bitflip_with_a_matrix",
        "transition_with_a_p",
        "kraus_with_a_p_and_a_matrix",
    ],
)
def test_parse_channel_names_malformed_entries(obj, message):
    """A Kraus list or transition matrix of the wrong form is refused with
    its key and the form it needs, not with the converter's own text; a key
    the channel's kind does not read is refused by name."""
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_channel(dict(obj, site=0), 2)


def test_compose_transition():
    a = transition_channel(0, [[0.9, 0.1], [0.1, 0.9]])
    c = compose_channels(a, a)
    expect = np.array([[0.9, 0.1], [0.1, 0.9]]) @ np.array([[0.9, 0.1], [0.1, 0.9]])
    assert np.allclose(c.transition, expect)
    assert np.allclose(c.superop, transition_channel(0, expect).superop)


def test_compose_pauli_mixtures():
    c = compose_channels(bitflip(0, 0.3), bitflip(0, 0.3))
    prof = pauli_damping_profile(c)
    assert abs(prof[0b01] - 0.4**2) < 1e-14  # Z damped twice


def test_trace_as_depolarization():
    """Complete depolarization on a region equals the partial trace tensored
    with the maximally mixed state."""
    rng = np.random.default_rng(3)
    g = SiteGraph(3)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    layer = ChannelLayer((complete_depolarization(1, 2),))
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
    traced = compose_with_trace(layer, {1, 2}, 2)
    assert traced.sites == {1, 2}
    for c in traced.channels:
        prof = pauli_damping_profile(c)
        assert all(abs(f) < 1e-13 for f in prof[1:])


def test_bell_measurement_mixture():
    """The superoperator is the uniform conjugation mixture over II, XX, ZZ
    and -YY, built here from their matrices."""
    group = [PauliString.from_label(lab).to_matrix() for lab in ("II", "XX", "ZZ")]
    group.append(PauliString(2, 0b11, 0b11, -1).to_matrix())
    expect = sum(0.25 * np.einsum("ik,jl->ijkl", g, g.conj()) for g in group)
    assert np.max(np.abs(bell_measurement(0).superop - expect)) < 1e-15


def test_commutation_preserving_checker():
    h = ising_pauli_chain(3)
    good = ChannelLayer((bitflip(1, 0.3),))
    assert is_commutation_preserving(good, h, 200_000) == CommutationCheck.PRESERVED
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
    assert is_commutation_preserving(layer, h, 200_000) == CommutationCheck.INCONCLUSIVE


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
    mix = kraus_channel(0, (math.sqrt(0.5) * np.eye(2, dtype=complex), math.sqrt(0.5) * had))
    layer = ChannelLayer((mix,))
    assert is_commutation_preserving(layer, h, 200_000) == CommutationCheck.VIOLATED


def test_parse_channel():
    c = parse_channel({"site": 1, "kind": "dephasing", "p": 0.2}, 2)
    assert c.site == 1 and np.array_equal(c.superop, dephasing(1, 0.2).superop)
    c = parse_channel({"site": 0, "kind": "transition", "matrix": [[1, 0], [0, 1]]}, 2)
    assert np.allclose(c.transition, np.eye(2))
    # [re, im] pairs give the complex Kraus operators entry by entry
    s = math.sqrt(0.5)
    pairs = [[[[s, 0], [0, 0]], [[0, 0], [0, s]]], [[[0, 0], [0, s]], [[0, -s], [0, 0]]]]
    c = parse_channel({"site": 0, "kind": "kraus", "kraus": pairs}, 2)
    ks = (np.array([[s, 0], [0, 1j * s]]), np.array([[0, 1j * s], [-1j * s, 0]]))
    assert np.array_equal(c.superop, kraus_channel(0, ks).superop)
    with pytest.raises(ValueError, match="unknown channel keys"):
        parse_channel({"site": 0, "kind": "dephasing", "p": 0.1, "bogus": 1}, 2)
    with pytest.raises(ValueError, match="unknown channel kind"):
        parse_channel({"site": 0, "kind": "nope"}, 2)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_trace_absorbs_the_site_channel(q):
    """Tracing a site gives the same channel as composing its channel with
    the trace, as compose_channels does: transition, Kraus and Pauli-mixture
    channels, compared as superoperators.  On diagonal states the trace is
    the uniform transition matrix."""
    rng = np.random.default_rng(q)
    cols = rng.uniform(0.05, 1, (q, q))
    v, _ = np.linalg.qr(rng.normal(size=(3 * q, q)) + 1j * rng.normal(size=(3 * q, q)))
    chans = [
        transition_channel(1, cols / cols.sum(axis=0)),
        kraus_channel(1, [v[i * q : (i + 1) * q] for i in range(3)]),
    ]
    if q == 2:
        chans += [bitflip(1, 0.3), depolarizing(1, 0.4, 2)]
    if q == 4:
        chans += [bell_measurement(1), depolarizing(1, 0.4, 4)]
    trace = complete_depolarization(1, q)
    assert np.array_equal(trace.superop, transition_channel(1, np.full((q, q), 1 / q)).superop)
    for c in chans:
        keep = kraus_channel(0, (np.eye(q),))
        traced = compose_with_trace(ChannelLayer((c, keep)), {1, 2}, q)
        assert [d.site for d in traced.channels] == [1, 0, 2]
        assert traced.channels[1] is keep
        assert np.max(np.abs(traced.channels[0].superop - compose_channels(c, trace).superop)) < 1e-12
        assert np.max(np.abs(traced.channels[2].superop - trace.superop)) < 1e-12
