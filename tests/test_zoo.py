import math

import numpy as np
import pytest

from hmnlab import classical, dense, pauli, zoo
from hmnlab.channels import bitflip
from hmnlab.experiments import boundary_partition, evaluate_cmi
from hmnlab.model import PauliString, verify_commuting
from tests.conftest import pauli_label


def test_parse_model_id():
    assert zoo.parse_model_id("ising_chain_n8") == ("ising_chain", 8)
    assert zoo.parse_model_id("bell_chain_n12") == ("bell_chain", 12)
    with pytest.raises(ValueError):
        zoo.parse_model_id("bogus_n3")
    with pytest.raises(ValueError):
        zoo.parse_model_id("ising_chain")


def test_families_commute():
    for fam in zoo.FAMILIES:
        assert verify_commuting(zoo.build_model(fam, 4))


def test_parity_chain_ground_states():
    """Every link pins v_i = NOT u_{i+1}; at beta=inf the 2^n-fold freedom
    collapses to free u_0 and v_{n-1} bits times forced links."""
    h = zoo.parity_chain(3)
    d = classical.gibbs_distribution(h, math.inf)
    support = np.nonzero(d.probs)[0]
    # free bits: u of site 0, v of site 2, and one bit per link value
    assert len(support) == 2 ** (2 + 2)


def test_parity_channel_reads_out_parity():
    c = zoo.parity_channel(1)
    # input (u, v) = (1, 0): NOT(1 xor 0) = 0 -> output value 0
    assert c.transition[0, 2] == 1.0
    # input (0, 0): NOT(0) = 1 -> output value 1
    assert c.transition[1, 0] == 1.0
    cols = c.transition.sum(axis=0)
    assert np.allclose(cols, 1.0)


def test_parity_chain_long_range_cmi():
    """The teleported parity makes CMI exactly one bit at beta=inf, at any
    length; the channelled bulk parity equals |bulk| mod 2."""
    for n in (3, 4, 5):
        h = zoo.parity_chain(n)
        layer = zoo.bulk_layer("parity_chain", n, 1.0)
        val = evaluate_cmi(classical.plan(h, layer, boundary_partition(n).regions), math.inf, "classical")
        assert val == pytest.approx(1.0, abs=1e-10)


def test_parity_value_tracks_bulk_size():
    """The deterministic invariant carried through the read-out bulk:
    xor(bulk bits) ^ v_A ^ u_C equals the number of channelled sites mod 2.
    It ties A to C through B, which is why the CMI is exactly one bit."""
    for n in (3, 4, 5, 6):
        h = zoo.parity_chain(n)
        layer = zoo.bulk_layer("parity_chain", n, 1.0)
        d = classical.apply_transitions(
            classical.gibbs_distribution(h, math.inf), layer
        )
        invariants = set()
        for idx, p in enumerate(d.probs):
            if p < 1e-14:
                continue
            cfg = [(idx >> (2 * (n - 1 - s))) & 3 for s in range(n)]
            acc = (cfg[0] & 1) ^ (cfg[-1] >> 1)  # v of A, u of C
            for s in range(1, n - 1):
                acc ^= cfg[s] & 1
            invariants.add(acc)
        assert invariants == {(n - 2) % 2}


def test_bell_chain_long_range_cmi():
    h = zoo.bell_chain(4)
    layer = zoo.bulk_layer("bell_chain", 4, 1.0)
    val = evaluate_cmi(dense.plan(h, layer, boundary_partition(4).regions), math.inf, "dense")
    assert val == pytest.approx(2.0, abs=1e-9)
    # pauli engine scales further
    h6 = zoo.bell_chain(6)
    layer6 = zoo.bulk_layer("bell_chain", 6, 1.0)
    val6 = evaluate_cmi(pauli.plan(h6, layer6, boundary_partition(6).regions), math.inf, "pauli")
    assert val6 == pytest.approx(2.0, abs=1e-9)


def test_bell_chain_end_sites_maximally_mixed():
    """The state factors over links; tracing the middle site removes one half
    of each link, leaving the end sites fully mixed at any temperature."""
    h = zoo.bell_chain(3)
    rho = dense.gibbs_state(h, 0.7)
    ends = dense.partial_trace_matrix(rho.entries, [0, 2], rho.graph)
    assert np.max(np.abs(ends - np.eye(16) / 16)) < 1e-12


def test_cluster_chain_terms():
    h = zoo.cluster_chain(4)
    assert len(h.terms) == 4
    assert pauli_label(h.terms[0].operator) == "XZII"
    assert pauli_label(h.terms[1].operator) == "ZXZI"
    assert verify_commuting(h)


def test_ising_kind_dispatch():
    """One builtin Ising chain for every engine: ZZ strings, which are
    diagonal, so both the classical and the pauli engine take them."""
    h = zoo.build_model("ising_chain", 4)
    assert [t.operator for t in h.terms] == [PauliString.from_label(s) for s in ("ZZII", "IZZI", "IIZZ")]
    assert h.all_pauli and all(t.is_diagonal for t in h.terms)
    classical.check(h)
    pauli.check(h)


def test_ising_bulk_layer_serves_every_engine():
    """One bit-flip layer: the classical engine reads [[1-p, p], [p, 1-p]]
    off it bit for bit, and the pauli engine (1 - p) - p for Z and Y."""
    layer = zoo.bulk_layer("ising_chain", 4, 0.2)
    assert layer.sites == {1, 2}
    for c in layer.channels:
        assert np.array_equal(c.superop, bitflip(c.site, 0.2).superop)
        assert np.array_equal(c.transition, [[1 - 0.2, 0.2], [0.2, 1 - 0.2]])
        assert c.pauli_table.tolist() == [1 - 0.2 + 0.2, 1 - 0.2 - 0.2, 1 - 0.2 + 0.2, 1 - 0.2 - 0.2]
    h = zoo.build_model("ising_chain", 4)
    classical.plan(h, layer, ())
    pauli.plan(h, layer, ())
