import json
import math
import re

import numpy as np
import pytest

from hmnlab.model import (
    HamiltonianTerm,
    LocalHamiltonian,
    Partition,
    PauliString,
    SiteGraph,
    build_dual_graph,
    entropy_bits,
    graph_distance,
    parse_model,
    verify_commuting,
)
from tests.conftest import ising_pauli_chain


def test_pauli_label_roundtrip():
    for lbl in ("XZIY", "IIII", "YYXZ"):
        assert PauliString.from_label(lbl).label() == lbl


def test_pauli_product_matches_dense():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = 3
        a = PauliString(n, int(rng.integers(0, 8)), int(rng.integers(0, 8)))
        b = PauliString(n, int(rng.integers(0, 8)), int(rng.integers(0, 8)))
        if not a.commutes_with(b):
            with pytest.raises(ValueError):
                a * b
            continue
        prod = a * b
        assert np.allclose(prod.to_matrix(), a.to_matrix() @ b.to_matrix())


def test_commutes_matches_dense():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = PauliString(3, int(rng.integers(0, 8)), int(rng.integers(0, 8)))
        b = PauliString(3, int(rng.integers(0, 8)), int(rng.integers(0, 8)))
        ma, mb = a.to_matrix(), b.to_matrix()
        assert a.commutes_with(b) == bool(np.allclose(ma @ mb, mb @ ma))


def test_pauli_strings_hermitian():
    for x in range(4):
        for z in range(4):
            m = PauliString(2, x, z).to_matrix()
            assert np.allclose(m, m.conj().T)


def test_coefficient_cap():
    with pytest.raises(ValueError):
        HamiltonianTerm((0,), PauliString.from_label("Z"), 1.5)
    with pytest.raises(ValueError):
        HamiltonianTerm((0,), np.array([2.0, 0.0]), 0.5)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(frozenset({0}), frozenset({0}), frozenset({1}))
    with pytest.raises(ValueError):
        Partition(frozenset(), frozenset({0}), frozenset({1}))
    p = Partition(frozenset({0}), frozenset(), frozenset({1}))
    assert p.abc == {0, 1}


def test_dual_graph_chain():
    h = ising_pauli_chain(5)
    g = build_dual_graph(h)
    assert g.n_terms == 4
    assert g.degree == 2  # interior sites touch two bonds
    assert (0, 1) in g.edges and (0, 2) not in g.edges


def test_graph_distance_chain():
    h = ising_pauli_chain(6)
    p = Partition(frozenset({0}), frozenset(range(1, 5)), frozenset({5}))
    assert graph_distance(h, p) == 5  # all five bonds on the path
    p2 = Partition(frozenset({0}), frozenset(), frozenset({1}))
    assert graph_distance(h, p2) == 1


def test_graph_distance_disconnected():
    g = SiteGraph(4)
    t = [
        HamiltonianTerm((0,), PauliString.from_label("ZIII"), 1.0),
        HamiltonianTerm((3,), PauliString.from_label("IIIZ"), 1.0),
    ]
    h = LocalHamiltonian(g, tuple(t))
    p = Partition(frozenset({0}), frozenset({1, 2}), frozenset({3}))
    assert graph_distance(h, p) == math.inf


def test_verify_commuting():
    assert verify_commuting(ising_pauli_chain(4))
    g = SiteGraph(2)
    bad = LocalHamiltonian(
        g,
        (
            HamiltonianTerm((0,), PauliString.from_label("XI"), 1.0),
            HamiltonianTerm((0,), PauliString.from_label("ZI"), 1.0),
        ),
    )
    assert not verify_commuting(bad)


def test_parse_model_rejects_unknown_keys():
    obj = {"q": 2, "n_sites": 2, "terms": [], "extra": 1}
    with pytest.raises(ValueError, match="unknown model keys"):
        parse_model(obj)
    obj = {
        "n_sites": 2,
        "terms": [{"support": [0, 1], "pauli": "ZZ", "lambda": 1.0, "foo": 0}],
    }
    with pytest.raises(ValueError, match="unknown term keys"):
        parse_model(obj)


def test_parse_model_pauli_and_diag():
    obj = {
        "n_sites": 3,
        "terms": [
            {"support": [0, 1], "pauli": "ZZ", "lambda": -1.0},
            {"support": [2], "diag": [0.5, -0.5], "lambda": 1.0},
        ],
    }
    h = parse_model(obj)
    assert h.terms[0].is_pauli and h.terms[1].is_diagonal
    assert h.terms[0].operator.label() == "ZZI"


def test_parse_model_roundtrips_json():
    obj = {"n_sites": 2, "terms": [{"support": [0, 1], "pauli": "XX", "lambda": 0.5}]}
    h = parse_model(json.loads(json.dumps(obj)))
    assert h.terms[0].coefficient == 0.5


def test_entropy_bits_floor():
    """Values <= 1e-18 (rounding negatives too) count as zero; no value is
    raised to a floor, so a tiny eigenvalue adds only its own entropy."""
    assert entropy_bits([0.5, 0.5]) == 1.0
    assert entropy_bits([0.25, 0.25], degeneracy=2) == 2.0
    assert entropy_bits([0.5, 0.5, 1e-18, -1e-17]) == 1.0
    assert entropy_bits([1.0, 0.0]) == 0.0
    assert entropy_bits([1.0, 1e-16]) == pytest.approx(-1e-16 * math.log2(1e-16), rel=1e-12)


def test_parse_model_places_letters_by_site():
    """q = 4 (two qubits per site) with the support listed in reverse order
    and not adjacent: each site's pair of letters lands on that site's qubits."""
    obj = {"n_sites": 3, "q": 4, "terms": [{"support": [2, 0], "pauli": "XZYI", "lambda": 0.5}]}
    op = parse_model(obj).terms[0].operator
    assert op.n == 6
    assert op.label() == "YIIIXZ"


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"n_sites": 4.7, "terms": []}, "n_sites 4.7 is not an integer >= 1"),
        ({"n_sites": True, "terms": []}, "n_sites True is not an integer >= 1"),
        ({"n_sites": 3, "q": 2.0, "terms": []}, "q 2.0 is not an integer >= 2"),
        (
            {"n_sites": 4, "terms": [{"support": [1, 2.9], "pauli": "ZZ", "lambda": 1.0}]},
            "support entry 2.9 is not an integer >= 0",
        ),
        (
            {"n_sites": 4, "terms": [{"support": [-1, 2], "pauli": "ZZ", "lambda": 1.0}]},
            "support entry -1 is not an integer >= 0",
        ),
        (
            {"n_sites": 4, "terms": [{"support": [1, 4], "pauli": "ZZ", "lambda": 1.0}]},
            "outside site graph",
        ),
        (
            {"n_sites": 2, "terms": [{"support": [0, 0], "pauli": "XZ", "lambda": 1.0}]},
            "lists a site twice",
        ),
        (
            {"n_sites": 2, "terms": [{"support": [1, 1], "diag": [1, 0, 0, 1], "lambda": 1.0}]},
            "lists a site twice",
        ),
        (
            {"n_sites": 2, "terms": [{"support": [0, 1], "pauli": "ZZ", "lambda": float("nan")}]},
            "exceeds 1",
        ),
    ],
    ids=[
        "n_sites_float",
        "n_sites_bool",
        "q_float",
        "support_float",
        "support_negative",
        "support_outside",
        "pauli_site_twice",
        "diag_site_twice",
        "lambda_nan",
    ],
)
def test_parse_model_takes_no_coerced_numbers(obj, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_model(obj)
