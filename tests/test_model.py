import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmnlab.dense import term_matrix
from hmnlab.model import (
    _ENTROPY_BLOCK,
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
from tests.conftest import (
    all_pairs_commuting,
    entropy_bits_reference,
    ising_pauli_chain,
    kron_pauli_matrix,
    pauli_label,
)


def test_pauli_label_roundtrip():
    for lbl in ("XZIY", "IIII", "YYXZ"):
        assert pauli_label(PauliString.from_label(lbl)) == lbl


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


def test_to_matrix_matches_kron_chain():
    """The one-scatter matrix is the kron chain's, entry for entry: every
    string on 1-3 qubits with both signs, and random strings on up to 8."""
    strings = [
        PauliString(n, x, z, sign)
        for n in (1, 2, 3)
        for x in range(2**n)
        for z in range(2**n)
        for sign in (1, -1)
    ]
    rng = np.random.default_rng(5)
    for n in rng.integers(4, 9, size=40):
        n = int(n)
        x, z = (int(v) for v in rng.integers(0, 2**n, size=2))
        strings.append(PauliString(n, x, z, int(rng.choice((1, -1)))))
    for p in strings:
        got = p.to_matrix()
        assert got.dtype == complex and np.array_equal(got, kron_pauli_matrix(p))


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


def test_model_refuses_a_pauli_term_off_its_support_or_register():
    """A Pauli term acts on its declared support alone, so the dual graph,
    read off supports, sees every site a term touches: Z0 Z1 Z2 listed on
    sites (0, 1), an X bit off a one-site support and a string on another
    register's qubits are refused when the model is built."""
    g = SiteGraph(3)
    for support, p in (((0, 1), PauliString(3, 0, 0b111)), ((0,), PauliString(3, 0b100, 0b001))):
        with pytest.raises(ValueError, match=rf"has a bit off its support \({support[0]},"):
            LocalHamiltonian(g, (HamiltonianTerm(support, p, -1.0),))
    with pytest.raises(ValueError, match="Pauli string on 2 qubits in a model of 3"):
        LocalHamiltonian(g, (HamiltonianTerm((0, 1), PauliString(2, 0, 0b11), -1.0),))


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


@st.composite
def mixed_pairs(draw):
    """A diagonal term on sites listed in any order and a Pauli term, on q = 2
    or q = 4 sites, in either order; the string's X bits fall on and off the
    table's sites.  Half the tables are averaged with their image under the
    string, taken from the dense matrices (diag of P D P^dagger is D(a xor x)),
    so that they commute."""
    q = draw(st.sampled_from((2, 4)))
    g = SiteGraph(draw(st.integers(1, 4 if q == 2 else 3)), q)
    n = g.n_sites
    support = tuple(draw(st.permutations(range(n)))[: draw(st.integers(1, n))])
    values = st.sampled_from((-0.5, 0.0, 0.25, 1.0))
    table = np.array(draw(st.lists(values, min_size=q ** len(support), max_size=q ** len(support))))
    diag = HamiltonianTerm(support, table.reshape((q,) * len(support)), 0.8)
    bits = st.integers(0, 2**g.n_qubits - 1)
    p = PauliString(g.n_qubits, draw(bits), draw(bits))
    if draw(st.booleans()):
        d = term_matrix(g, diag)
        pm = p.to_matrix()
        full = ((d + pm @ d @ pm.conj().T).diagonal().real / 2).reshape((q,) * n)
        full = full[tuple(slice(None) if s in support else 0 for s in range(n))]
        order = sorted(support)
        diag = HamiltonianTerm(support, np.transpose(full, [order.index(s) for s in support]), 0.8)
    pair = (diag, HamiltonianTerm(tuple(range(n)), p, -0.6))
    return LocalHamiltonian(g, pair if draw(st.booleans()) else pair[::-1])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mixed_pairs())
def test_verify_commuting_matches_dense_commutator(h):
    """A diagonal-Pauli pair commutes exactly when the dense commutator of the
    two full-space matrices is within 1e-12 of zero."""
    a, b = (term_matrix(h.site_graph, t) for t in h.terms)
    assert verify_commuting(h) == bool(np.max(np.abs(a @ b - b @ a)) <= 1e-12)


@st.composite
def local_models(draw):
    """Up to six terms on q = 2 or q = 4 sites, each a Pauli string or a
    table on one or two listed sites; a string's letters may be I on a
    listed site, so its sites are not always its support."""
    q = draw(st.sampled_from((2, 4)))
    g = SiteGraph(draw(st.integers(2, 5)), q)
    k = g.qubits_per_site
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        support = tuple(draw(st.lists(st.integers(0, g.n_sites - 1), min_size=1, max_size=2, unique=True)))
        if draw(st.booleans()):
            letters = ["I"] * g.n_qubits
            for s in support:
                for j in range(k):
                    letters[s * k + j] = draw(st.sampled_from("IXYZZ"))
            terms.append(HamiltonianTerm(support, PauliString.from_label("".join(letters)), 0.5))
        else:
            values = draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=q ** len(support), max_size=q ** len(support)))
            terms.append(HamiltonianTerm(support, np.reshape(values, (q,) * len(support)), -0.5))
    return LocalHamiltonian(g, tuple(terms))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(local_models())
def test_verify_commuting_checks_the_pairs_that_matter(h):
    """Checking only the pairs that share a site gives the verdict of every
    pair."""
    assert verify_commuting(h) == all_pairs_commuting(h)


def test_verify_commuting_without_full_space_matrices():
    """20 sites, a diagonal field on site 3 followed by a ZZ chain: the
    verdict is read off the field's table, so no q^n x q^n matrix is built
    (one would hold 2^40 entries).  An X field on site 3 breaks it."""
    chain = ising_pauli_chain(20)
    field = HamiltonianTerm((3,), np.array([0.5, -0.3]), 0.7)
    assert LocalHamiltonian(chain.site_graph, (field,) + chain.terms).commuting
    flip = HamiltonianTerm((3,), PauliString.from_label("IIIX" + "I" * 16), 0.4)
    assert not LocalHamiltonian(chain.site_graph, (field,) + chain.terms + (flip,)).commuting


def test_model_imports_no_dense_engine():
    """Importing hmnlab.model in a fresh interpreter does not load hmnlab.dense."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, hmnlab.model; print('hmnlab.dense' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False", done.stdout + done.stderr


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
    assert pauli_label(h.terms[0].operator) == "ZZI"


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
    assert entropy_bits([0.0, 1.0]) == 0.0
    assert entropy_bits([1.0, 1e-16]) == pytest.approx(-1e-16 * math.log2(1e-16), rel=1e-12)


def test_entropy_bits_rules_go_by_mass():
    """A value's mass is value times degeneracy: four values of 2^-62, each
    2^60 times, carry mass 1/4 each and 62 bits in all, not 0; a value of
    -1e-20 that many times is a mass of -0.01 and raises."""
    assert entropy_bits([2.0**-62] * 4, degeneracy=2**60) == pytest.approx(62.0, abs=1e-12)
    with pytest.raises(ValueError, match="< -8.67362e-29"):
        entropy_bits([2.0**-61, 2.0**-61, -1e-20], degeneracy=2**60)


B = _ENTROPY_BLOCK


@pytest.mark.parametrize("at", [0, B - 1, B, 2 * B + 7])
def test_entropy_bits_refuses_values_below_tolerance(at):
    """One rule for every engine's spectra: a value below -1e-10 raises in
    whichever chunk it lands, also next to a NaN; one down to -1e-10 is
    rounding and drops, as the NaN does."""
    v = np.full(3 * B, 1.0 / (3 * B))
    v[at + 1] = math.nan
    v[at] = -1e-9
    with pytest.raises(ValueError, match="value -1e-09 < -1e-10"):
        entropy_bits(v)
    v[at] = -1e-10
    assert entropy_bits(v) == pytest.approx(entropy_bits_reference(v), rel=1e-13)


# chunk edges of a 3B + 5 vector: first and last value of each chunk
EDGES = [0, B - 1, B, 2 * B - 1, 2 * B, 3 * B - 1, 3 * B, 3 * B + 4]


@pytest.mark.parametrize("degeneracy", [1, 4])
@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B + 5])
def test_entropy_bits_matches_reference_across_blocks(n, degeneracy):
    v = np.random.default_rng(n).random(n)
    v /= v.sum()
    expect = entropy_bits_reference(v, degeneracy)
    assert entropy_bits(v, degeneracy) == pytest.approx(expect, rel=1e-13)


@pytest.mark.parametrize("degeneracy", [1, 4])
@pytest.mark.parametrize("value", [0.0, 1e-18, -1e-17, math.nan], ids=["zero", "floor", "negative", "nan"])
@pytest.mark.parametrize(
    "at",
    [EDGES, slice(B - 3, B + 3), slice(2 * B - 1, 2 * B + 1), slice(B, 2 * B), slice(3 * B, 3 * B + 5)],
    ids=["on_edges", "across_first_edge", "across_second_edge", "whole_chunk", "whole_tail"],
)
def test_entropy_bits_drops_floor_values_at_block_edges(at, value, degeneracy):
    """Values <= 1e-18 and NaN count as zero wherever they fall: on a chunk's
    first or last value, straddling two chunks, filling a chunk."""
    v = np.random.default_rng(7).random(3 * B + 5)
    v /= v.sum()
    v[at] = value
    expect = entropy_bits_reference(v, degeneracy)
    assert math.isfinite(expect)
    assert entropy_bits(v, degeneracy) == pytest.approx(expect, rel=1e-13)


@pytest.mark.parametrize("zeros", [False, True], ids=["all_positive", "with_zeros"])
def test_entropy_bits_allocates_no_full_size_temporary(zeros):
    """numpy reports its buffers to tracemalloc: on 2^18 values (2 MB) the
    traced peak stays below an eighth of the input, with or without values
    to drop."""
    v = np.random.default_rng(3).random(2**18)
    v /= v.sum()
    if zeros:
        v[::5] = 0.0
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        entropy_bits(v)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < v.nbytes / 8, peak


def test_parse_model_places_letters_by_site():
    """q = 4 (two qubits per site) with the support listed in reverse order
    and not adjacent: each site's pair of letters lands on that site's qubits."""
    obj = {"n_sites": 3, "q": 4, "terms": [{"support": [2, 0], "pauli": "XZYI", "lambda": 0.5}]}
    op = parse_model(obj).terms[0].operator
    assert op.n == 6
    assert pauli_label(op) == "YIIIXZ"


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
        (
            {"n_sites": 2, "terms": [{"support": [0, 1], "pauli": "ZZ", "lambda": True}]},
            "term lambda True is not a number",
        ),
        (
            {"n_sites": 2, "terms": [{"support": [0, 1], "pauli": "ZZ", "lambda": "x"}]},
            "term lambda 'x' is not a number",
        ),
        ({"n_sites": 2, "terms": 7}, "terms 7 is not a list"),
        ({"n_sites": 2, "terms": [7]}, "term 7 is not an object"),
        ({"n_sites": 2, "terms": [{"support": 5, "pauli": "Z", "lambda": 1.0}]}, "term support 5 is not a list"),
        (
            {"n_sites": 2, "terms": [{"support": [0, 1], "pauli": 5, "lambda": 1.0}]},
            "pauli label 5 is not a string of log2 q = 1 letters per support site",
        ),
        (
            {"n_sites": 2, "terms": [{"support": [0, 1], "pauli": "ZZZ", "lambda": 1.0}]},
            "pauli label 'ZZZ' is not a string of log2 q = 1 letters per support site",
        ),
        (
            {"n_sites": 2, "terms": [{"support": [0, 1], "diag": [1, "a", 0, 1], "lambda": 1.0}]},
            "diag table [1, 'a', 0, 1] is not a table of numbers",
        ),
        (
            {"n_sites": 2, "terms": [{"support": [0, 1], "diag": [1, True, 0, 1], "lambda": 1.0}]},
            "diag table [1, True, 0, 1] is not a table of numbers",
        ),
        (
            {"n_sites": 2, "terms": [{"support": [0, 1], "diag": [[1, "0"], [0, 1]], "lambda": 1.0}]},
            "diag table [[1, '0'], [0, 1]] is not a table of numbers",
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
        "lambda_bool",
        "lambda_string",
        "terms_a_number",
        "term_a_number",
        "support_a_number",
        "pauli_a_number",
        "pauli_too_long",
        "diag_a_string_entry",
        "diag_a_bool_entry",
        "diag_a_numeric_string_entry",
    ],
)
def test_parse_model_takes_no_coerced_numbers(obj, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_model(obj)


@pytest.mark.parametrize(
    "q, support, z, sign",
    [
        (2, (1, 2), 0b0110, 1),  # ZZ on sites 1 and 2
        (2, (3, 0, 2), 0b1101, -1),  # support listed out of order
        (4, (2, 0), 0b010010, 1),  # one qubit of each two-qubit site
        (4, (3, 1), 0b11001100, -1),  # both qubits of each site, out of order
    ],
)
def test_z_string_table_is_the_diagonal_of_its_matrix(q, support, z, sign):
    """The table a Z-only string reads as, broadcast over the sites, is the
    diagonal of the string's dense matrix, on one- and two-qubit sites."""
    g = SiteGraph(4, q)
    t = HamiltonianTerm(support, PauliString(g.n_qubits, 0, z, sign), 0.5)
    assert t.is_diagonal and t.table(q).shape == (q,) * len(support)
    table = np.broadcast_to(t.site_table(q, range(g.n_sites)), (q,) * g.n_sites)
    assert np.array_equal(table.ravel(), np.diag(term_matrix(g, t)))
