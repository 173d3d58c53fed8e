import json
import math
import os

import numpy as np
import pytest

from hmnlab import zoo
from hmnlab.cli import apply_overrides, fmt, main, validate_config


def write_cfg(path, cfg):
    with open(path, "w") as f:
        json.dump(cfg, f)
    return str(path)


DECAY_CFG = {
    "experiment": "decay",
    "model": "ising_chain_n6",
    "engine": "classical",
    "beta": [0.1, 0.2],
    "distances": [1, 2, 3, 4],
    "channel": {"kind": "bitflip", "p": 0.2},
    "output": "decay",
}


def test_fmt():
    assert fmt(math.inf) == "inf"
    assert fmt(0.1) == "0.10000000000000001"
    assert fmt(3) == "3"


def test_apply_overrides():
    cfg = apply_overrides({"beta": [0.1]}, ["beta=[0.5]", "engine=dense"])
    assert cfg["beta"] == [0.5] and cfg["engine"] == "dense"
    with pytest.raises(ValueError):
        apply_overrides({}, ["nonsense"])


def test_validate_catches_problems(tmp_path):
    assert validate_config(dict(DECAY_CFG)) == []
    bad = dict(DECAY_CFG, engine="magic", experiment="nope", bogus=1)
    findings = validate_config(bad)
    assert len(findings) == 3
    assert validate_config(dict(DECAY_CFG, model="unknown_thing_n3"))


def test_run_decay_writes_artifacts(tmp_path):
    cfg = write_cfg(tmp_path / "c.json", DECAY_CFG)
    assert main(["run", cfg, "--output-dir", str(tmp_path)]) == 0
    csv = (tmp_path / "decay.csv").read_text()
    lines = csv.strip().split("\n")
    assert lines[0] == "beta,distance,cmi_bits"
    assert len(lines) == 1 + 2 * 4
    res = json.loads((tmp_path / "decay.json").read_text())
    assert len(res["fits"]) == 2
    man = json.loads((tmp_path / "decay.manifest.json").read_text())
    assert man["config"]["model"] == "ising_chain_n6"
    assert "caps" in man and "wall_clock_s" in man


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path / "c.json", DECAY_CFG)
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["run", cfg, "--output-dir", str(a)]) == 0
    assert main(["run", cfg, "--output-dir", str(b)]) == 0
    assert (a / "decay.csv").read_bytes() == (b / "decay.csv").read_bytes()
    assert (a / "decay.json").read_bytes() == (b / "decay.json").read_bytes()


def test_manifest_rerun_reproduces(tmp_path):
    cfg = write_cfg(tmp_path / "c.json", DECAY_CFG)
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["run", cfg, "--output-dir", str(a)]) == 0
    assert main(["run", str(a / "decay.manifest.json"), "--output-dir", str(b)]) == 0
    assert (a / "decay.csv").read_bytes() == (b / "decay.csv").read_bytes()


def test_override_changes_output(tmp_path):
    cfg = write_cfg(tmp_path / "c.json", DECAY_CFG)
    assert main(["run", cfg, "--output-dir", str(tmp_path), "--override", "beta=[0.0]"]) == 0
    lines = (tmp_path / "decay.csv").read_text().strip().split("\n")[1:]
    assert all(line.split(",")[2] == "0" for line in lines)


def test_cmi_experiment_with_model_file(tmp_path):
    model = write_cfg(
        tmp_path / "model.json",
        {
            "n_sites": 4,
            "terms": [
                {"support": [i, i + 1], "pauli": "ZZ", "lambda": -1.0}
                for i in range(3)
            ],
        },
    )
    cfg = write_cfg(
        tmp_path / "c.json",
        {
            "experiment": "cmi",
            "model": model,
            "engine": "pauli",
            "beta": [0.5, "inf"],
            "partition": {"a": [0], "b": [1, 2], "c": [3]},
            "channel": [{"site": 1, "kind": "bitflip", "p": 0.3}],
            "output": "cmi",
        },
    )
    assert main(["run", cfg, "--output-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "cmi.csv").read_text().strip().split("\n")
    assert lines[1].startswith("0.5,3,") and lines[2].startswith("inf,3,")


def test_certificates_exit_codes(tmp_path):
    base = {
        "experiment": "certificates",
        "model": "ising_chain_n5",
        "engine": "pauli",
        "channel": {"kind": "bitflip", "p": 0.2},
        "max_weight": 3,
        "output": "cert",
    }
    ok = write_cfg(tmp_path / "ok.json", dict(base, beta=[0.01]))
    assert main(["run", ok, "--output-dir", str(tmp_path)]) == 0
    res = json.loads((tmp_path / "cert.json").read_text())
    assert all(r["pass"] for r in res["certificates"])


def test_cluster_equivalence_cli(tmp_path):
    cfg = write_cfg(
        tmp_path / "c.json",
        {
            "experiment": "cluster_equivalence",
            "model": "cluster_chain_n5",
            "engine": "pauli",
            "beta": [0.5, 1.5],
            "n": 5,
            "output": "eq",
        },
    )
    assert main(["run", cfg, "--output-dir", str(tmp_path)]) == 0
    res = json.loads((tmp_path / "eq.json").read_text())
    assert all(r["pass"] for r in res["equivalence"])


def test_validate_subcommand(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.json", DECAY_CFG)
    assert main(["validate", cfg]) == 0
    assert "0 finding(s)" in capsys.readouterr().out
    bad = write_cfg(tmp_path / "bad.json", dict(DECAY_CFG, engine="magic"))
    assert main(["validate", bad]) == 0
    assert "1 finding(s)" in capsys.readouterr().out


def test_missing_config_is_tooling_error(tmp_path):
    assert main(["run", str(tmp_path / "missing.json"), "--output-dir", str(tmp_path)]) == 1


def test_invalid_config_refuses_to_run(tmp_path):
    cfg = write_cfg(tmp_path / "c.json", dict(DECAY_CFG, engine="magic"))
    assert main(["run", cfg, "--output-dir", str(tmp_path)]) == 1
    assert not os.path.exists(tmp_path / "decay.csv")


def test_validate_classical_engine_on_quantum_builtin(tmp_path):
    cfg = dict(DECAY_CFG, model="bell_chain_n5")
    assert any("non-diagonal" in f for f in validate_config(cfg))
    path = write_cfg(tmp_path / "c.json", cfg)
    assert main(["run", path, "--output-dir", str(tmp_path)]) == 1


def test_validate_model_file_without_partition(tmp_path):
    model = write_cfg(
        tmp_path / "model.json",
        {"n_sites": 3, "terms": [{"support": [0, 1], "pauli": "ZZ", "lambda": -1.0}]},
    )
    cfg = {"experiment": "cmi", "model": model, "engine": "pauli", "beta": [0.5]}
    assert any("partition" in f for f in validate_config(cfg))
    ok = dict(cfg, partition={"a": [0], "b": [1], "c": [2]})
    assert validate_config(ok) == []
    outside = dict(cfg, partition={"a": [0], "b": [1], "c": [5]})
    assert any("outside the model" in f for f in validate_config(outside))


def test_validate_non_increasing_distances(tmp_path):
    for distances in ([1, 3, 2], [2, 2]):
        cfg = dict(DECAY_CFG, distances=distances)
        assert any("strictly increasing" in f for f in validate_config(cfg))
        path = write_cfg(tmp_path / "c.json", cfg)
        assert main(["run", path, "--output-dir", str(tmp_path)]) == 1


CERT_CFG = {
    "experiment": "certificates",
    "model": "ising_chain_n5",
    "engine": "pauli",
    "beta": [0.01],
    "channel": {"kind": "bitflip", "p": 0.2},
    "max_weight": 3,
}
CMI_CFG = {"experiment": "cmi", "model": "ising_chain_n6", "engine": "classical", "beta": [0.5]}
CLUSTER_EQ_CFG = {"experiment": "cluster_equivalence", "engine": "pauli", "beta": [0.5], "n": 4}


@pytest.mark.parametrize(
    "cfg, message",
    [
        (dict(DECAY_CFG, experiment="cmi", model="ising_chain_n30", engine="pauli"), "29 terms exceed cap 22"),
        (dict(DECAY_CFG, experiment="cmi", model="ising_chain_n24"), "exceed memory cap"),
        (dict(DECAY_CFG, channel=[{"site": 1, "kind": "bitflip", "p": 0.2}]), "not a per-site list"),
        (dict(DECAY_CFG, channel={"kind": "bitflip", "p": 1.5}), "p 1.5 is not a probability"),
        (dict(DECAY_CFG, channel={"kind": "bitflip", "p": "abc"}), "p 'abc' is not a probability"),
        (dict(DECAY_CFG, beta=["hot"]), "beta 'hot'"),
        (dict(CERT_CFG, max_weight=9), "max weight 9 exceeds cap 8"),
        (dict(CERT_CFG, max_weight=-1), "max weight -1 is not an integer >= 1"),
        (dict(CERT_CFG, max_weight=0), "max weight 0 is not an integer >= 1"),
        (dict(CERT_CFG, max_weight=2.7), "max weight 2.7 is not an integer >= 1"),
        (dict(CERT_CFG, max_weight=True), "max weight True is not an integer >= 1"),
        (dict(DECAY_CFG, distances=[1, 2.5, 3]), "distance 2.5 is not an integer >= 1"),
        (dict(DECAY_CFG, distances=[0, 1, 2]), "distance 0 is not an integer >= 1"),
        (dict(DECAY_CFG, distances=[-1, 1, 2]), "distance -1 is not an integer >= 1"),
        (
            dict(DECAY_CFG, model="bell_chain_n5", engine="dense", channel={}, distances=[1, 2]),
            "bell chain needs at least 3 sites",
        ),
        (
            dict(DECAY_CFG, model="parity_chain_n5", channel={}, distances=[1, 2]),
            "parity chain needs at least 3 sites",
        ),
        (dict(DECAY_CFG, channel={"kind": "dephasing", "p": 0.2}), "kind 'dephasing'"),
        (dict(DECAY_CFG, channel={"kind": "nonsense", "p": 0.2}), "kind 'nonsense'"),
        (dict(DECAY_CFG, model="bell_chain_n5", engine="pauli"), "kind 'bitflip'"),
        (
            dict(DECAY_CFG, experiment="cmi", channel=[{"site": 1, "kind": "bitflip", "p": 0.2}]),
            "classical engine accepts transition-matrix channels only",
        ),
        (
            dict(
                DECAY_CFG,
                experiment="cmi",
                engine="pauli",
                channel=[{"site": 1, "kind": "transition", "matrix": [[0.9, 0.1], [0.1, 0.9]]}],
            ),
            "transition matrices have no Pauli damping profile",
        ),
        (
            dict(DECAY_CFG, model="bell_chain_n5", engine="dense", channel={"p": 0.3}),
            "the bell_chain bulk channel is fixed and takes no p",
        ),
        (
            dict(DECAY_CFG, model="parity_chain_n5", engine="dense", channel={"p": 0.3}),
            "the parity_chain bulk channel is fixed and takes no p",
        ),
        (
            dict(CMI_CFG, engine="pauli", channel=[{"site": 99, "kind": "bitflip", "p": 0.2}]),
            "channel site 99 is not a site of the model (0..5)",
        ),
        (
            dict(CMI_CFG, engine="dense", channel=[{"site": 99, "kind": "bitflip", "p": 0.2}]),
            "channel site 99 is not a site of the model (0..5)",
        ),
        (
            dict(CMI_CFG, engine="pauli", channel=[{"site": -1, "kind": "bitflip", "p": 0.2}]),
            "channel site -1 is not an integer >= 0",
        ),
        (
            dict(CMI_CFG, channel=[{"site": 1, "kind": "transition", "matrix": np.full((3, 3), 1 / 3).tolist()}]),
            "channel on site 1 acts on dimension 3, not the model's q = 2",
        ),
        (dict(CMI_CFG, engine="pauli", channel=[{"kind": "bitflip", "p": 0.2}]), "has no 'site'"),
        (dict(CMI_CFG, engine="pauli", channel=[{"site": 1, "p": 0.2}]), "has no 'kind'"),
        (
            dict(CMI_CFG, engine="pauli", channel=[{"site": 1, "kind": "bitflip", "p": 1.7}]),
            "channel p 1.7 is not a probability in [0, 1]",
        ),
        (dict(CLUSTER_EQ_CFG, n=4.7), "n 4.7 is not an integer >= 1"),
        (dict(CMI_CFG, beta=0.1), "beta 0.1 is not a list"),
        (dict(DECAY_CFG, distances=5), "distances 5 is not a list"),
        (dict(CMI_CFG, beta=["nan"]), "beta 'nan' is not a number or 'inf'"),
        (
            dict(CERT_CFG, model="parity_chain_n4", engine="classical", channel={}),
            "certificates need a unital channel layer",
        ),
        (dict(CERT_CFG, beta=["inf"]), "certificate beta inf is not in [0, inf)"),
        (dict(CERT_CFG, beta=[-0.01]), "certificate beta -0.01 is not in [0, inf)"),
        (dict(DECAY_CFG, channel={"kind": "bitflip", "p": True}), "channel p True is not a probability"),
    ],
    ids=[
        "pauli_term_cap",
        "classical_memory_cap",
        "decay_per_site_channels",
        "p_above_one",
        "p_not_a_number",
        "beta_not_a_number",
        "certificate_weight_cap",
        "certificate_weight_negative",
        "certificate_weight_zero",
        "certificate_weight_float",
        "certificate_weight_bool",
        "distance_float",
        "distance_zero",
        "distance_negative",
        "bell_chain_distance_one",
        "parity_chain_distance_one",
        "ising_dephasing_kind",
        "unknown_kind",
        "bell_chain_takes_no_kind",
        "classical_engine_quantum_channel",
        "pauli_engine_transition_channel",
        "bell_chain_takes_no_p",
        "parity_chain_takes_no_p",
        "channel_site_out_of_range_pauli",
        "channel_site_out_of_range_dense",
        "channel_site_negative",
        "channel_dimension_not_q",
        "channel_without_site",
        "channel_without_kind",
        "channel_p_above_one",
        "cluster_size_float",
        "beta_not_a_list",
        "distances_not_a_list",
        "beta_nan",
        "certificates_non_unital_layer",
        "certificate_beta_inf",
        "certificate_beta_negative",
        "p_bool",
    ],
)
def test_validate_reports_what_run_rejects(tmp_path, capsys, cfg, message):
    findings = validate_config(cfg)
    assert len(findings) == 1 and message in findings[0], findings
    path = write_cfg(tmp_path / "c.json", cfg)
    assert main(["run", path, "--output-dir", str(tmp_path)]) == 1
    assert f"error: {findings[0]}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["c.json"]


def test_certificates_take_the_dense_cap():
    """Certificates build dense series whatever the engine.  A 14-qubit chain
    would need a 16384 x 16384 matrix per series coefficient, so this is
    checked through validate only."""
    cfg = dict(CERT_CFG, model="ising_chain_n14")
    assert validate_config(cfg) == ["dimension 16384 exceeds dense cap 4096"]
    assert validate_config(dict(CERT_CFG, model="ising_chain_n12")) == []


def test_certificates_on_3x3_lattice(tmp_path):
    """12 ZZ bonds on a 3x3 lattice, bit-flip on the centre, weight 4: the
    commuting model runs in the character basis and every one of the 473
    connected clusters passes."""
    bonds = [(r * 3 + c, r * 3 + c + 1) for r in range(3) for c in range(2)]
    bonds += [(r * 3 + c, r * 3 + c + 3) for r in range(2) for c in range(3)]
    model = {"n_sites": 9, "terms": [{"support": list(e), "pauli": "ZZ", "lambda": -0.9} for e in bonds]}
    cfg = {
        "experiment": "certificates",
        "model": write_cfg(tmp_path / "lattice.json", model),
        "engine": "pauli",
        "beta": [0.01],
        "channel": [{"site": 4, "kind": "bitflip", "p": 0.2}],
        "partition": {"a": [0], "b": [1, 2, 3, 4, 5, 6, 7], "c": [8]},
        "max_weight": 4,
        "output": "cert",
    }
    assert main(["run", write_cfg(tmp_path / "c.json", cfg), "--output-dir", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "cert.json").read_text())["certificates"][0]
    assert len(rep["clusters"]) == 473
    assert rep["pass"] and all(c["pass"] for c in rep["clusters"])


BULK_CHANNEL = {"ising_chain": {"kind": "bitflip", "p": 0.2}, "cluster_chain": {"kind": "dephasing", "p": 0.2}}


@pytest.mark.parametrize("engine", ["classical", "dense", "pauli"])
@pytest.mark.parametrize("experiment", ["decay", "cmi", "certificates", "cluster_equivalence"])
@pytest.mark.parametrize("family", zoo.FAMILIES)
def test_validate_versus_run_grid(tmp_path, capsys, family, experiment, engine):
    """Every builtin family, experiment and engine at n = 4: a config that
    validate passes runs to a verdict (exit 0 or 2), and one it flags fails
    in run with exactly those findings."""
    cfg = {
        "experiment": experiment,
        "model": f"{family}_n4",
        "engine": engine,
        "beta": [0.5] if experiment != "certificates" else [0.01],
        "channel": BULK_CHANNEL.get(family, {}),
        "output": "out",
    }
    if experiment == "decay":
        cfg["distances"] = [2, 3]
    if experiment == "cluster_equivalence":
        cfg["n"] = 4
    findings = validate_config(cfg)
    rc = main(["run", write_cfg(tmp_path / "c.json", cfg), "--output-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if findings:
        assert rc == 1 and err == f"error: {'; '.join(findings)}\n"
    else:
        assert rc in (0, 2), err


def test_cluster_chain_decay_engines_agree(tmp_path):
    """cluster_chain decay runs on dense and on pauli and gives the same curve;
    at beta 0.5 and dephasing 0.2 only d = 2 keeps CMI."""
    cfg = dict(DECAY_CFG, model="cluster_chain_n4", beta=[0.5], distances=[2, 3, 4, 5],
               channel={"kind": "dephasing", "p": 0.2})
    curves = {}
    for engine in ("dense", "pauli"):
        out = tmp_path / engine
        assert main(["run", write_cfg(tmp_path / "c.json", dict(cfg, engine=engine)), "--output-dir", str(out)]) == 0
        rows = [line.split(",") for line in (out / "decay.csv").read_text().split()[1:]]
        assert [d for _, d, _ in rows] == ["2", "3", "4", "5"]
        curves[engine] = np.array([float(v) for _, _, v in rows])
    assert np.max(np.abs(curves["dense"] - curves["pauli"])) < 1e-9
    assert curves["pauli"][0] == pytest.approx(0.0562, abs=1e-4)
    assert np.max(curves["pauli"][1:]) < 1e-9


ZZ_CHAIN4 = {"n_sites": 4, "terms": [{"support": [i, i + 1], "pauli": "ZZ", "lambda": -1.0} for i in range(3)]}
PARTITION3 = {"a": [0], "b": [1], "c": [2]}


@pytest.mark.parametrize(
    "model, partition, message",
    [
        ({"n_sites": 4.7, "terms": []}, PARTITION3, "model file invalid: n_sites 4.7 is not an integer >= 1"),
        (
            {"n_sites": 4, "terms": [{"support": [0, 2.9], "pauli": "ZZ", "lambda": -1.0}]},
            PARTITION3,
            "model file invalid: support entry 2.9 is not an integer >= 0",
        ),
        (
            {"n_sites": 4, "terms": [{"support": [0, 0], "pauli": "XZ", "lambda": -1.0}]},
            PARTITION3,
            "model file invalid: term support (0, 0) lists a site twice",
        ),
        ({"terms": []}, PARTITION3, "model file invalid: no key 'n_sites'"),
        (ZZ_CHAIN4, {"a": [0.0], "b": [1], "c": [2]}, "partition site 0.0 is not an integer >= 0"),
        (ZZ_CHAIN4, {"a": [True], "b": [2], "c": [3]}, "partition site True is not an integer >= 0"),
    ],
    ids=["n_sites_float", "support_float", "support_twice", "no_n_sites", "partition_float", "partition_bool"],
)
def test_validate_reports_model_file_numbers(tmp_path, capsys, model, partition, message):
    """Model files and their partitions take ints only, and a missing model
    key is named."""
    cfg = {
        "experiment": "cmi",
        "model": write_cfg(tmp_path / "model.json", model),
        "engine": "pauli",
        "beta": [0.5],
        "partition": partition,
    }
    findings = validate_config(cfg)
    assert len(findings) == 1 and message in findings[0], findings
    assert main(["run", write_cfg(tmp_path / "c.json", cfg), "--output-dir", str(tmp_path / "out")]) == 1
    assert f"error: {findings[0]}" in capsys.readouterr().err
