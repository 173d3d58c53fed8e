import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from hmnlab import experiments, pauli, series, zoo
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
    assert all(float(f["slope_stderr"]) >= 0 for f in res["fits"])
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


# engine and config; the Bell chain's fixed bulk channel takes no config, and
# its Bell measurement keeps a subspace of the pauli term group
BELL_CFG = dict({k: v for k, v in DECAY_CFG.items() if k != "channel"}, model="bell_chain_n6", distances=[2, 3, 4, 5])
MANY_BETA_CASES = {
    **{engine: (engine, DECAY_CFG) for engine in ("classical", "dense", "pauli")},
    "bell_pauli": ("pauli", BELL_CFG),
}


@pytest.mark.parametrize("case", sorted(MANY_BETA_CASES))
def test_many_betas_write_the_rows_and_fits_of_one_beta_runs(tmp_path, monkeypatch, case):
    """A 3-beta decay and a 3-beta cmi write the CSV rows and the JSON of
    three 1-beta runs, byte for byte, and a decay builds each chain and its
    bulk layer once whatever the number of betas; the engine plans each
    point once, and on pauli finds each chain's term group, reads the
    layer's damping tables and finds each region's kernel once; the
    manifest times the one-off ``resolve`` and each beta."""
    engine, base = MANY_BETA_CASES[case]
    built, layers, planned, grouped, damped, kernels = [], [], [], [], [], []
    build, bulk_layer = zoo.build_model, zoo.bulk_layer
    monkeypatch.setattr(zoo, "build_model", lambda family, n: built.append(n) or build(family, n))
    monkeypatch.setattr(zoo, "bulk_layer", lambda *args: layers.append(args) or bulk_layer(*args))
    eng, term_group, damping, region = experiments.ENGINES[engine], pauli.term_group, pauli.damping, pauli.region
    plan = eng.plan
    monkeypatch.setattr(eng, "plan", lambda h, layer, rs: planned.append(h.site_graph.n_sites) or plan(h, layer, rs))
    monkeypatch.setattr(pauli, "term_group", lambda h: grouped.append(h.site_graph.n_sites) or term_group(h))
    monkeypatch.setattr(pauli, "damping", lambda g, *args: damped.append(g.n_sites) or damping(g, *args))
    monkeypatch.setattr(pauli, "region", lambda g, *args: kernels.append(g.n_sites) or region(g, *args))
    betas = [0.3, 1.0, "inf"]
    for exp in ("decay", "cmi"):
        cfg = dict(base, experiment=exp, engine=engine)
        if exp == "cmi":
            del cfg["distances"]
        texts = []
        for run in [betas] + [[b] for b in betas]:
            for calls in (built, layers, planned, grouped, damped, kernels):
                calls.clear()
            out = tmp_path / f"{exp}{len(texts)}"
            assert main(["run", write_cfg(tmp_path / "c.json", dict(cfg, beta=run)), "--output-dir", str(out)]) == 0
            chains = [d + 1 for d in base["distances"]] if exp == "decay" else [6]
            assert sorted(built) == chains and len(layers) == 1
            assert sorted(planned) == sorted(built)
            on_pauli = sorted(built) if engine == "pauli" else []
            assert sorted(grouped) == sorted(damped) == on_pauli
            assert sorted(kernels) == sorted(on_pauli * 4)  # AB, BC, B and ABC
            texts.append([(out / f"decay.{ext}").read_text() for ext in ("csv", "json")])
            wall = json.loads((out / "decay.manifest.json").read_text())["wall_clock_s"]
            assert set(wall) == {"resolve", *(f"beta={fmt(float(b))}" for b in run)}
        (csv, res), *ones = texts
        assert csv == "beta,distance,cmi_bits\n" + "".join(c.split("\n", 1)[1] for c, _ in ones)
        merged = {"experiment": exp}
        if exp == "decay":
            merged["fits"] = [f for _, r in ones for f in json.loads(r)["fits"]]
        assert res == json.dumps(merged, indent=2, sort_keys=True) + "\n"
        assert all(r == json.dumps(json.loads(r), indent=2, sort_keys=True) + "\n" for _, r in ones)


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


@pytest.mark.parametrize("engine", ["pauli", "dense"])
def test_cluster_equivalence_cli_at_beta_zero(tmp_path, engine):
    """At beta = 0 the dephasing p = 1/2 zeroes every X-carrying stabilizer,
    so the dephased pauli state keeps the identity alone; both states are
    compared on one index and the check passes."""
    cfg = {"experiment": "cluster_equivalence", "engine": engine, "beta": [0.0, 0.5], "n": 5, "output": "eq"}
    assert main(["run", write_cfg(tmp_path / "c.json", cfg), "--output-dir", str(tmp_path)]) == 0
    res = json.loads((tmp_path / "eq.json").read_text())["equivalence"]
    assert [r["p"] for r in res][0] == "0.5" and all(r["pass"] for r in res)


@pytest.mark.parametrize("engine", ["pauli", "dense"])
def test_cluster_equivalence_past_the_range_of_exp(tmp_path, engine):
    """e^{2 beta} overflows a float above beta ~354.9, where the dephasing
    p = 1/(e^{2 beta}+1) is e^{-2 beta} (0 here): the run passes, as at inf."""
    cfg = {"experiment": "cluster_equivalence", "engine": engine, "beta": [400, 1e6], "n": 4, "output": "eq"}
    assert validate_config(cfg) == []
    assert main(["run", write_cfg(tmp_path / "c.json", cfg), "--output-dir", str(tmp_path)]) == 0
    res = json.loads((tmp_path / "eq.json").read_text())["equivalence"]
    assert [r["p"] for r in res] == ["0", "0"] and all(r["pass"] is True for r in res)


@pytest.mark.parametrize("n, distances", [(13, list(range(2, 13))), (41, list(range(2, 41, 2)))])
def test_bell_chain_decay_past_the_old_term_cap(tmp_path, capsys, n, distances):
    """bell_chain_n13 (24 terms) and bell_chain_n41 (80 terms) validate and
    run on pauli: Bell measurement keeps two generators, every beta = inf
    row reads exactly 2 bits (marginals of up to 80 qubits, whose flat
    spectra give integer entropies), the beta = 1 rows decay, and a rerun
    writes the same bytes."""
    cfg = {
        "experiment": "decay",
        "model": f"bell_chain_n{n}",
        "engine": "pauli",
        "beta": ["inf", 1.0],
        "distances": distances,
        "output": "bell",
    }
    path = write_cfg(tmp_path / "c.json", cfg)
    assert main(["validate", path]) == 0
    assert capsys.readouterr().out == "0 finding(s)\n"
    assert main(["run", path, "--output-dir", str(tmp_path / "out")]) == 0
    rows = [r.split(",") for r in (tmp_path / "out" / "bell.csv").read_text().split()[1:]]
    cold = [(int(d), float(v)) for b, d, v in rows if b == "inf"]
    warm = [float(v) for b, _, v in rows if b == "1"]
    assert [d for d, _ in cold] == distances and len(warm) == len(distances)
    assert all(v == 2.0 for _, v in cold)
    assert all(a > b > 0 for a, b in zip(warm, warm[1:]))
    assert main(["run", str(tmp_path / "out" / "bell.manifest.json"), "--output-dir", str(tmp_path / "rerun")]) == 0
    for name in ("bell.csv", "bell.json"):
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "rerun" / name).read_bytes()


def test_validate_reports_the_kept_rank(tmp_path, capsys):
    """Bit-flip p = 1/2 on a bulk site keeps the products with even Z parity
    there, one generator fewer per site: on the 40-site Ising chain 10 such
    sites keep rank 29, a finding whose text run fails with, and 20 keep
    rank 19, which runs."""
    cfg = {
        "experiment": "cmi",
        "model": "ising_chain_n40",
        "engine": "pauli",
        "beta": [0.5],
        "output": "cmi",
    }
    too_big = dict(cfg, channel=[{"site": s, "kind": "bitflip", "p": 0.5} for s in range(1, 11)])
    assert validate_config(too_big) == ["pauli expansion of rank 29 exceeds cap 22"]
    path = write_cfg(tmp_path / "big.json", too_big)
    assert main(["validate", path]) == 1
    assert main(["run", path, "--output-dir", str(tmp_path / "out")]) == 1
    assert "error: pauli expansion of rank 29 exceeds cap 22" in capsys.readouterr().err
    fits = dict(cfg, channel=[{"site": s, "kind": "bitflip", "p": 0.5} for s in range(1, 21)])
    assert validate_config(fits) == []
    assert main(["run", write_cfg(tmp_path / "fits.json", fits), "--output-dir", str(tmp_path / "out")]) == 0


def test_validate_subcommand(tmp_path, capsys):
    """validate exits 0 with no finding and 1 with any, so a script can
    branch on the exit code."""
    cfg = write_cfg(tmp_path / "c.json", DECAY_CFG)
    assert main(["validate", cfg]) == 0
    assert "0 finding(s)" in capsys.readouterr().out
    bad = write_cfg(tmp_path / "bad.json", dict(DECAY_CFG, engine="magic"))
    assert main(["validate", bad]) == 1
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
# the test writes this model outside its tmp_path, which must end up
# holding only the config
ZZ_CHAIN3_FILE = "<3-site ZZ chain model file>"
ZZ_CHAIN3 = {"n_sites": 3, "terms": [{"support": [i, i + 1], "pauli": "ZZ", "lambda": -1.0} for i in range(2)]}
FILE_CMI_CFG = dict(CMI_CFG, model=ZZ_CHAIN3_FILE, engine="pauli", partition={"a": [0], "b": [1], "c": [2]})
# the Hadamard gate as one Kraus operator of [re, im] pairs: neither
# diagonal-keeping nor Pauli-diagonal
H = 1 / math.sqrt(2)
HADAMARD_PAIRS = [[[[H, 0], [H, 0]], [[H, 0], [-H, 0]]]]


@pytest.mark.parametrize(
    "cfg, message",
    [
        (dict(CMI_CFG, model="ising_chain_n30", engine="pauli"), "pauli expansion of rank 29 exceeds cap 22"),
        (dict(CMI_CFG, model="ising_chain_n24"), "exceed memory cap"),
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
            dict(CMI_CFG, channel=[{"site": 1, "kind": "kraus", "kraus": HADAMARD_PAIRS}]),
            "classical engine needs channels that keep diagonal states diagonal",
        ),
        (
            dict(
                CMI_CFG,
                engine="pauli",
                channel=[{"site": 1, "kind": "transition", "matrix": [[1.0, 0.6], [0.0, 0.4]]}],
            ),
            "channel is not diagonal in the Pauli basis",
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
        (
            dict(CMI_CFG, engine="pauli", channel={"kind": "bitflip", "p": 0.2}, partition={"a": [0], "b": [1], "c": [2]}),
            "builtin model 'ising_chain_n6' uses the boundary partition",
        ),
        (dict(DECAY_CFG, partition={"a": [0], "b": [1], "c": [2]}), "a partition is read only with a model file"),
        (dict(CMI_CFG, distances=[1, 2]), "distances is read only by decay experiments, not by cmi"),
        (dict(DECAY_CFG, max_weight=2), "max_weight is read only by certificates experiments, not by decay"),
        (dict(CERT_CFG, n=4), "n is read only by cluster_equivalence experiments, not by certificates"),
        (
            dict(CLUSTER_EQ_CFG, max_weight=2),
            "max_weight is read only by certificates experiments, not by cluster_equivalence",
        ),
        (
            dict(CLUSTER_EQ_CFG, channel="garbage"),
            "channel is read only by decay, cmi, certificates experiments, not by cluster_equivalence",
        ),
        (
            dict(CLUSTER_EQ_CFG, channel=[{"site": 1, "kind": "bitflip", "p": 0.9}]),
            "channel is read only by decay, cmi, certificates experiments, not by cluster_equivalence",
        ),
        (
            dict(CLUSTER_EQ_CFG, partition={"a": [0], "b": [1], "c": [2]}),
            "partition is read only by decay, cmi, certificates experiments, not by cluster_equivalence",
        ),
        (dict(CLUSTER_EQ_CFG, model=17), "model 17 is not 'cluster_chain_n4'"),
        (dict(CLUSTER_EQ_CFG, model="cluster_chain_n5"), "model 'cluster_chain_n5' is not 'cluster_chain_n4'"),
        (dict(CLUSTER_EQ_CFG, model="ising_chain_n4"), "model 'ising_chain_n4' is not 'cluster_chain_n4'"),
        (
            dict(CMI_CFG, model="ising_chain_n5", channel=[{"site": 2, "kind": "transition", "matrix": [[math.nan, 0.5], [0.5, 0.5]]}]),
            "transition matrix has a non-finite entry",
        ),
        (
            dict(
                CMI_CFG,
                model="ising_chain_n5",
                engine="dense",
                channel=[{"site": 2, "kind": "kraus", "kraus": [[[[math.nan, 0], [0, 0]], [[0, 0], [1, 0]]]]}],
            ),
            "Kraus operator has a non-finite entry",
        ),
        (
            dict(CMI_CFG, model="ising_chain_n5", channel=[{"site": 2, "kind": "transition", "matrix": [[0.5, 0.5, 1.0], [0.5, 0.5, 0.0]]}]),
            "transition matrix of shape (2, 3) is not square",
        ),
        (dict(CMI_CFG, beta=[-400, -0.5]), "beta -400 is not in [0, inf]"),
        (dict(CMI_CFG, engine="dense", beta=[-400, -0.5]), "beta -400 is not in [0, inf]"),
        (dict(CMI_CFG, engine="pauli", beta=[-400, -0.5]), "beta -400 is not in [0, inf]"),
        (dict(DECAY_CFG, beta=[0.1, -0.5]), "beta -0.5 is not in [0, inf]"),
        (dict(CLUSTER_EQ_CFG, beta=["inf", -0.5]), "beta -0.5 is not in [0, inf]"),
        (dict(DECAY_CFG, channel=0.1), "channel 0.1 is not a bulk channel object {kind, p}"),
        (dict(DECAY_CFG, channel="bitflip"), "channel 'bitflip' is not a bulk channel object {kind, p}"),
        (dict(CMI_CFG, channel="bitflip"), "channel 'bitflip' is not a bulk channel object {kind, p}"),
        (dict(DECAY_CFG, output=5), "output 5 is not a file name"),
        (dict(DECAY_CFG, output="sub/dir/x"), "output 'sub/dir/x' is not a file name"),
        (dict(DECAY_CFG, output=""), "output '' is not a file name"),
        (dict(CLUSTER_EQ_CFG, output=".."), "output '..' is not a file name"),
        (dict(CMI_CFG, output="a\0b"), "output 'a\\x00b' is not a file name"),
        (dict(FILE_CMI_CFG, channel=0), "channel 0 is not a list of per-site channels"),
        (dict(FILE_CMI_CFG, channel=False), "channel False is not a list of per-site channels"),
        (dict(FILE_CMI_CFG, channel=""), "channel '' is not a list of per-site channels"),
        (dict(CMI_CFG, engine="pauli", beta=[True, False]), "beta True is not a number or 'inf'"),
        (
            dict(CMI_CFG, engine="dense", channel=[{"site": 1, "kind": "kraus", "kraus": [[1, 0], [0, 1]]}]),
            "channel kraus [[1, 0], [0, 1]] is not a list of matrices of [re, im] pairs",
        ),
        (
            dict(CMI_CFG, engine="dense", channel=[{"site": 1, "kind": "kraus", "kraus": 5}]),
            "channel kraus 5 is not a list of matrices of [re, im] pairs",
        ),
        (
            dict(CMI_CFG, engine="dense", channel=[{"site": 1, "kind": "kraus", "kraus": [[[1, 0], [0, 1]]]}]),
            "channel kraus [[[1, 0], [0, 1]]] is not a list of matrices of [re, im] pairs",
        ),
        (
            dict(CMI_CFG, channel=[{"site": 1, "kind": "transition", "matrix": [[0.9, "a"], [0.1, 0.9]]}]),
            "channel matrix [[0.9, 'a'], [0.1, 0.9]] is not a matrix of numbers",
        ),
        (dict(FILE_CMI_CFG, partition={"a": [0], "B": [1], "c": [2]}), "unknown partition keys: ['B']"),
        (
            {k: v for k, v in FILE_CMI_CFG.items() if k != "partition"},
            'a model file needs a partition {"a": [...], "b": [...], "c": [...]}, not None',
        ),
        (
            dict(FILE_CMI_CFG, partition=[0, 1]),
            'a model file needs a partition {"a": [...], "b": [...], "c": [...]}, not [0, 1]',
        ),
        (dict(FILE_CMI_CFG, partition={"a": 5, "b": [1], "c": [2]}), "partition a 5 is not a list"),
        (
            dict(FILE_CMI_CFG, partition={"a": [0], "b": [0], "c": [2]}),
            "partition {'a': [0], 'b': [0], 'c': [2]}: regions must be pairwise disjoint",
        ),
        (
            dict(FILE_CMI_CFG, partition={"a": [], "b": [1], "c": [2]}),
            "partition {'a': [], 'b': [1], 'c': [2]}: A and C must be nonempty",
        ),
        (
            dict(CERT_CFG, model=ZZ_CHAIN3_FILE, channel=[{"site": 1, "kind": "bitflip", "p": 0.2}],
                 partition={"a": [0], "B": [1], "c": [2]}),
            "unknown partition keys: ['B']",
        ),
        (
            dict(CMI_CFG, channel=[{"site": 1, "kind": "transition", "matrix": [[True, False], [False, True]]}]),
            "channel matrix [[True, False], [False, True]] is not a matrix of numbers",
        ),
        (
            dict(CMI_CFG, channel=[{"site": 1, "kind": "transition", "matrix": [[0.9, "0.1"], [0.1, 0.9]]}]),
            "channel matrix [[0.9, '0.1'], [0.1, 0.9]] is not a matrix of numbers",
        ),
        (
            dict(CMI_CFG, engine="dense", channel=[{"site": 1, "kind": "kraus", "kraus": [[[[True, 0], [0, 0]], [[0, 0], [1, 0]]]]}]),
            "channel kraus [[[[True, 0], [0, 0]], [[0, 0], [1, 0]]]] is not a list of matrices of [re, im] pairs",
        ),
        (dict(DECAY_CFG, channel={"kind": "bitflip", "p": "0.3"}), "channel p '0.3' is not a probability in [0, 1]"),
        (
            dict(CMI_CFG, engine="pauli", channel=[{"site": 1, "kind": "bitflip", "p": "0.3"}]),
            "channel p '0.3' is not a probability in [0, 1]",
        ),
        (dict(CMI_CFG, beta=["0.5"]), "beta '0.5' is not a number or 'inf'"),
        (dict(CMI_CFG, beta=["Infinity"]), "beta 'Infinity' is not a number or 'inf'"),
        (dict(CMI_CFG, beta=["1e999"]), "beta '1e999' is not a number or 'inf'"),
        (
            dict(CMI_CFG, engine="pauli", channel=[{"site": 1, "kind": "bitflip", "p": 0.1, "matrix": [[1, 0], [0, 1]]}]),
            "channel kind 'bitflip' does not read ['matrix']",
        ),
        (
            dict(CMI_CFG, channel=[{"site": 1, "kind": "transition", "matrix": [[0.9, 0.1], [0.1, 0.9]], "p": 0.7}]),
            "channel kind 'transition' does not read ['p']",
        ),
        (
            dict(CMI_CFG, engine="dense", channel=[{"site": 1, "kind": "kraus", "kraus": HADAMARD_PAIRS, "p": 0.2}]),
            "channel kind 'kraus' does not read ['p']",
        ),
        (dict(CERT_CFG, beta=[]), "beta [] is not a nonempty list of distinct values"),
        (dict(CMI_CFG, beta=[0.3, 0.3]), "beta [0.3, 0.3] is not a nonempty list of distinct values"),
        (dict(DECAY_CFG, beta=["inf", 1, "inf"]), "beta ['inf', 1, 'inf'] is not a nonempty list of distinct values"),
        (dict(CLUSTER_EQ_CFG, beta=[1, 1.0]), "beta [1, 1.0] is not a nonempty list of distinct values"),
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
        "partition_on_builtin_cmi",
        "partition_on_decay",
        "distances_on_cmi",
        "max_weight_on_decay",
        "n_on_certificates",
        "max_weight_on_cluster_equivalence",
        "garbage_channel_on_cluster_equivalence",
        "bitflip_channel_on_cluster_equivalence",
        "partition_on_cluster_equivalence",
        "model_not_an_id_on_cluster_equivalence",
        "model_of_another_size_on_cluster_equivalence",
        "model_of_another_family_on_cluster_equivalence",
        "transition_nan_entry",
        "kraus_nan_entry",
        "transition_not_square",
        "cmi_beta_negative_classical",
        "cmi_beta_negative_dense",
        "cmi_beta_negative_pauli",
        "decay_beta_negative",
        "cluster_equivalence_beta_negative",
        "decay_channel_a_number",
        "decay_channel_a_string",
        "cmi_channel_a_string",
        "output_not_a_string",
        "output_a_path",
        "output_empty",
        "output_parent_directory",
        "output_nul_byte",
        "model_file_channel_zero",
        "model_file_channel_false",
        "model_file_channel_empty_string",
        "beta_bool",
        "kraus_real_matrix",
        "kraus_a_number",
        "kraus_without_pairs",
        "transition_string_entry",
        "partition_key_typo",
        "partition_missing",
        "partition_a_list",
        "partition_region_a_number",
        "partition_regions_overlap",
        "partition_a_empty",
        "certificates_partition_key_typo",
        "transition_bool_entries",
        "transition_numeric_string",
        "kraus_bool_leaf",
        "p_numeric_string",
        "channel_p_numeric_string",
        "beta_numeric_string",
        "beta_infinity_string",
        "beta_overflow_string",
        "bitflip_with_a_matrix",
        "transition_with_a_p",
        "kraus_with_a_p",
        "certificates_beta_empty",
        "cmi_beta_repeated",
        "decay_beta_inf_repeated",
        "cluster_equivalence_beta_int_and_float",
    ],
)
def test_validate_reports_what_run_rejects(tmp_path_factory, tmp_path, capsys, cfg, message):
    if cfg.get("model") == ZZ_CHAIN3_FILE:
        cfg = dict(cfg, model=write_cfg(tmp_path_factory.mktemp("model") / "zz3.json", ZZ_CHAIN3))
    findings = validate_config(cfg)
    assert len(findings) == 1 and message in findings[0], findings
    path = write_cfg(tmp_path / "c.json", cfg)
    assert main(["run", path, "--output-dir", str(tmp_path)]) == 1
    assert f"error: {findings[0]}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["c.json"]


@pytest.mark.parametrize(
    "cfg, findings",
    [
        (
            dict(CMI_CFG, distances=[1, 2], max_weight=2, n=4),
            [
                "distances is read only by decay experiments, not by cmi",
                "max_weight is read only by certificates experiments, not by cmi",
                "n is read only by cluster_equivalence experiments, not by cmi",
            ],
        ),
        (
            dict(DECAY_CFG, max_weight="x", n="y"),
            [
                "max_weight is read only by certificates experiments, not by decay",
                "n is read only by cluster_equivalence experiments, not by decay",
            ],
        ),
        (
            dict(CLUSTER_EQ_CFG, channel="garbage", model=17),
            [
                "channel is read only by decay, cmi, certificates experiments, not by cluster_equivalence",
                "cluster_equivalence runs the cluster chain of n = 4 sites; model 17 is not 'cluster_chain_n4'",
            ],
        ),
        (
            dict(
                CLUSTER_EQ_CFG,
                channel=[{"site": 1, "kind": "bitflip", "p": 0.9}],
                partition={"a": [0], "b": [1], "c": [2]},
            ),
            [
                "channel is read only by decay, cmi, certificates experiments, not by cluster_equivalence",
                "partition is read only by decay, cmi, certificates experiments, not by cluster_equivalence",
            ],
        ),
    ],
    ids=[
        "cmi_with_three_unread_keys",
        "decay_with_unread_strings",
        "cluster_equivalence_with_garbage_channel_and_model",
        "cluster_equivalence_with_channel_and_partition",
    ],
)
def test_validate_names_every_unread_key(tmp_path, capsys, cfg, findings):
    """One finding per key the experiment does not read, and run refuses with
    all of them."""
    assert validate_config(cfg) == findings
    assert main(["run", write_cfg(tmp_path / "c.json", cfg), "--output-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {'; '.join(findings)}\n"


def _cmi_csv(tmp_path, name, cfg):
    assert validate_config(cfg) == []
    assert main(["run", write_cfg(tmp_path / f"{name}.json", cfg), "--output-dir", str(tmp_path / name)]) == 0
    return (tmp_path / name / "cmi.csv").read_text()


def test_engines_take_a_channel_by_what_it_does(tmp_path):
    """The classical engine takes a bit-flip written as a Pauli mixture and
    writes the bytes of the same channel written as a transition matrix; the
    pauli engine takes that symmetric transition, which is Pauli-diagonal,
    and agrees with the classical engine."""
    flip = [[0.9, 0.1], [0.1, 0.9]]
    base = dict(CMI_CFG, beta=[0.3, 1.0, "inf"], output="cmi")
    as_matrix = [{"site": s, "kind": "transition", "matrix": flip} for s in (1, 2, 3, 4)]
    as_bitflip = [{"site": s, "kind": "bitflip", "p": 0.1} for s in (1, 2, 3, 4)]
    classical = _cmi_csv(tmp_path, "matrix", dict(base, channel=as_matrix))
    assert _cmi_csv(tmp_path, "bitflip", dict(base, channel=as_bitflip)) == classical
    on_pauli = _cmi_csv(tmp_path, "pauli", dict(base, engine="pauli", channel=as_matrix))
    for row, ref in zip(on_pauli.splitlines()[1:], classical.splitlines()[1:]):
        assert float(row.split(",")[2]) == pytest.approx(float(ref.split(",")[2]), abs=1e-10)


def test_config_not_an_object(tmp_path, capsys):
    """A config file holding a JSON list: validate and run exit 1 with the
    same one-line message and write nothing."""
    path = write_cfg(tmp_path / "c.json", [1, 2])
    errors = []
    for argv in (["validate", path], ["run", path, "--output-dir", str(tmp_path)]):
        assert main(argv) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == f"error: config in {path} is not a JSON object\n"
    assert os.listdir(tmp_path) == ["c.json"]


def test_cmi_manifest_rerun_reproduces(tmp_path):
    """A cmi run on a builtin model reruns from its manifest byte for byte."""
    cfg = dict(CMI_CFG, engine="pauli", channel={"kind": "bitflip", "p": 0.2}, output="cmi")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", write_cfg(tmp_path / "c.json", cfg), "--output-dir", str(a)]) == 0
    assert main(["run", str(a / "cmi.manifest.json"), "--output-dir", str(b)]) == 0
    for ext in (".csv", ".json"):
        assert (a / f"cmi{ext}").read_bytes() == (b / f"cmi{ext}").read_bytes()


def test_readme_configs_validate():
    """Every fenced json block of README.md that is an experiment config
    passes validate."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", readme, re.S)]
    configs = [b for b in blocks if isinstance(b, dict) and "experiment" in b]
    assert configs
    for cfg in configs:
        assert validate_config(cfg) == [], cfg


def test_cluster_equivalence_takes_its_own_chain_id():
    """A model on cluster_equivalence names the chain the run builds: the
    cluster chain of n sites (n = 6 when not given)."""
    assert validate_config(dict(CLUSTER_EQ_CFG, model="cluster_chain_n4")) == []
    assert validate_config(dict(CLUSTER_EQ_CFG, model="cluster_chain_n3", n=3)) == []
    no_n = {k: v for k, v in CLUSTER_EQ_CFG.items() if k != "n"}
    assert validate_config(dict(no_n, model="cluster_chain_n6")) == []


def test_certificates_on_a_model_file_need_no_partition(tmp_path):
    """Certificates never read a partition: a model-file certificate config
    without one is valid and runs to a verdict, while a partition it is
    given is still checked."""
    model = write_cfg(
        tmp_path / "model.json",
        {"n_sites": 3, "terms": [{"support": [i, i + 1], "pauli": "ZZ", "lambda": -1.0} for i in range(2)]},
    )
    cfg = {
        "experiment": "certificates",
        "model": model,
        "engine": "pauli",
        "beta": [0.01],
        "channel": [{"site": 1, "kind": "bitflip", "p": 0.2}],
        "max_weight": 3,
        "output": "cert",
    }
    assert validate_config(cfg) == []
    assert main(["run", write_cfg(tmp_path / "c.json", cfg), "--output-dir", str(tmp_path / "out")]) in (0, 2)
    assert validate_config(dict(cfg, partition={"a": [0], "b": [1], "c": [2]})) == []
    outside = dict(cfg, partition={"a": [0], "b": [1], "c": [5]})
    assert validate_config(outside) == ["partition names sites outside the model"]


def test_certificates_refuse_non_commuting_terms(tmp_path, capsys):
    """X on 0, ZZ on (0, 1) and X on 1: the series would expand
    E[Pi_a e^{-beta lam_a h_a}], which is not the Gibbs state of
    non-commuting terms, so validate reports the model and run refuses it."""
    terms = [("X", [0]), ("ZZ", [0, 1]), ("X", [1])]
    model = {"n_sites": 2, "terms": [{"support": s, "pauli": lab, "lambda": -0.9} for lab, s in terms]}
    cfg = {
        "experiment": "certificates",
        "model": write_cfg(tmp_path / "model.json", model),
        "engine": "dense",
        "beta": [0.05],
        "max_weight": 3,
    }
    message = "certificates need commuting terms, and this model's terms do not all commute"
    assert validate_config(cfg) == [message]
    assert main(["run", write_cfg(tmp_path / "c.json", cfg), "--output-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_failing_certificate_exits_2_and_writes_its_report(tmp_path, monkeypatch):
    """One cluster made to fail, whatever bound the certificate computes:
    run exits 2, the status of a failed check, and still writes the report."""
    real = series.derivative_norm_certificate

    def one_fails(*args):
        rep = real(*args)
        rep["clusters"][0]["pass"] = False
        rep["violations"], rep["pass"] = 1, False
        return rep

    monkeypatch.setattr(series, "derivative_norm_certificate", one_fails)
    cfg = write_cfg(tmp_path / "c.json", dict(CERT_CFG, output="cert"))
    assert main(["run", cfg, "--output-dir", str(tmp_path / "out")]) == 2
    (rep,) = json.loads((tmp_path / "out" / "cert.json").read_text())["certificates"]
    assert rep["pass"] is False and rep["violations"] == 1 and rep["clusters"][0]["pass"] is False
    assert (tmp_path / "out" / "cert.manifest.json").exists()


def test_many_betas_write_the_certificates_of_one_beta_runs(tmp_path, monkeypatch):
    """The README certificate example at three betas writes the
    ``certificates`` lists of three 1-beta runs, byte for byte, and plans the
    certificate once: one cluster enumeration and one term group per run."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", readme, re.S)]
    (cfg,) = [b for b in blocks if isinstance(b, dict) and b.get("output") == "cert"]
    calls = []
    cluster_keys, term_group = series._cluster_keys, pauli.term_group
    monkeypatch.setattr(series, "_cluster_keys", lambda *args: calls.append("keys") or cluster_keys(*args))
    monkeypatch.setattr(pauli, "term_group", lambda h: calls.append("group") or term_group(h))
    betas = [0.01, 0.02, 0.03]
    texts = []
    for run in [betas] + [[b] for b in betas]:
        calls.clear()
        out = tmp_path / f"run{len(texts)}"
        assert main(["run", write_cfg(tmp_path / "c.json", dict(cfg, beta=run)), "--output-dir", str(out)]) == 0
        assert sorted(calls) == ["group", "keys"]
        texts.append((out / "cert.json").read_text())
    merged = [rep for text in texts[1:] for rep in json.loads(text)["certificates"]]
    assert texts[0] == json.dumps({"certificates": merged, "experiment": "certificates"}, indent=2, sort_keys=True) + "\n"


def test_validate_reports_the_cluster_cap(tmp_path, monkeypatch, capsys):
    """The 2x3 ZZ lattice has 172 connected clusters of weight <= 4: under a
    cap of 100 validate reports it, and run refuses it and writes nothing."""
    edges = [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]
    model = {"n_sites": 6, "terms": [{"support": list(e), "pauli": "ZZ", "lambda": -0.9} for e in edges]}
    cfg = {
        "experiment": "certificates",
        "model": write_cfg(tmp_path / "lattice.json", model),
        "engine": "dense",
        "beta": [0.03],
        "channel": [{"site": s, "kind": "bitflip", "p": 0.2} for s in (1, 2, 3, 4)],
        "max_weight": 4,
    }
    assert validate_config(cfg) == []
    monkeypatch.setattr(series, "CLUSTER_COUNT_CAP", 100)
    assert validate_config(cfg) == ["cluster enumeration budget exceeded"]
    assert main(["run", write_cfg(tmp_path / "c.json", cfg), "--output-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: cluster enumeration budget exceeded\n"
    assert not (tmp_path / "out").exists()


def _kraus_pairs(ops):
    return [[[[float(z.real), float(z.imag)] for z in row] for row in k] for k in ops]


def test_certificates_read_unitality_off_kraus_operators():
    """A Kraus layer is unital when sum K K^+ = I: amplitude damping is not,
    so certificates refuse it; dephasing written as Kraus operators is."""
    damping = [np.diag([1.0, math.sqrt(0.7)]), np.array([[0.0, math.sqrt(0.3)], [0.0, 0.0]])]
    dephasing = [math.sqrt(0.8) * np.eye(2), math.sqrt(0.2) * np.diag([1.0, -1.0])]

    def cfg(ops):
        return dict(CERT_CFG, channel=[{"site": 2, "kind": "kraus", "kraus": _kraus_pairs(ops)}])

    assert validate_config(cfg(damping)) == [
        "certificates need a unital channel layer (E[I] = I), which this one is not"
    ]
    assert validate_config(cfg(dephasing)) == []


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


def test_zz_model_file_runs_on_classical_as_its_tables(tmp_path):
    """A model file of "pauli": "ZZ" terms runs on classical and writes the
    bytes of its "diag" twin, and its CMI agrees with pauli's to 1e-12."""
    artifacts = {}
    for form, op in (("zz", {"pauli": "ZZ"}), ("diag", {"diag": [1, -1, -1, 1]})):
        terms = [{**op, "support": [i, i + 1], "lambda": -1.0} for i in range(4)]
        model = write_cfg(tmp_path / f"{form}.json", {"n_sites": 5, "terms": terms})
        for engine in ("classical", "pauli") if form == "zz" else ("classical",):
            cfg = {
                "experiment": "cmi",
                "model": model,
                "engine": engine,
                "beta": [0.3, 1.0, "inf"],
                "partition": {"a": [0], "b": [1, 2, 3], "c": [4]},
                "channel": [{"site": s, "kind": "bitflip", "p": 0.1} for s in (1, 2, 3)],
                "output": "cmi",
            }
            out = tmp_path / f"{form}_{engine}"
            assert main(["run", write_cfg(tmp_path / "c.json", cfg), "--output-dir", str(out)]) == 0
            artifacts[form, engine] = [(out / f"cmi{ext}").read_text() for ext in (".csv", ".json")]
    assert artifacts["zz", "classical"] == artifacts["diag", "classical"]
    cmi = {e: [float(r.split(",")[2]) for r in artifacts["zz", e][0].split()[1:]] for e in ("classical", "pauli")}
    assert len(cmi["classical"]) == 3
    assert np.allclose(cmi["classical"], cmi["pauli"], rtol=0, atol=1e-12)


def test_classical_certificate_on_a_builtin_chain_takes_characters(tmp_path):
    """The builtin Ising chain is ZZ strings on every engine, so a classical
    certificate on ising_chain_n10 at weight 4 takes the character route.
    On (1024, 1024) matrices its 715 keys would need an 11.2 GiB stack."""
    cfg = dict(CERT_CFG, model="ising_chain_n10", engine="classical", max_weight=4, output="cert")
    assert validate_config(cfg) == []
    build = series._series_builder(zoo.build_model("ising_chain", 10), zoo.bulk_layer("ising_chain", 10, 0.2))
    assert build is not series.series_of_channelled_gibbs
    assert main(["run", write_cfg(tmp_path / "c.json", cfg), "--output-dir", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "cert.json").read_text())["certificates"][0]
    assert rep["pass"] and len(rep["clusters"]) == 118


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
        ({"n_sites": 4, "terms": 7}, PARTITION3, "model file invalid: terms 7 is not a list"),
        (
            {"n_sites": 4, "terms": [{"support": 5, "pauli": "Z", "lambda": -1.0}]},
            PARTITION3,
            "model file invalid: term support 5 is not a list",
        ),
        (
            {"n_sites": 4, "terms": [{"support": [0, 1], "pauli": 5, "lambda": -1.0}]},
            PARTITION3,
            "model file invalid: pauli label 5 is not a string of log2 q = 1 letters per support site",
        ),
        (
            {"n_sites": 4, "terms": [{"support": [0, 1], "pauli": "ZZ", "lambda": "x"}]},
            PARTITION3,
            "model file invalid: term lambda 'x' is not a number",
        ),
        (
            {"n_sites": 4, "terms": [{"support": [0, 1], "pauli": "ZZ", "lambda": True}]},
            PARTITION3,
            "model file invalid: term lambda True is not a number",
        ),
        (
            {"n_sites": 4, "terms": [{"support": [0, 1], "diag": [1, True, 0, 1], "lambda": -1.0}]},
            PARTITION3,
            "model file invalid: diag table [1, True, 0, 1] is not a table of numbers",
        ),
        ([1, 2], PARTITION3, "model file invalid: model [1, 2] is not a JSON object"),
        ("abc", PARTITION3, "model file invalid: model 'abc' is not a JSON object"),
        (5, PARTITION3, "model file invalid: model 5 is not a JSON object"),
        (["n_sites", "terms"], PARTITION3, "model file invalid: model ['n_sites', 'terms'] is not a JSON object"),
    ],
    ids=[
        "n_sites_float",
        "support_float",
        "support_twice",
        "no_n_sites",
        "partition_float",
        "partition_bool",
        "terms_a_number",
        "support_a_number",
        "pauli_a_number",
        "lambda_a_string",
        "lambda_bool",
        "diag_bool_entry",
        "model_a_list",
        "model_a_string",
        "model_a_number",
        "model_a_list_of_keys",
    ],
)
def test_validate_reports_model_file_numbers(tmp_path, capsys, model, partition, message):
    """Model files and their partitions take ints only, a missing model key
    is named, and a model file that is not a JSON object says so."""
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


def test_decay_at_beta_zero_reports_the_proved_regime(tmp_path):
    """At beta = 0 every CMI is 0, so the fit is an error entry; it still
    carries the chain's beta_c and the analytic decay length 0."""
    cfg = write_cfg(tmp_path / "c.json", dict(DECAY_CFG, beta=[0.0, 0.2]))
    assert main(["run", cfg, "--output-dir", str(tmp_path)]) == 0
    zero, warm = json.loads((tmp_path / "decay.json").read_text())["fits"]
    assert zero == {
        "beta": "0",
        "beta_c": "0.016489669966907868",
        "error": "only 0 points above floor; need >= 3",
        "xi_analytic": "0",
    }
    assert warm["beta_c"] == "0.016489669966907868" and warm["xi_analytic"] == "inf"
    assert set(warm) == {"beta", "beta_c", "xi_analytic", "xi", "intercept", "r_squared", "slope_stderr",
                         "used_points", "diverged"}


def test_decay_fit_beta_c_follows_the_dual_graph_degree(tmp_path):
    """The Bell chain's XX and ZZ terms meet four to a site: degree 4; below
    its beta_c the analytic length is 1 / ln(beta_c / beta)."""
    cfg = dict(DECAY_CFG, model="bell_chain_n4", engine="pauli", beta=[0.001], distances=[2, 3], channel={})
    assert main(["run", write_cfg(tmp_path / "c.json", cfg), "--output-dir", str(tmp_path)]) == 0
    (fit,) = json.loads((tmp_path / "decay.json").read_text())["fits"]
    beta_c = 1 / (2 * math.e * 5 * (1 + 3 * math.e))
    assert fit["beta_c"] == fmt(beta_c) == "0.0040184123452334537"
    assert fit["xi_analytic"] == fmt(1 / math.log(beta_c / 0.001))


def test_readme_converse_example(tmp_path):
    """The README's converse example: at beta = inf the parity chain keeps 1
    bit at every distance and its fit diverges, outside the proved regime;
    at beta = 1 the CMI decays."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", readme, re.S)]
    (cfg,) = [b for b in blocks if isinstance(b, dict) and b.get("output") == "converse"]
    assert main(["run", write_cfg(tmp_path / "c.json", cfg), "--output-dir", str(tmp_path)]) == 0
    rows = [line.split(",") for line in (tmp_path / "converse.csv").read_text().split()[1:]]
    assert [v for b, _, v in rows if b == "inf"] == ["1"] * 5
    cold = [float(v) for b, _, v in rows if b == "1"]
    assert all(a > b for a, b in zip(cold, cold[1:]))
    fits = {f["beta"]: f for f in json.loads((tmp_path / "converse.json").read_text())["fits"]}
    assert fits["inf"]["diverged"] is True and fits["inf"]["xi"] == "inf" and fits["inf"]["xi_analytic"] == "inf"
    assert fits["1"]["diverged"] is False and fits["1"]["xi_analytic"] == "inf"
