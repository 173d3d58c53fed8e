"""Command-line front end.

    hmnlab run config.json [--override key=value ...] [--output-dir DIR]
    hmnlab validate config.json

Exit codes: 0 success, 2 a certificate/bound check failed, 1 tooling error.

Config schema (JSON object):
    experiment: "decay" | "cmi" | "certificates" | "cluster_equivalence"
    model:      builtin id ("ising_chain_n8", ...) or path to a model file
    beta:       list of numbers ("inf" allowed)
    channel:    {"kind": ..., "p": ...} or list of per-site channel objects
    distances:  strictly increasing list of integers (decay experiments)
    partition:  {"a": [...], "b": [...], "c": [...]} (required for file models)
    engine:     "classical" | "dense" | "pauli"
    output:     basename for the CSV/JSON artifacts

Numbers in outputs are printed with 17 significant digits so re-runs are
byte-identical.  A run manifest (resolved config + caps + timings) is written
next to every output; `run manifest.json` reproduces the outputs exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from . import __version__, classical, dense, experiments, pauli, series, zoo
from .channels import parse_layer
from .model import Partition, load_model

_CONFIG_KEYS = {
    "experiment",
    "model",
    "beta",
    "channel",
    "distances",
    "partition",
    "engine",
    "output",
    "max_weight",
    "n",
}

DEFAULT_DISTANCES = (1, 2, 3, 4, 5, 6)


def fmt(x) -> str:
    if isinstance(x, float):
        if math.isinf(x):
            return "inf"
        return format(x, ".17g")
    return str(x)


def _parse_beta(b) -> float:
    if isinstance(b, str):
        if b in ("inf", "Infinity"):
            return math.inf
        return float(b)
    return float(b)


def load_config(path: str) -> dict:
    with open(path) as f:
        obj = json.load(f)
    if "config" in obj and "artifact_version" in obj:
        obj = obj["config"]  # a manifest was passed; rerun its resolved config
    return obj


def validate_config(cfg: dict) -> list:
    findings = []
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        findings.append(f"unknown config keys: {sorted(unknown)}")
    exp = cfg.get("experiment")
    if exp not in ("decay", "cmi", "certificates", "cluster_equivalence"):
        findings.append(f"unknown experiment {exp!r}")
    engine = cfg.get("engine", "classical")
    if engine not in ("classical", "dense", "pauli"):
        findings.append(f"unknown engine {engine!r}")
    distances = cfg.get("distances", DEFAULT_DISTANCES)
    if exp == "decay" and any(b <= a for a, b in zip(distances, distances[1:])):
        findings.append(f"distances {list(distances)} are not strictly increasing")
    model = cfg.get("model", "")
    # run ignores the model of a cluster_equivalence experiment
    if exp == "cluster_equivalence" or not isinstance(model, str):
        return findings
    is_file = os.path.exists(model)
    if is_file and exp == "decay":
        findings.append("decay experiments need a builtin model id")
    try:
        if is_file:
            h = load_model(model)
        else:
            family, n = zoo.parse_model_id(model)
            if exp == "decay" and distances:
                n = int(max(distances)) + 1  # the largest chain the curve builds
            h = zoo.build_model(family, n, engine)
    except (ValueError, KeyError) as e:
        findings.append(f"model file invalid: {e}" if is_file else str(e))
        return findings
    if is_file and exp != "decay":
        try:
            p = _partition(cfg)
        except (ValueError, KeyError, TypeError) as e:
            findings.append(f"model file needs a partition with nonempty disjoint a and c: {e!r}")
        else:
            if not p.abc <= set(range(h.site_graph.n_sites)):
                findings.append("partition names sites outside the model")
    if engine == "pauli" and not (h.all_pauli and h.commuting):
        findings.append("engine=pauli but the model terms are not commuting Pauli strings")
    if engine == "classical" and not h.all_diagonal:
        findings.append("engine=classical but the model has non-diagonal terms")
    if engine == "dense" and h.site_graph.dim > dense.DENSE_DIM_CAP:
        findings.append(
            f"model dimension {h.site_graph.dim} exceeds dense cap {dense.DENSE_DIM_CAP}"
        )
    return findings


def _partition(cfg: dict) -> Partition:
    praw = cfg["partition"]
    return Partition(frozenset(praw["a"]), frozenset(praw.get("b", ())), frozenset(praw["c"]))


def _resolve_model(cfg: dict, engine: str):
    model = cfg["model"]
    if os.path.exists(model):
        h = load_model(model)
        p = _partition(cfg)
        layer = parse_layer(cfg.get("channel", []), h.site_graph.q)
        return h, layer, p
    family, n = zoo.parse_model_id(model)
    h = zoo.build_model(family, n, engine)
    ch = cfg.get("channel")
    if isinstance(ch, list):
        layer = parse_layer(ch, h.site_graph.q)
    else:
        p_noise = float(ch.get("p", 1.0)) if ch else 1.0
        layer = zoo.bulk_layer(family, n, p_noise, engine)
    p = experiments.boundary_partition(n)
    return h, layer, p


def run_experiment(cfg: dict, out_dir: str) -> int:
    engine = cfg.get("engine", "classical")
    betas = [_parse_beta(b) for b in cfg.get("beta", [0.1])]
    base = cfg.get("output", cfg["experiment"])
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, base)
    timings = {}
    status = 0
    results: dict = {"experiment": cfg["experiment"]}

    if cfg["experiment"] == "decay":
        family, _ = zoo.parse_model_id(cfg["model"])
        distances = cfg.get("distances", DEFAULT_DISTANCES)
        ch = cfg.get("channel") or {}
        p_noise = float(ch.get("p", 1.0))
        rows = []
        fits = []
        for beta in betas:
            t0 = time.perf_counter()
            curve = experiments.decay_curve(family, engine, beta, distances, p_noise)
            timings[f"beta={fmt(beta)}"] = time.perf_counter() - t0
            for d, v in curve.points:
                rows.append((beta, d, v))
            try:
                f = experiments.fit_markov_length(curve)
                fits.append(
                    {
                        "beta": fmt(beta),
                        "xi": fmt(f.xi),
                        "intercept": fmt(f.intercept),
                        "r_squared": fmt(f.r_squared),
                        "used_points": f.used_points,
                        "diverged": f.diverged,
                    }
                )
            except ValueError as e:
                fits.append({"beta": fmt(beta), "error": str(e)})
        with open(stem + ".csv", "w") as f:
            f.write("beta,distance,cmi_bits\n")
            for beta, d, v in rows:
                f.write(f"{fmt(beta)},{fmt(d)},{fmt(v)}\n")
        results["fits"] = fits
    elif cfg["experiment"] == "cmi":
        h, layer, p = _resolve_model(cfg, engine)
        rows = []
        d_ac = experiments.graph_distance(h, p)
        for beta in betas:
            t0 = time.perf_counter()
            v = experiments.evaluate_cmi(h, beta, layer, p, engine)
            timings[f"beta={fmt(beta)}"] = time.perf_counter() - t0
            rows.append((beta, d_ac, v))
        with open(stem + ".csv", "w") as f:
            f.write("beta,distance,cmi_bits\n")
            for beta, d, v in rows:
                f.write(f"{fmt(beta)},{fmt(d)},{fmt(v)}\n")
    elif cfg["experiment"] == "certificates":
        h, layer, p = _resolve_model(cfg, engine)
        max_weight = int(cfg.get("max_weight", 4))
        reports = []
        for beta in betas:
            t0 = time.perf_counter()
            rep = series.derivative_norm_certificate(h, beta, layer, max_weight)
            timings[f"beta={fmt(beta)}"] = time.perf_counter() - t0
            for c in rep["clusters"]:
                c["norm"] = fmt(c["norm"])
                c["bound"] = fmt(c["bound"])
            rep["beta"] = fmt(rep["beta"])
            reports.append(rep)
            if not rep["pass"]:
                status = 2
        results["certificates"] = reports
    elif cfg["experiment"] == "cluster_equivalence":
        n = int(cfg.get("n", 6))
        reports = []
        for beta in betas:
            t0 = time.perf_counter()
            rep = experiments.cluster_gibbs_equivalence(n, beta, engine if engine != "classical" else "dense")
            timings[f"beta={fmt(beta)}"] = time.perf_counter() - t0
            rep["distance"] = fmt(rep["distance"])
            rep["p"] = fmt(rep["p"])
            rep["beta"] = fmt(rep["beta"])
            reports.append(rep)
            if not rep["pass"]:
                status = 2
        results["equivalence"] = reports
    else:
        raise ValueError(f"unknown experiment {cfg['experiment']!r}")

    with open(stem + ".json", "w") as f:
        json.dump(results, f, indent=2, sort_keys=True)
        f.write("\n")
    manifest = {
        "artifact_version": __version__,
        "config": cfg,
        "caps": {
            "dense_dim": dense.DENSE_DIM_CAP,
            "classical_memory": classical.MEMORY_CAP,
            "pauli_terms": pauli.TERM_CAP,
            "pauli_rank": pauli.RANK_CAP,
            "series_weight": series.MAX_WEIGHT_CAP,
        },
        "wall_clock_s": {k: round(v, 6) for k, v in timings.items()},
    }
    with open(stem + ".manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return status


def apply_overrides(cfg: dict, overrides) -> dict:
    out = dict(cfg)
    for ov in overrides or ():
        key, _, raw = ov.partition("=")
        if not _:
            raise ValueError(f"override {ov!r} is not key=value")
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="hmnlab")
    sub = ap.add_subparsers(dest="cmd", required=True)
    runp = sub.add_parser("run", help="execute an experiment config")
    runp.add_argument("config")
    runp.add_argument("--override", action="append", default=[], metavar="KEY=VALUE")
    runp.add_argument("--output-dir", default=".")
    valp = sub.add_parser("validate", help="check a config without running it")
    valp.add_argument("config")
    args = ap.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.cmd == "validate":
            findings = validate_config(cfg)
            for f in findings:
                print(f"finding: {f}")
            print(f"{len(findings)} finding(s)")
            return 0
        cfg = apply_overrides(cfg, args.override)
        findings = validate_config(cfg)
        if findings:
            for f in findings:
                print(f"error: {f}", file=sys.stderr)
            return 1
        return run_experiment(cfg, args.output_dir)
    except Exception as e:  # tooling failure, distinct from bound violations
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
