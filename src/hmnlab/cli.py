"""Command-line front end.

    hmnlab run config.json [--override key=value ...] [--output-dir DIR]
    hmnlab validate config.json

Exit codes: 0 success, 2 a certificate/bound check failed, 1 tooling error.

Config schema (JSON object):
    experiment: "decay" | "cmi" | "certificates" | "cluster_equivalence"
    model:      builtin id ("ising_chain_n8", ...) or path to a model file
    beta:       list of numbers ("inf" allowed, NaN not); certificates take
                betas in [0, inf) only
    channel:    list of per-site channel objects, each on a site of the model
                and of its dimension q, or on a builtin model its family's
                bulk channel {"kind": ..., "p": ...}, the only form decay
                takes: kind "bitflip" (ising_chain) or "dephasing"
                (cluster_chain); parity_chain and bell_chain take no kind
                and no p.  Certificates need a unital layer, so not the
                parity_chain read-out
    distances:  strictly increasing list of integers >= 1 (decay
                experiments): the chain distance d, a chain of d+1 sites
                with A and C its end sites.  It is the dual-graph distance
                on every family but cluster_chain, whose three-site terms
                join the ends in fewer steps
    max_weight: integer from 1 to series.MAX_WEIGHT_CAP (certificates, default 4)
    n:          integer >= 1, the cluster chain's size (cluster_equivalence,
                default 6)
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
from types import SimpleNamespace

from . import __version__, classical, dense, experiments, pauli, series, zoo
from .channels import ChannelLayer, parse_layer, parse_probability
from .model import Partition, graph_distance, load_model, require_int

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

EXPERIMENTS = ("decay", "cmi", "certificates", "cluster_equivalence")
DEFAULT_DISTANCES = (1, 2, 3, 4, 5, 6)


def fmt(x) -> str:
    if isinstance(x, float):
        if math.isinf(x):
            return "inf"
        return format(x, ".17g")
    return str(x)


def _parse_beta(b) -> float:
    try:
        v = float(b)  # also reads "inf" and "Infinity"
    except (TypeError, ValueError):
        v = math.nan
    if math.isnan(v):
        raise ValueError(f"beta {b!r} is not a number or 'inf'")
    return v


def _list(cfg: dict, key: str, default) -> list:
    value = cfg.get(key, default)
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{key} {value!r} is not a list")
    return value


def load_config(path: str) -> dict:
    with open(path) as f:
        obj = json.load(f)
    if "config" in obj and "artifact_version" in obj:
        obj = obj["config"]  # a manifest was passed; rerun its resolved config
    return obj


def _bulk_p(family: str, ch) -> float:
    """The p of a builtin family's bulk channel config {"kind", "p"}."""
    ch = ch or {}
    unknown = set(ch) - {"kind", "p"}
    if unknown:
        raise ValueError(f"unknown bulk channel keys: {sorted(unknown)}")
    bulk = zoo.BULK_KIND.get(family)
    if "kind" in ch and ch["kind"] != bulk:
        raise ValueError(
            f"channel kind {ch['kind']!r} is not the {family} bulk channel "
            f"({bulk or 'fixed, no kind'})"
        )
    if "p" in ch and bulk is None:
        raise ValueError(f"the {family} bulk channel is fixed and takes no p")
    return parse_probability(ch.get("p", 1.0))


def _site_layer(ch, graph) -> ChannelLayer:
    """A per-site channel list whose every channel sits on a site of the
    model and acts on its local dimension q."""
    if not isinstance(ch, list):
        raise ValueError(f"channel {ch!r} is not a list of per-site channels")
    layer = parse_layer(ch, graph.q)
    for c in layer.channels:
        if c.site >= graph.n_sites:
            raise ValueError(f"channel site {c.site} is not a site of the model (0..{graph.n_sites - 1})")
        if c.dim != graph.q:
            raise ValueError(f"channel on site {c.site} acts on dimension {c.dim}, not the model's q = {graph.q}")
    return layer


def resolve(cfg: dict) -> SimpleNamespace:
    """Everything ``run`` takes from a config whose experiment and engine are
    known: betas, the engine that runs, model, channel layer and partition.
    The model passes that engine's ``check`` before the channel is read, and
    the channel layer its ``check_layer``; a decay experiment is resolved at
    its largest distance, and its chain at the smallest distance is built and
    checked too.  ``validate`` reports whatever this raises."""
    exp = cfg["experiment"]
    engine = cfg.get("engine", "classical")
    r = SimpleNamespace(betas=[_parse_beta(b) for b in _list(cfg, "beta", [0.1])], engine=engine)
    if exp == "certificates" or (exp == "cluster_equivalence" and engine == "classical"):
        r.engine = "dense"  # the series are dense; the equivalence has no classical path
    check = experiments.ENGINES[r.engine].check
    if exp == "cluster_equivalence":  # always the cluster chain; the model is ignored
        r.n = require_int(cfg.get("n", 6), "n", 1)
        check(zoo.cluster_chain(r.n))
        return r
    model = cfg.get("model", "")
    if not isinstance(model, str):
        raise ValueError(f"model {model!r} is neither a builtin id nor a file path")
    ch = cfg.get("channel")
    if os.path.exists(model):
        if exp == "decay":
            raise ValueError("decay experiments need a builtin model id")
        try:
            r.h = load_model(model)
        except KeyError as e:
            raise ValueError(f"model file invalid: no key {e}") from None
        except (ValueError, TypeError) as e:
            raise ValueError(f"model file invalid: {e}") from None
        check(r.h)
        try:
            praw = cfg["partition"]
            r.partition = Partition(
                *(frozenset(require_int(s, "partition site", 0) for s in praw.get(k, ())) for k in "abc")
            )
        except (ValueError, KeyError, TypeError, AttributeError) as e:
            raise ValueError(
                f"model file needs a partition with nonempty disjoint a and c: {e!r}"
            ) from None
        if not r.partition.abc <= set(range(r.h.site_graph.n_sites)):
            raise ValueError("partition names sites outside the model")
        r.layer = _site_layer(ch or [], r.h.site_graph)
    else:
        r.family, n = zoo.parse_model_id(model)
        if exp == "decay":
            r.distances = _list(cfg, "distances", DEFAULT_DISTANCES)
            for d in r.distances:
                require_int(d, "distance", 1)
            if any(b <= a for a, b in zip(r.distances, r.distances[1:])):
                raise ValueError(f"distances {list(r.distances)} are not strictly increasing")
            if r.distances:
                n = r.distances[-1] + 1  # the largest chain the curve builds
        r.h = zoo.build_model(r.family, n, engine)
        check(r.h)
        if isinstance(ch, list):
            if exp == "decay":
                raise ValueError("decay takes one bulk channel {kind, p}, not a per-site list")
            r.layer = _site_layer(ch, r.h.site_graph)
        else:
            r.p_noise = _bulk_p(r.family, ch)
            r.layer = zoo.bulk_layer(r.family, n, r.p_noise, engine)
        r.partition = experiments.boundary_partition(n)
        if exp == "decay" and r.distances:  # and the smallest chain it builds
            check(zoo.build_model(r.family, r.distances[0] + 1, engine))
    experiments.ENGINES[r.engine].check_layer(r.layer)
    if exp == "certificates":
        r.max_weight = cfg.get("max_weight", 4)
        series.check_weight(r.max_weight)
        # the bound (2e(d+1) beta)^{|W|+1} is finite and nonnegative only here
        for b in r.betas:
            if not 0.0 <= b < math.inf:
                raise ValueError(f"certificate beta {fmt(b)} is not in [0, inf)")
        if not r.layer.is_unital():
            raise ValueError("certificates need a unital channel layer (E[I] = I), which this one is not")
    return r


def _admit(cfg: dict) -> tuple[list, SimpleNamespace | None]:
    """(findings, resolved config); the config is resolved only when its
    experiment and engine names are known."""
    findings = []
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        findings.append(f"unknown config keys: {sorted(unknown)}")
    exp = cfg.get("experiment")
    if exp not in EXPERIMENTS:
        findings.append(f"unknown experiment {exp!r}")
    engine = cfg.get("engine", "classical")
    if engine not in experiments.ENGINES:
        findings.append(f"unknown engine {engine!r}")
    if exp not in EXPERIMENTS or engine not in experiments.ENGINES:
        return findings, None
    try:
        return findings, resolve(cfg)
    except Exception as e:  # whatever run would fail on is a finding
        return findings + [str(e)], None


def validate_config(cfg: dict) -> list:
    """Every reason ``run`` would refuse ``cfg``, as messages."""
    return _admit(cfg)[0]


def run_experiment(cfg: dict, out_dir: str) -> int:
    findings, r = _admit(cfg)
    if findings:
        raise ValueError("; ".join(findings))
    exp = cfg["experiment"]
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, cfg.get("output", exp))
    timings = {}
    status = 0
    results: dict = {"experiment": exp}
    rows = []  # (beta, distance, cmi bits) for the CSV of decay and cmi runs

    if exp == "decay":
        fits = []
        for beta in r.betas:
            t0 = time.perf_counter()
            curve = experiments.decay_curve(r.family, r.engine, beta, r.distances, r.p_noise)
            timings[f"beta={fmt(beta)}"] = time.perf_counter() - t0
            rows += [(beta, d, v) for d, v in curve.points]
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
        results["fits"] = fits
    elif exp == "cmi":
        d_ac = graph_distance(r.h, r.partition)
        for beta in r.betas:
            t0 = time.perf_counter()
            v = experiments.evaluate_cmi(r.h, beta, r.layer, r.partition, r.engine)
            timings[f"beta={fmt(beta)}"] = time.perf_counter() - t0
            rows.append((beta, d_ac, v))
    else:  # certificates and cluster_equivalence: one pass/fail report per beta
        reports = []
        for beta in r.betas:
            t0 = time.perf_counter()
            if exp == "certificates":
                rep = series.derivative_norm_certificate(r.h, beta, r.layer, r.max_weight)
            else:
                rep = experiments.cluster_gibbs_equivalence(r.n, beta, r.engine)
            timings[f"beta={fmt(beta)}"] = time.perf_counter() - t0
            for d in [rep, *rep.get("clusters", ())]:
                d.update({k: fmt(v) for k, v in d.items() if isinstance(v, float)})
            reports.append(rep)
            if not rep["pass"]:
                status = 2
        results["certificates" if exp == "certificates" else "equivalence"] = reports

    if exp in ("decay", "cmi"):
        with open(stem + ".csv", "w") as f:
            f.write("beta,distance,cmi_bits\n")
            for beta, d, v in rows:
                f.write(f"{fmt(beta)},{fmt(d)},{fmt(v)}\n")
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
        return run_experiment(apply_overrides(cfg, args.override), args.output_dir)
    except Exception as e:  # tooling failure, distinct from bound violations
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
