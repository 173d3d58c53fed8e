"""Command-line front end.

    hmnlab run config.json [--override key=value ...] [--output-dir DIR]
    hmnlab validate config.json

Exit codes: 0 success, 2 a certificate/bound check failed, 1 tooling error;
``validate`` exits 0 with no finding and 1 with any.

Config schema (JSON object):
    experiment: "decay" | "cmi" | "certificates" | "cluster_equivalence"
    model:      builtin id ("ising_chain_n8", ...) or path to a model file;
                optional on cluster_equivalence, and there cluster_chain_n<n>;
                certificates need a model whose terms commute
    beta:       nonempty list of distinct numbers >= 0 (the string "inf"
                allowed, no other string, no bool, no NaN); certificates take
                betas in [0, inf) only, and only those whose bound
                beta^W (2e(d+1))^{W+1} at W = max_weight is a finite float
                (every beta <= 1 is)
    channel:    list of per-site channel objects, each on a site of the model
                and of its dimension q: {"site", "kind", and the one key the
                kind reads}, "p" for "dephasing", "bitflip" and
                "depolarizing", "matrix" for "transition" (column-stochastic
                T[out, in]) and "kraus" for "kraus".  Each engine takes a
                channel by what it does: classical one that keeps diagonal
                states diagonal, pauli one that is diagonal in the Pauli basis
                on a qubit-register site, dense any.  On a builtin model its family's
                bulk channel {"kind": ..., "p": ...}, the only form decay
                takes: kind "bitflip" (ising_chain) or "dephasing"
                (cluster_chain); parity_chain and bell_chain take no kind
                and no p.  Certificates need a unital layer, so not the
                parity_chain read-out
    distances:  decay only: strictly increasing list of integers >= 1, the
                chain distance d, a chain of d+1 sites with A and C its end
                sites.  It is the dual-graph distance on every family but
                cluster_chain, whose three-site terms join the ends in fewer
                steps
    max_weight: certificates only: integer from 1 to series.MAX_WEIGHT_CAP
                (default 4)
    n:          cluster_equivalence only: integer >= 1, the cluster chain's
                size (default 6)
    partition:  cmi on a model file, where it is required:
                {"a": [...], "b": [...], "c": [...]}, no other key, each
                a list of site ints (a missing one is empty).  Certificates on a
                model file do not read it, but check one they are given.
                Refused on a builtin model id, which uses the boundary
                partition (A the first site, C the last)
    engine:     "classical" (diagonal terms: tables, Z-only strings) | "dense" | "pauli"
    output:     file name stem for the CSV/JSON artifacts: a non-empty
                string with no path separator or NUL, and not "." or ".."

Another experiment's distances, max_weight or n is a finding, not ignored,
and so is a channel or a partition on cluster_equivalence.

A run plans each chain, layer and certificate once, for all betas.  Numbers in
outputs are printed with 17 significant digits so re-runs are byte-identical.
A run manifest (resolved config + caps + timings of the one-off "resolve", of
a certificate's one "series" at beta = 1 and of each beta) is written next to
every output; `run manifest.json` reproduces the outputs exactly.
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
from .model import Partition, build_dual_graph, graph_distance, is_number, load_model, require_int, require_list

EXPERIMENTS = ("decay", "cmi", "certificates", "cluster_equivalence")
# keys that only some experiments read; any other experiment refuses them.
# Every experiment that takes a model reads its partition key: a builtin
# model id refuses one in resolve, with its own message
_MODEL_READERS = ("decay", "cmi", "certificates")
_READ_BY = {
    "distances": ("decay",),
    "max_weight": ("certificates",),
    "n": ("cluster_equivalence",),
    "channel": _MODEL_READERS,
    "partition": _MODEL_READERS,
}
_CONFIG_KEYS = {"experiment", "model", "beta", "engine", "output", *_READ_BY}
DEFAULT_DISTANCES = (1, 2, 3, 4, 5, 6)


def fmt(x) -> str:
    if isinstance(x, float):
        if math.isinf(x):
            return "inf"
        return format(x, ".17g")
    return str(x)


def _parse_beta(b, exp: str) -> float:
    """A beta >= 0, where the paper's statements hold, as a number (not a bool
    or a string) or as "inf", except on certificates: their norm beta^{|W|} N_W
    and bound beta^{|W|} (2e(d+1))^{|W|+1} are finite only below inf."""
    v = math.inf if b == "inf" else float(b) if is_number(b) else math.nan
    if math.isnan(v):
        raise ValueError(f"beta {b!r} is not a number or 'inf'")
    finite = exp == "certificates"
    if v < 0 or (finite and math.isinf(v)):
        what, top = ("certificate beta", "inf)") if finite else ("beta", "inf]")
        raise ValueError(f"{what} {fmt(v)} is not in [0, {top}")
    return v


def load_config(path: str) -> dict:
    with open(path) as f:
        obj = json.load(f)
    if isinstance(obj, dict) and "config" in obj and "artifact_version" in obj:
        obj = obj["config"]  # a manifest was passed; rerun its resolved config
    if not isinstance(obj, dict):
        raise ValueError(f"config in {path} is not a JSON object")
    return obj


def _bulk_p(family: str, ch) -> float:
    """The p of a builtin family's bulk channel config {"kind", "p"}."""
    ch = {} if ch is None else ch
    if not isinstance(ch, dict):
        raise ValueError(f"channel {ch!r} is not a bulk channel object {{kind, p}}")
    unknown = set(ch) - {"kind", "p"}
    if unknown:
        raise ValueError(f"unknown bulk channel keys: {sorted(unknown)}")
    bulk = zoo.BULK[family][0]
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


def _partition(praw, n_sites: int) -> Partition:
    """A model file's partition: an object with no key but a, b and c, each a
    list of site ints on the model, a and c nonempty and all three disjoint."""
    if not isinstance(praw, dict):
        raise ValueError(f'a model file needs a partition {{"a": [...], "b": [...], "c": [...]}}, not {praw!r}')
    unknown = set(praw) - set("abc")
    if unknown:
        raise ValueError(f"unknown partition keys: {sorted(unknown)}")
    regions = [
        frozenset(require_int(s, "partition site", 0) for s in require_list(praw.get(k, []), f"partition {k}"))
        for k in "abc"
    ]
    try:
        p = Partition(*regions)
    except ValueError as e:
        raise ValueError(f"partition {praw!r}: {e}") from None
    if not p.abc <= set(range(n_sites)):
        raise ValueError("partition names sites outside the model")
    return p


def resolve(cfg: dict) -> SimpleNamespace:
    """Everything ``run`` takes from a config whose experiment and engine are
    known: betas, the engine that runs, model, channel layer, partition, and
    the plan every beta shares, built and checked once: decay and cmi
    ``points``, one (distance, engine plan of its regions) per CMI a beta
    takes, or a certificate's ``series.plan``.  The model passes that
    engine's ``check`` (dense's on certificates) before the channel is read.
    A decay is resolved at its largest distance, whose chain is planned
    first, then each shorter chain.  ``validate`` reports whatever this raises."""
    exp = cfg["experiment"]
    engine = cfg.get("engine", "classical")
    betas = require_list(cfg.get("beta", [0.1]), "beta")
    r = SimpleNamespace(betas=[_parse_beta(b, exp) for b in betas], engine=engine)
    if not r.betas or len(set(r.betas)) < len(r.betas):  # each beta is one result and one timing key
        raise ValueError(f"beta {betas!r} is not a nonempty list of distinct values")
    output = cfg.get("output", exp)
    named = isinstance(output, str) and output not in ("", ".", "..") and "\0" not in output
    if not named or output != os.path.basename(output):
        raise ValueError(f"output {output!r} is not a file name (non-empty, no path separator or NUL, not . or ..)")
    if exp == "certificates" or (exp == "cluster_equivalence" and engine == "classical"):
        r.engine = "dense"  # certificates take the dense cap; the equivalence has no classical path
    check, plan = experiments.ENGINES[r.engine].check, experiments.ENGINES[r.engine].plan
    if exp == "cluster_equivalence":  # always the cluster chain of n sites
        r.n = require_int(cfg.get("n", 6), "n", 1)
        if "model" in cfg and cfg["model"] != f"cluster_chain_n{r.n}":
            raise ValueError(
                f"cluster_equivalence runs the cluster chain of n = {r.n} sites; "
                f"model {cfg['model']!r} is not 'cluster_chain_n{r.n}'"
            )
        plan(zoo.cluster_chain(r.n), ChannelLayer(), ())  # the thermal state, under no channel
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
        # certificates never read a partition, but one they are given is checked
        if exp == "cmi" or "partition" in cfg:
            r.partition = _partition(cfg.get("partition"), r.h.site_graph.n_sites)
        r.layer = _site_layer([] if ch is None else ch, r.h.site_graph)
    else:
        r.family, n = zoo.parse_model_id(model)
        if "partition" in cfg:
            raise ValueError(
                f"builtin model {model!r} uses the boundary partition (A = first site, "
                "C = last site); a partition is read only with a model file"
            )
        if exp == "decay":
            r.distances = require_list(cfg.get("distances", DEFAULT_DISTANCES), "distances")
            for d in r.distances:
                require_int(d, "distance", 1)
            if any(b <= a for a, b in zip(r.distances, r.distances[1:])):
                raise ValueError(f"distances {list(r.distances)} are not strictly increasing")
            if r.distances:
                n = r.distances[-1] + 1  # the largest chain the curve builds
        r.h = zoo.build_model(r.family, n)
        check(r.h)
        if isinstance(ch, list):
            if exp == "decay":
                raise ValueError("decay takes one bulk channel {kind, p}, not a per-site list")
            r.layer = _site_layer(ch, r.h.site_graph)
        else:
            r.layer = zoo.bulk_layer(r.family, n, _bulk_p(r.family, ch))
        r.partition = experiments.boundary_partition(n)
    if exp == "certificates":  # series.plan admits it: weight, unitality, commutation, clusters
        r.plan = series.plan(r.h, r.layer, cfg.get("max_weight", 4))
        w, base = r.plan.max_weight, 2 * math.e * (r.plan.degree + 1)
        for b in r.betas:  # from beta = 1 up the bound is largest at W = max_weight
            try:
                finite = math.isfinite(b**w * base ** (w + 1))
            except OverflowError:  # b**w past the float range
                finite = False
            if not finite:
                raise ValueError(f"certificate beta {fmt(b)} makes the bound at weight {w} overflow a float")
        return r
    top = plan(r.h, r.layer, r.partition.regions)  # decay's longest chain first: a refusal names its rank
    if exp == "decay":
        shorter = experiments.decay_points(r.family, r.distances[:-1], r.layer)
        r.points = [(d, plan(h, layer, p.regions)) for d, h, layer, p in shorter]
        r.points += [(float(d), top) for d in r.distances[-1:]]
    if exp == "cmi":
        r.points = [(graph_distance(r.h, r.partition), top)]
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
    else:
        findings += [
            f"{key} is read only by {', '.join(readers)} experiments, not by {exp}"
            for key, readers in _READ_BY.items()
            if key in cfg and exp not in readers
        ]
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
    t0 = time.perf_counter()
    findings, r = _admit(cfg)
    timings = {"resolve": time.perf_counter() - t0}  # every model, layer, check and plan
    if findings:
        raise ValueError("; ".join(findings))
    exp = cfg["experiment"]
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, cfg.get("output", exp))
    status = 0
    results: dict = {"experiment": exp}
    rows = []  # (beta, distance, cmi bits) for the CSV of decay and cmi runs

    if exp in ("decay", "cmi"):  # one CMI per beta and point of the plan
        if exp == "decay":  # the regime the decay proof covers, at the degree of the largest chain
            degree = build_dual_graph(r.h).degree
            beta_c = fmt(experiments.beta_critical(degree))
            results["fits"] = []
        for beta in r.betas:
            t0 = time.perf_counter()
            points = [(d, experiments.evaluate_cmi(plan, beta, r.engine)) for d, plan in r.points]
            timings[f"beta={fmt(beta)}"] = time.perf_counter() - t0
            rows += [(beta, d, v) for d, v in points]
            if exp == "cmi":
                continue
            fit = {"beta": fmt(beta), "beta_c": beta_c, "xi_analytic": fmt(experiments.xi_analytic(beta, degree))}
            try:
                f = experiments.fit_markov_length(experiments.DecayCurve(beta, r.family, r.engine, points))
                fit.update(
                    xi=fmt(f.xi),
                    intercept=fmt(f.intercept),
                    r_squared=fmt(f.r_squared),
                    slope_stderr=fmt(f.slope_stderr),
                    used_points=f.used_points,
                    diverged=f.diverged,
                )
            except ValueError as e:
                fit["error"] = str(e)
            results["fits"].append(fit)
    else:  # certificates and cluster_equivalence: one pass/fail report per beta
        reports = []
        if exp == "certificates":  # the log series, once at beta = 1; each beta scales its norms
            t0 = time.perf_counter()
            norms = series.cluster_norms(r.plan)
            timings["series"] = time.perf_counter() - t0
        for beta in r.betas:
            t0 = time.perf_counter()
            if exp == "certificates":
                rep = series.derivative_norm_certificate(r.plan, norms, beta)
            else:
                rep = experiments.cluster_gibbs_equivalence(r.n, beta, r.engine)
            timings[f"beta={fmt(beta)}"] = time.perf_counter() - t0
            rep.update({k: fmt(v) for k, v in rep.items() if isinstance(v, float)})
            if exp == "certificates":  # a cluster's floats are its norm and its bound, which its weight fixes
                clusters = rep["clusters"]
                bounds = {w: fmt(b) for w, b in {c["weight"]: c["bound"] for c in clusters}.items()}
                for c in clusters:
                    c["norm"], c["bound"] = fmt(c["norm"]), bounds[c["weight"]]
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
        f.write(json.dumps(results, indent=2, sort_keys=True) + "\n")
    manifest = {
        "artifact_version": __version__,
        "config": cfg,
        "caps": {
            "dense_dim": dense.DENSE_DIM_CAP,
            "classical_memory": classical.MEMORY_CAP,
            "pauli_rank": pauli.TERM_CAP,
            "series_weight": series.MAX_WEIGHT_CAP,
            "series_stack_bytes": series.STACK_BYTES_CAP,
        },
        "wall_clock_s": {k: round(v, 6) for k, v in timings.items()},
    }
    with open(stem + ".manifest.json", "w") as f:
        f.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
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
            return 1 if findings else 0
        return run_experiment(apply_overrides(cfg, args.override), args.output_dir)
    except Exception as e:  # tooling failure, distinct from bound violations
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
