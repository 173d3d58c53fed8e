"""The benchmark's three workloads, its seeded inputs and its correctness checks.

Every workload is a closed loop in one process: one call at a time, the next
only after the previous one returned.  A pass is a fixed list of jobs, each
one call into hmnlab that is timed on its own.  The seed jitters the inverse
temperatures and noise strengths inside fixed ranges; sizes never depend on
it, so every seed does the same amount of work.

hmnlab is imported inside the functions, not at the top of this module: the
set-up measurement drops and re-imports the package, and the module objects
used must be the ones imported last.
"""

from __future__ import annotations

import json
import math
import random
import time
import traceback
from pathlib import Path

import numpy as np

MODULES = (
    "cli",
    "experiments",
    "zoo",
    "model",
    "channels",
    "classical",
    "dense",
    "pauli",
    "series",
    "combinatorics",
)


def write_json(path: Path, obj) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2) + "\n")
    return path


def cli_run(config: Path, out_dir: Path) -> int:
    from hmnlab import cli

    return cli.main(["run", str(config), "--output-dir", str(out_dir)])


def read_csv(path: Path) -> dict:
    """(beta, distance) -> cmi bits from a decay/cmi CSV artifact."""
    rows = {}
    for line in path.read_text().splitlines()[1:]:
        beta, dist, value = line.split(",")
        rows[(float(beta), float(dist))] = float(value)
    return rows


def zz_model(n_sites: int, edges) -> dict:
    """Model-file JSON of ZZ bonds with lambda = -0.9 on the given edges."""
    return {
        "n_sites": n_sites,
        "q": 2,
        "terms": [{"support": list(e), "pauli": "ZZ", "lambda": -0.9} for e in edges],
    }


def warm_up(workdir: Path):
    """One tiny call per engine, plus the series and combinatorics entry
    points, so that every traced layer is reached once before timing."""
    from hmnlab import channels, combinatorics, model, series

    for engine in ("classical", "dense", "pauli"):
        cfg = {
            "experiment": "decay",
            "model": "ising_chain_n4",
            "engine": engine,
            "beta": [0.5],
            "distances": [1, 2, 3],
            "channel": {"kind": "bitflip", "p": 0.1},
            "output": f"warm_{engine}",
        }
        _check_rc(cli_run(write_json(workdir / f"warm_{engine}.config.json", cfg), workdir))
    eq = {"experiment": "cluster_equivalence", "model": "cluster_chain_n3", "engine": "pauli",
          "beta": [0.5], "n": 3, "output": "warm_eq"}
    _check_rc(cli_run(write_json(workdir / "warm_eq.config.json", eq), workdir))
    model_path = write_json(workdir / "warm_chain.model.json", zz_model(3, ((0, 1), (1, 2))))
    cert = {"experiment": "certificates", "model": str(model_path), "engine": "dense",
            "beta": [0.05], "channel": [{"site": 1, "kind": "bitflip", "p": 0.2}],
            "partition": {"a": [0], "b": [1], "c": [2]}, "max_weight": 2, "output": "warm_cert"}
    _check_rc(cli_run(write_json(workdir / "warm_cert.config.json", cert), workdir))
    h = model.load_model(model_path)
    layer = channels.ChannelLayer((channels.bitflip(1, 0.2),))
    p = model.Partition(frozenset({0}), frozenset({1}), frozenset({2}))
    series.cmi_operator_series(h, 0.05, layer, p, 2)
    g = model.build_dual_graph(h)
    for w in series.enumerate_connected_clusters(g, 2):
        combinatorics.verify_combinatorial_estimate(w, g)


def _check_rc(rc: int):
    if rc != 0:
        raise RuntimeError(f"warm-up run exited with {rc}")


class Workload:
    """Subclasses set ``name``, draw and write their inputs in
    ``make_inputs``, list one pass's calls in ``jobs`` as {label: (call,
    points)} and judge each call's result in ``check_job``, one verdict per
    point.

    ``run_pass`` returns {label: result or the exception it raised} and
    {label: seconds the call took}; ``check`` returns (points attempted,
    points failed) for that pass.
    """

    name = ""

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny

    def make_inputs(self, workdir: Path):
        """Draw the seeded parameters into ``self.drawn`` and write the
        input files under ``workdir``.  Every call draws the same values."""

    def rng(self) -> random.Random:
        return random.Random(self.seed)

    def prepare_oracle(self):
        """Reference values, computed once, outside every timed region."""

    def jobs(self) -> dict:
        raise NotImplementedError

    def run_pass(self, out_dir: Path) -> tuple[dict, dict]:
        results, seconds = {}, {}
        for label, (fn, _) in self.jobs().items():
            t0 = time.perf_counter()
            try:
                results[label] = fn(out_dir)
            except Exception as e:  # a raising job fails its points; the run goes on
                traceback.print_exc()
                results[label] = e
            seconds[label] = time.perf_counter() - t0
        return results, seconds

    def check(self, results: dict, out_dir: Path) -> tuple[int, int]:
        attempted = failed = 0
        for label, (_, points) in self.jobs().items():
            res = results[label]
            if isinstance(res, Exception):
                verdicts = [False] * points
            else:
                verdicts = self.check_job(label, res, out_dir, results)
            attempted += len(verdicts)
            failed += verdicts.count(False)
        return attempted, failed

    def check_job(self, label, result, out_dir: Path, results: dict) -> list:
        raise NotImplementedError


class DecayCli(Workload):
    """`hmnlab run` in-process on decay configs of the Ising chain, one per
    engine and inverse temperature: the pauli and dense engines, and the
    classical engine that is their oracle."""

    name = "decay_cli"
    ENGINES = ("pauli", "dense", "classical")

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        self.first_bytes = {}  # job label -> artifacts of the first pass

    def make_inputs(self, workdir):
        rng = self.rng()
        self.betas = [rng.uniform(0.2, 0.4), rng.uniform(0.8, 1.2)]
        self.p = rng.uniform(0.05, 0.15)
        self.drawn = {"betas": self.betas, "p": self.p}
        self.distances = {
            "pauli": list(range(1, 5 if self.tiny else 13)),
            "dense": list(range(1, 4 if self.tiny else 7)),
            "classical": list(range(1, 6 if self.tiny else 19)),
        }
        self.configs = {}
        for engine in self.ENGINES:
            dists = self.distances[engine]
            for i, beta in enumerate(self.betas):
                label = f"{engine}_b{i}"
                cfg = {
                    "experiment": "decay",
                    "model": f"ising_chain_n{dists[-1] + 1}",
                    "engine": engine,
                    "beta": [beta],
                    "distances": dists,
                    "channel": {"kind": "bitflip", "p": self.p},
                    "output": label,
                }
                self.configs[label] = (engine, beta, write_json(workdir / f"{label}.config.json", cfg))

    def jobs(self):
        return {
            label: (lambda out, c=config: cli_run(c, out), len(self.distances[engine]))
            for label, (engine, _, config) in self.configs.items()
        }

    def check_job(self, label, rc, out_dir, results):
        engine, beta, _ = self.configs[label]
        points = len(self.distances[engine])
        if rc != 0:
            return [False] * points
        # artifacts must be byte-identical on every pass
        blobs = tuple((out_dir / f"{label}{ext}").read_bytes() for ext in (".csv", ".json"))
        if self.first_bytes.setdefault(label, blobs) != blobs:
            return [False] * points
        rows = read_csv(out_dir / f"{label}.csv")
        oracle = {}
        ref_label = label.replace(engine, "classical")
        if engine != "classical" and results.get(ref_label) == 0:
            oracle = read_csv(out_dir / f"{ref_label}.csv")
        tol = {"pauli": 1e-10, "dense": 1e-9}.get(engine)
        verdicts = []
        for d in self.distances[engine]:
            v = rows.get((beta, float(d)))
            if v is None or not math.isfinite(v):
                verdicts.append(False)
            elif tol is not None:
                ref = oracle.get((beta, float(d)))
                verdicts.append(ref is not None and abs(v - ref) <= tol)
            else:
                verdicts.append(v >= 0.0)
        return verdicts


class PauliPrep(Workload):
    """Bell-chain decay curves and the cluster-state equivalence on the pauli
    engine: expansion and damping dominate, marginal spectra are cheap."""

    name = "pauli_prep"

    def make_inputs(self, workdir):
        rng = self.rng()
        self.beta = rng.uniform(0.8, 1.2)
        self.eq_betas = [rng.uniform(0.2, 0.4), rng.uniform(0.8, 1.2)]
        self.drawn = {"beta": self.beta, "eq_betas": self.eq_betas}
        self.distances = list(range(2, 5 if self.tiny else 9))
        self.eq_n = 4 if self.tiny else 14

    def prepare_oracle(self):
        from hmnlab import experiments

        near = [d for d in self.distances if d <= 3]
        self.oracle = dict(experiments.decay_curve("bell_chain", "dense", self.beta, near).points)

    def jobs(self):
        from hmnlab import experiments

        n = len(self.distances)
        jobs = {
            "bell_inf": (lambda out: experiments.decay_curve("bell_chain", "pauli", math.inf, self.distances), n),
            "bell_beta": (lambda out: experiments.decay_curve("bell_chain", "pauli", self.beta, self.distances), n),
        }
        for i, b in enumerate(self.eq_betas):
            jobs[f"equivalence_b{i}"] = (lambda out, b=b: experiments.cluster_gibbs_equivalence(self.eq_n, b, "pauli"), 1)
        return jobs

    def check_job(self, label, result, out_dir, results):
        if label.startswith("equivalence"):
            return [result["pass"] is True]
        out = []
        for d, v in result.points:
            if label == "bell_inf":
                out.append(abs(v - 2.0) <= 1e-10)
            elif d in self.oracle:
                out.append(abs(v - self.oracle[d]) <= 1e-9)
            else:
                out.append(math.isfinite(v) and v >= -1e-10)
        return out


LATTICE_EDGES = ((0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5))


class Certificates(Workload):
    """Cluster-expansion work on the 2x3 ZZ lattice (A={0}, B={1..4},
    C={5}, bit-flip on B): the certificate CLI run, the CMI-operator series
    and the combinatorial estimate chain."""

    name = "certificates"
    P = 0.2
    PARTITION = {"a": [0], "b": [1, 2, 3, 4], "c": [5]}

    def make_inputs(self, workdir):
        self.beta = self.rng().uniform(0.01, 0.05)
        self.drawn = {"beta": self.beta}
        self.cert_weight, self.series_weight, self.estimate_weight = (2, 2, 2) if self.tiny else (4, 2, 4)
        self.model_path = write_json(workdir / "lattice_2x3.model.json", zz_model(6, LATTICE_EDGES))
        cfg = {
            "experiment": "certificates",
            "model": str(self.model_path),
            "engine": "dense",
            "beta": [self.beta],
            "channel": [{"site": s, "kind": "bitflip", "p": self.P} for s in self.PARTITION["b"]],
            "partition": self.PARTITION,
            "max_weight": self.cert_weight,
            "output": "cert",
        }
        self.config = write_json(workdir / "cert.config.json", cfg)

    def _partition(self):
        from hmnlab import model

        return model.Partition(*(frozenset(self.PARTITION[k]) for k in "abc"))

    def prepare_oracle(self):
        from hmnlab import model, series

        g = model.build_dual_graph(model.load_model(self.model_path))
        self.n_clusters = {
            w: len(series.enumerate_connected_clusters(g, w))
            for w in (self.cert_weight, self.estimate_weight)
        }

    def _series(self, out):
        from hmnlab import channels, model, series

        h = model.load_model(self.model_path)
        layer = channels.ChannelLayer(tuple(channels.bitflip(s, self.P) for s in self.PARTITION["b"]))
        return h, series.cmi_operator_series(h, self.beta, layer, self._partition(), self.series_weight)

    def _estimates(self, out):
        from hmnlab import combinatorics, model, series

        g = model.build_dual_graph(model.load_model(self.model_path))
        return [
            combinatorics.verify_combinatorial_estimate(w, g)
            for w in series.enumerate_connected_clusters(g, self.estimate_weight)
        ]

    def jobs(self):
        return {
            "certificate": (lambda out: cli_run(self.config, out), self.n_clusters[self.cert_weight]),
            "cmi_series": (self._series, 1),
            "estimates": (self._estimates, self.n_clusters[self.estimate_weight]),
        }

    def check_job(self, label, result, out_dir, results):
        if label == "certificate":
            if result != 0:
                return [False] * self.n_clusters[self.cert_weight]
            rep = json.loads((out_dir / "cert.json").read_text())["certificates"][0]
            verdicts = [c["pass"] is True for c in rep["clusters"]]
            if len(verdicts) != self.n_clusters[self.cert_weight] or rep["pass"] is not True:
                return [False] * self.n_clusters[self.cert_weight]
            return verdicts
        if label == "estimates":
            return [rep["ok"] is True for rep in result]
        return self._check_series(*result)

    def _check_series(self, h, s):
        """One point: every coefficient of a cluster that is disconnected, or
        that does not join A to C, vanishes."""
        from hmnlab import combinatorics, model, series

        g = model.build_dual_graph(h)
        p = self._partition()
        connected = {w.multiplicities for w in series.enumerate_connected_clusters(g, self.series_weight)}
        for key, m in s.coeffs.items():
            if not key:
                continue
            w = combinatorics.Cluster(tuple(key))
            if w.multiplicities in connected and series.connects(w, g, p):
                continue
            if float(np.linalg.norm(m, 2)) > 1e-9:
                return [False]
        return [True]


WORKLOADS = {w.name: w for w in (DecayCli, PauliPrep, Certificates)}
