"""Spans around calls into hmnlab's public functions, recorded from outside
the package.

``Tracer.install`` replaces every module binding of each target function
(``series`` holds its own ``apply_layer_to_matrix`` and ``term_matrix``
bindings imported from ``dense``, for instance) with a wrapper that records
one span per call; ``uninstall`` puts the originals back.  Spans stay in
memory until the benchmark writes them out at the end.

Per-element hot methods (``PauliString.__mul__``, ``_key_weight``) are
deliberately not targets: they run millions of times per pass and wrapping
them would measure the tracer instead of the program.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

# (module, attribute, per-call metrics reported for it).  Self time of every
# target is still subtracted from its caller's span.
TARGETS = (
    ("cli", "run_experiment", ("self_s",)),
    ("experiments", "decay_curve", ("self_s",)),
    ("experiments", "evaluate_cmi", ("calls",)),
    ("experiments", "fit_markov_length", ("self_s",)),
    ("experiments", "cluster_gibbs_equivalence", ("self_s",)),
    ("zoo", "build_model", ("self_s",)),
    ("model", "graph_distance", ("self_s",)),
    ("model", "load_model", ("self_s",)),
    ("channels", "pauli_damping_profile", ("self_s",)),
    ("channels", "compose_with_trace", ("self_s",)),
    ("classical", "gibbs_distribution", ("self_s",)),
    ("classical", "apply_transitions", ("self_s",)),
    ("classical", "shannon_entropy", ("self_s",)),
    ("dense", "gibbs_state", ("self_s",)),
    ("dense", "hamiltonian_matrix", ("self_s",)),
    ("dense", "term_matrix", ("self_s",)),
    ("dense", "apply_layer_to_matrix", ("self_s", "calls")),
    ("dense", "partial_trace_matrix", ("self_s",)),
    ("dense", "von_neumann_entropy", ("self_s",)),
    ("pauli", "expand_gibbs", ("self_s",)),
    ("pauli", "apply_pauli_layer", ("self_s",)),
    ("pauli", "restricted_group", ("self_s",)),
    ("pauli", "marginal_spectrum", ("self_s",)),
    ("pauli", "marginal_entropy", ("calls",)),
    ("series", "TruncatedSeries.__mul__", ("self_s", "calls")),
    ("series", "series_of_channelled_gibbs", ("self_s",)),
    ("series", "log_series", ("self_s",)),
    ("series", "spectral_norm", ("self_s",)),
    ("series", "enumerate_connected_clusters", ("self_s",)),
    ("combinatorics", "estimate_chain", ("self_s", "calls")),
)


def _coeff_count(series_or_expansion):
    return len(series_or_expansion.coeffs)


# span name -> (size metric, reads the size off the return value); the
# metric is the largest value seen in a round
SIZES = {
    "pauli.expand_gibbs": ("pauli.expansion_terms_max", _coeff_count),
    "pauli.apply_pauli_layer": ("pauli.expansion_terms_max", _coeff_count),
    "pauli.restricted_group": ("pauli.group_rank_max", lambda r: len(r.generators)),
    "dense.gibbs_state": ("dense.dim_max", lambda r: r.entries.shape[0]),
    "dense.apply_layer_to_matrix": ("dense.dim_max", lambda r: r.shape[0]),
    "series.TruncatedSeries.__mul__": ("series.series_keys_max", _coeff_count),
    "series.series_of_channelled_gibbs": ("series.series_keys_max", _coeff_count),
    "series.log_series": ("series.series_keys_max", _coeff_count),
    "series.enumerate_connected_clusters": ("series.clusters", len),
}

OVERHEAD = "trace.overhead_frac"


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    out = {}
    for mod, attr, kinds in TARGETS:
        for kind in kinds:
            out[f"{mod}.{attr}.{kind}"] = "s" if kind == "self_s" else "count"
    for metric, _ in SIZES.values():
        out[metric] = "count"
    out[OVERHEAD] = "ratio"
    return out


class Tracer:
    """Records (round, name, start, end, parent span index) for every call
    into a target while installed."""

    def __init__(self):
        self.spans: list = []
        self.sizes: list = []  # per round: {size metric: largest value}
        self.round = -1
        self.missing: list = []
        self._stack: list = []
        self._patched: list = []  # (owner, attribute, original)

    def start_round(self):
        self.round += 1
        self.sizes.append({})

    def _record_size(self, name, result):
        spec = SIZES.get(name)
        if spec is None:
            return
        # a return value of another shape raises here, which fails the job
        # instead of reporting a size of 0
        metric, extract = spec
        sizes = self.sizes[self.round]
        sizes[metric] = max(sizes.get(metric, 0), extract(result))

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (self.round, name, t0, t1, parent)
            self._record_size(name, result)
            return result

        return traced

    def install(self):
        """Patch every binding of every target inside the loaded hmnlab
        modules.  Targets that no longer exist are listed in ``missing``."""
        mods = [m for k, m in list(sys.modules.items()) if k == "hmnlab" or k.startswith("hmnlab.")]
        self.missing = []
        for mod_name, attr, _ in TARGETS:
            name = f"{mod_name}.{attr}"
            mod = importlib.import_module(f"hmnlab.{mod_name}")
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = vars(owner).get(member) if owner is not None else None
            if orig is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, orig)
            # a method has one binding; a function may also be bound in the
            # modules that imported it
            for holder in [owner] if owner_name else mods:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        self._patch(holder, key, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def round_totals(self) -> list:
        """Per round: {span name: [self seconds, calls]}.  Self time is the
        span's duration minus the durations of its direct child spans."""
        child = [0.0] * len(self.spans)
        for _, _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        rounds = [dict() for _ in range(self.round + 1)]
        for i, (rnd, name, t0, t1, _) in enumerate(self.spans):
            acc = rounds[rnd].setdefault(name, [0.0, 0])
            acc[0] += (t1 - t0) - child[i]
            acc[1] += 1
        return rounds

    def layer_metrics(self, traced_pass_s: float, plain_pass_s: float) -> dict:
        """Each target's smallest self time over the traced rounds and its
        median calls per round, the largest sizes seen, and the tracing
        overhead on the median pass time."""
        rounds = self.round_totals()
        out = {}
        for mod, attr, kinds in TARGETS:
            name = f"{mod}.{attr}"
            per_round = [r.get(name, [0.0, 0]) for r in rounds]
            if "self_s" in kinds:
                out[f"{name}.self_s"] = min(v[0] for v in per_round)
            if "calls" in kinds:
                out[f"{name}.calls"] = statistics.median(v[1] for v in per_round)
        for metric, _ in SIZES.values():
            out[metric] = max((s.get(metric, 0) for s in self.sizes), default=0)
        out[OVERHEAD] = traced_pass_s / plain_pass_s - 1.0
        return out

    def dump(self) -> list:
        return [
            {"round": r, "name": n, "start": t0, "end": t1, "parent": p}
            for r, n, t0, t1, p in self.spans
        ]
