"""Smoke check of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload listed in BENCHMARK.json with tracing off and on, at
sizes that take well under a second, and fails unless each run passes its
correctness checks and emits exactly the metric names and units that
BENCHMARK.json lists for that mode, and unless every size metric is above 0
on a workload that reaches its layer.
"""

from __future__ import annotations

import json
import sys

import run

# each size metric, and a workload whose traced pass must report it above 0
SIZE_REACHED_ON = {
    "pauli.expansion_terms_max": "decay_cli",
    "pauli.group_rank_max": "decay_cli",
    "dense.dim_max": "decay_cli",
    "series.series_keys_max": "certificates",
    "series.clusters": "certificates",
}

def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if not (run.SRC / "hmnlab" / "__init__.py").is_file():
        print(f"error: no hmnlab sources under {run.SRC}", file=sys.stderr)
        return 2
    run.cap_blas_threads()
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS

    names = [w["name"] for w in spec["workloads"]]
    problems = []
    if sorted(names) != sorted(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != implemented {sorted(WORKLOADS)}")
    want = {
        trace: {m["name"]: m["unit"] for m in spec[key]}
        for trace, key in ((False, "end_to_end"), (True, "per_layer"))
    }
    for name in names:
        for trace in (False, True):
            res = run.benchmark(name, 1, 0.0, trace, tiny=True)
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            tag = f"{name} trace={int(trace)}"
            if got != want[trace]:
                missing = sorted(set(want[trace]) - set(got))
                extra = sorted(set(got) - set(want[trace]))
                wrong = sorted(k for k in set(got) & set(want[trace]) if got[k] != want[trace][k])
                problems.append(f"{tag}: missing {missing}, unlisted {extra}, unit differs {wrong}")
            if res["attempted"] == 0 or res["failed"]:
                problems.append(f"{tag}: {res['failed']} of {res['attempted']} points failed")
            for metric, where in SIZE_REACHED_ON.items():
                if trace and where == name and not res["metrics"][metric]["value"] > 0:
                    problems.append(f"{tag}: size {metric} is not above 0")
            if res["missing_targets"]:
                problems.append(f"{tag}: trace targets not found {res['missing_targets']}")
            print(f"{tag}: {res['attempted']} points, {len(got)} metrics")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("smoke ok" if not problems else f"smoke failed ({len(problems)} problem(s))")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
