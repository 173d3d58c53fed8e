"""hmnlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; hmnlab is imported from ``src/`` of that
checkout.  One run sets the workload up, computes its oracle values, then
repeats full passes over the workload's jobs for about ``--seconds``
seconds (at least four passes).  Before each pass it times a fixed
calibration loop and two more set-ups.  Every job is timed on its own, and
every pass's outputs are checked outside the timed region.

``--trace 0`` reports the end-to-end metrics ``sweep_s`` (median pass
time), ``setup_s`` (median set-up time) and ``peak_rss_mb``.  Each pass and
set-up time is first scaled to a reference machine speed, read off the
calibration loop timed next to it.  ``--trace 1``
alternates plain passes with traced passes (spans around every call into a
traced hmnlab function) and reports per-layer self times, call counts,
sizes and ``trace.overhead_frac``.  The last line of standard output is
the result as one JSON object; a fuller record, with the environment, the
drawn parameters and (traced runs) every span, goes to
``.perfbench-out/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"

SETUPS_PER_PASS = 2
MIN_PASSES = 4
MIN_TRACE_ROUNDS = 2
# the reference speed is the one at which calibrate() takes this long
CAL_REF_S = 0.06

E2E_UNITS = {"sweep_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def cap_blas_threads() -> int:
    """Cap OpenBLAS at the CPUs this process may use; numpy must not have
    been imported yet."""
    nproc = len(os.sched_getaffinity(0))
    cur = os.environ.get("OPENBLAS_NUM_THREADS", "")
    n = min(int(cur), nproc) if cur.isdigit() and int(cur) > 0 else nproc
    os.environ["OPENBLAS_NUM_THREADS"] = str(n)
    return nproc


def blas_info() -> dict:
    import ctypes

    import numpy as np

    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(nproc: int) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((SRC / "hmnlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "hmnlab_commit": git_commit(),
        "hmnlab_src_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


def import_hmnlab():
    """Drop every hmnlab module and import the package afresh."""
    from workloads import MODULES

    for key in [k for k in sys.modules if k == "hmnlab" or k.startswith("hmnlab.")]:
        del sys.modules[key]
    for mod in MODULES:
        importlib.import_module(f"hmnlab.{mod}")


def set_up(wl, workdir: Path) -> float:
    """One full set-up, timed: import hmnlab afresh, write the workload's
    inputs, run the warm-up."""
    from workloads import warm_up

    t0 = time.perf_counter()
    import_hmnlab()
    wl.make_inputs(workdir)
    warm_up(workdir / "warm")
    return time.perf_counter() - t0


def timed_pass(wl, out_dir: Path, tracer=None):
    """One pass, each job timed, then checked; with a tracer, spans are
    recorded around the pass only, not around its check."""
    gc.collect()
    if tracer is not None:
        tracer.start_round()
        tracer.install()
    try:
        results, seconds = wl.run_pass(out_dir)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return seconds, wl.check(results, out_dir)


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop over tuples and a dict: the kind
    of work in hmnlab's interpreter-bound stages, with nothing from hmnlab
    in it, so that only the machine's speed moves it.  The collector is
    off, so the size of the process's heap does not move it either."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(3):
            counts = {}
            for i in range(60_000):
                key = (i % 977, i % 613, i & 7)
                counts[key] = counts.get(key, 0) + 1
        return time.perf_counter() - t0
    finally:
        gc.enable()


def scaled_median(times: list, cal_times: list) -> float:
    """Median of ``times``, each scaled by ``CAL_REF_S / cal``, where ``cal``
    is the calibration time measured next to it.

    Other tenants of the machine slow everything in the process, hmnlab
    and the calibration loop alike, in spells from seconds to minutes; a
    ratio to the loop timed moments before cancels the spell."""
    return statistics.median(t * CAL_REF_S / c for t, c in zip(times, cal_times))


def pass_time(seconds_by_job: dict) -> float:
    return sum(seconds_by_job.values())


def benchmark(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    from spans import Tracer, metric_units
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        wl = WORKLOADS[name](seed, tiny)
        cal_times = [calibrate()]
        setup_times = [set_up(wl, work / "setup")]
        setup_cal = [cal_times[0]]  # the calibration next to each set-up
        wl.prepare_oracle()
        attempted = failed = 0
        plain, traced = [], []
        tracer = Tracer() if trace else None
        t_start = time.perf_counter()
        i = 0
        while True:
            # set-ups are spread over the run like the passes, so that their
            # median samples the same stretch of machine time
            cal = calibrate()
            for k in range(SETUPS_PER_PASS):
                setup_times.append(set_up(wl, work / f"setup{i}.{k}"))
                setup_cal.append(cal)
            cal_times.append(cal)
            seconds_by_job, (a, f) = timed_pass(wl, work / f"pass{i}")
            plain.append(seconds_by_job)
            attempted, failed = attempted + a, failed + f
            if tracer is not None:
                seconds_by_job, (a, f) = timed_pass(wl, work / f"traced{i}", tracer)
                traced.append(seconds_by_job)
                attempted, failed = attempted + a, failed + f
            i += 1
            # start another round only if it should end within half a round
            # of the budget, so runs average ``seconds`` long
            per_round = statistics.median(map(pass_time, plain))
            if traced:
                per_round += statistics.median(map(pass_time, traced))
            elapsed = time.perf_counter() - t_start
            if i >= (MIN_TRACE_ROUNDS if trace else MIN_PASSES) and elapsed + per_round / 2 > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        metrics = tracer.layer_metrics(
            statistics.median(map(pass_time, traced)), statistics.median(map(pass_time, plain))
        )
        units = metric_units()
    else:
        metrics = {
            "sweep_s": scaled_median(list(map(pass_time, plain)), cal_times[1:]),
            "setup_s": scaled_median(setup_times, setup_cal),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "params": wl.drawn,
        "job_s": plain,
        "traced_job_s": traced,
        "setup_s": setup_times,
        "calibration_s": cal_times,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "missing_targets": tracer.missing if tracer else [],
        "spans": tracer.dump() if tracer else [],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hmnlab" / "__init__.py").is_file():
        print(f"error: no hmnlab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    sys.path.insert(0, str(SRC))

    res = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    res["env"] = environment(nproc)
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(res, indent=1) + "\n")

    print(f"workload {res['workload']}  seed {res['seed']}  trace {res['trace']}  params {json.dumps(res['params'])}")
    print(f"env {json.dumps(res['env'])}")
    for k, m in res["metrics"].items():
        print(f"  {k:<48} {m['value']:.6g} {m['unit']}")
    passes = [pass_time(p) for p in res["job_s"]]
    print(f"  unscaled medians: pass {statistics.median(passes):.4g} s, setup {statistics.median(res['setup_s']):.4g} s,"
          f" calibration {statistics.median(res['calibration_s']):.4g} s (reference {CAL_REF_S} s)")
    print(f"  passes {len(passes)} plain,"
          f" {len(res['traced_job_s'])} traced;"
          f" set-ups {len(res['setup_s'])}; failed {res['failed']} of {res['attempted']} points"
          f" (fail_frac {res['failed'] / max(res['attempted'], 1):.3g}); record {record.relative_to(ROOT)}")
    print(json.dumps({
        "correct": res["failed"] == 0 and res["attempted"] > 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
