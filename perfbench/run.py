"""ray-lucene benchmark: four seeded workloads against the package's public
index / search / serving functions, with a separate traced run.

    python3 perfbench/run.py --workload {ingest,search,serve,nrt} \
        --seed N --seconds S --trace {0,1}

Run from the repository root. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones from layers.py, and the span file and a
per-layer summary are written under ``.bench_build/perfbench/``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_LIMIT_S = 170  # stay inside the 180 s a run may take

# every workload reports every one; workloads.py and README.md say what
# each means on each workload
END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("items_per_s", "1/s"),
    ("index_bytes_per_input_byte", "ratio"),
]


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["ingest", "search", "serve", "nrt"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args(argv)
    if a.seed < 0 or a.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return a


def _timeout(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")


def _ray_temp_dir() -> str | None:
    """Ray's session files inside the checkout when the path is short
    enough for its unix sockets: 107 bytes, of which the session name and
    ``/sockets/plasma_store`` take about 63. Otherwise Ray's default."""
    d = os.path.join(ROOT, ".bench_build", "ray")
    return d if len(d) <= 44 else None


def _nproc() -> int:
    """What ``nproc`` prints: usable cores, capped by OMP_NUM_THREADS."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True,
                             check=True).stdout
        return max(1, int(out))
    except (OSError, ValueError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0))


def _env(nproc: int) -> dict:
    import numpy
    import pyarrow
    import ray

    return {"nproc": nproc, "num_cpus": nproc,
            "python": platform.python_version(), "ray": ray.__version__,
            "numpy": numpy.__version__, "pyarrow": pyarrow.__version__}


def _summary_lines(units: dict, metrics: dict) -> list[str]:
    return [f"  {name:<46} {metrics[name]:>14.6g} {unit}"
            if name in metrics else f"  {name:<46} {'unmeasured':>14}"
            for name, unit in units.items()]


def main(argv=None) -> int:
    a = _args(argv)
    sys.path.insert(0, ROOT)
    try:
        import lucene_solr_ray  # noqa: F401
    except ImportError as e:
        print(f"perfbench: cannot import the package under {ROOT}: {e}",
              file=sys.stderr)
        return 2
    import ray
    from ray.data import DataContext

    from spans import Tracer
    from workloads import WORKLOADS, Run

    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_LIMIT_S)
    nproc = _nproc()
    env = _env(nproc)
    os.makedirs(OUT, exist_ok=True)
    tag = f"{a.workload}-seed{a.seed}-trace{a.trace}"
    work = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(work)
    # Ray workers import the package from the checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    run = Run(workload=a.workload, seed=a.seed, seconds=a.seconds,
              nproc=nproc, work=work, tracer=Tracer(bool(a.trace)),
              traced=bool(a.trace))
    run.t_start = time.perf_counter()
    ray.init(address="local", num_cpus=nproc, include_dashboard=False,
             log_to_driver=False, logging_level="ERROR",
             object_store_memory=512 << 20, _temp_dir=_ray_temp_dir())
    run.mark("ray_init")
    try:
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)
        run.tracer.enabled = False  # the workload toggles it
        WORKLOADS[a.workload](run)
        if a.trace:
            from layers import PER_LAYER, layer_pass

            metrics = layer_pass(run)
            units = dict(PER_LAYER)
        else:
            metrics = run.metrics
            units = dict(END_TO_END)
        run.mark("workload")
    finally:
        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)
        signal.alarm(0)
    run.mark("shutdown")
    wall = time.perf_counter() - run.t_start

    attempted, failed = run.tally.attempted, run.tally.failed
    run.name("failed_ratio", failed / max(attempted, 1), "ratio")
    print(f"perfbench {tag}  " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"  run wall {wall:.1f} s; {failed} of {attempted} operations "
          "and checks failed")
    for k, v in run.report.items():
        print(f"  {k} = {v}")
    if not a.trace:
        print(f"  {a.workload} metrics by operation:")
        for k, (v, u) in run.named.items():
            print(f"    {k:<44} {v:>14.6g} {u}")
    print("\n".join(_summary_lines(units, metrics)))
    detail = {"workload": a.workload, "seed": a.seed, "seconds": a.seconds,
              "trace": a.trace, "env": env, "report": run.report,
              "named": {k: {"value": v, "unit": u}
                        for k, (v, u) in run.named.items()},
              "attempted": attempted, "failed": failed,
              "failures": run.tally.notes, "metrics": metrics}
    if a.trace:
        spans = os.path.join(OUT, f"spans-{tag}.jsonl")
        run.tracer.write(spans)
        detail["spans_file"] = os.path.relpath(spans, ROOT)
        detail["span_summary"] = run.tracer.by_name()
        print(f"  spans: {detail['spans_file']}")
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as f:
        json.dump(detail, f, indent=1, default=str)
    missing = [n for n in units if n not in metrics]
    if missing:
        print(f"perfbench: unmeasured metrics {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": u}
                    for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
