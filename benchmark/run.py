"""lcdet benchmark: one workload per process, outputs checked, metrics on stdout.

    python3 benchmark/run.py --workload toy-detect --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).
See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".bench_runs")


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cap_blas_threads() -> int:
    """--threads is a no-op in lcdet, so the cap is set here, before numpy loads."""
    n = _nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def _import_lcdet():
    if not os.path.isfile(os.path.join(SRC, "lcdet", "__init__.py")):
        raise SystemExit(f"error: no lcdet sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import lcdet
    if os.path.dirname(os.path.abspath(lcdet.__file__)) != os.path.join(SRC, "lcdet"):
        raise SystemExit(f"error: imported lcdet from {lcdet.__file__}, not from {SRC}")


def environment(nproc: int) -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # numpy builds differ in what they report; the record is advisory
        pass
    return {"nproc": nproc, "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    nproc = _cap_blas_threads()
    _import_lcdet()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r} (choose from {', '.join(workloads.WORKLOADS)})")

    env = environment(nproc)
    run_dir = os.path.join(RUNS, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    work = os.path.join(run_dir, "work")
    os.makedirs(work)
    bench = workloads.WORKLOADS[args.workload](work, args.seed)
    try:
        result = bench.run(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in bench.problems:
        print(f"check: {line}", file=sys.stderr)
    if args.trace:
        import spans
        spans.print_layers(result["layers"])
        with open(os.path.join(run_dir, "layers.csv"), "w") as f:
            f.write(spans.layers_csv(result["layers"]))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "problems": bench.problems,
              **{k: result[k] for k in ("setup_seconds", "model_bytes", "ops", "metrics")}}
    with open(os.path.join(run_dir, "result.json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print("environment: " + json.dumps(env, sort_keys=True))
    print("model bytes: " + json.dumps(result["model_bytes"], sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
