"""Run one workload of the moce benchmark and print its metrics.

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric; with ``--trace 1`` it has every per-layer metric
instead. The lines before it give the run's facts and sample counts, and
the raw timings before their scaling to the reference machine speed (see
``workloads.SpeedProbe``).
Exits with code 2, printing no result, when the program's sources are not
in the checkout.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# One BLAS thread, pinned before numpy loads: single-molecule requests ran
# faster with one thread than with two, and no BLAS worker then spins on a
# second CPU whose other tenants would set our timings.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

def facts() -> dict:
    """Run facts recorded next to the metrics; none of them is gated."""
    import hashlib
    import platform
    import subprocess

    import numpy as np

    src = os.path.join(ROOT, "src", "moce")
    lines = 0
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                data = fh.read()
            lines += data.count(b"\n")
            digest.update(name.encode() + b"\0" + data)
    commit = None  # checkouts without git metadata
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_moce_lines": lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "moce", "__init__.py")):
        print(f"no program sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(__file__)]

    import contextlib
    import json
    import shutil
    import tempfile

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    spec = workloads.WORKLOADS[args.workload]
    scratch = os.path.join(ROOT, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(dir=scratch)
    try:
        run = workloads.trace if args.trace else workloads.measure
        out = run(spec, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left by a concurrent run
            os.rmdir(scratch)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    print("facts " + json.dumps(facts()))
    print("samples " + json.dumps(out.samples))
    for note in out.notes[:20]:
        print("failed " + note)
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in out.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
