"""Benchmark of tlonemax: one workload per invocation.

    python3 perfbench/run.py --workload scaling --seed 0 --seconds 27 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The workloads and the reason for each are in BENCHMARK.json and
perfbench/README.md.

--trace 0 measures set-up time in fresh processes, then answers the
workload's question set repeatedly until --seconds have passed (at least
once), checks every answer, and reports the end-to-end metrics of
BENCHMARK.json.  --trace 1 answers the question set once untraced and once
traced, and reports the per-layer metrics; the spans go to
perfbench/out/trace-<workload>-seed<seed>.json.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The line before it holds the run's metadata, the
workload-specific throughputs and every failed operation.  A failed check
makes the run fail: correct is false and the exit code is 1.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_SAMPLES = 3
WARMUP = "import tlonemax as tl; tl.run_trial(tl.RLS, 1, 8, 100, 0)"


def setup_seconds() -> list[float]:
    """Seconds for a fresh interpreter to import tlonemax and make one tiny call."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", WARMUP], env=env, cwd=ROOT, check=True)
        samples.append(time.perf_counter() - t0)
    return samples


def _openblas_threads():
    import numpy as np
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                      "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(handle, name):
                return getattr(handle, name)()
    return None


def metadata() -> dict:
    import numpy as np
    import scipy
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": _openblas_threads()}


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "tlonemax").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _absent(name: str, patterns: set) -> bool:
    return any(name == p or (p.endswith("*") and name.startswith(p[:-1])) for p in patterns)


def layer_metrics(names, traced, answer) -> dict:
    """Every per-layer metric of BENCHMARK.json.  A layer the workload never
    calls reads 0; a metric whose public function is gone is left out."""
    ops_failed = len(answer.known_defects) + len(answer.unexpected)
    values = {**answer.rates, **traced.metrics, "ops_failed": ops_failed,
              "ops_failed_frac": ops_failed / answer.ops}
    unknown = set(values) - set(names)
    if unknown:
        raise KeyError(f"metrics not listed in BENCHMARK.json: {sorted(unknown)}")
    return {n: values.get(n, 0) for n in names if not _absent(n, traced.absent)}


def check_counts(workload: str, seed: int, metrics: dict, count_names) -> list[str]:
    """Count metrics must repeat exactly between traced runs of one program and seed."""
    counts = {k: metrics[k] for k in count_names if k in metrics}
    path = OUT / f"counts-{workload}-seed{seed}-{_source_digest()}.json"
    if path.exists():
        before = json.loads(path.read_text())
        return [f"count {k} was {before.get(k)} in an earlier traced run, now {v}"
                for k, v in counts.items() if before.get(k) != v]
    OUT.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts))
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    if not (SRC / "tlonemax" / "__init__.py").is_file():
        print(f"error: no tlonemax package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    setups = setup_seconds() if not args.trace else []
    sys.path.insert(0, str(SRC))
    import tlonemax as tl
    if Path(tl.__file__).resolve().parent != (SRC / "tlonemax").resolve():
        print(f"error: imported tlonemax from {tl.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer
    tl.run_trial(tl.RLS, 1, 8, 100, 0)

    wl = workloads.WORKLOADS[args.workload](args.seed)
    answers = []
    start = time.perf_counter()
    while True:
        answers.append(wl.question())
        if args.trace or (time.perf_counter() - start
                          + statistics.median(a.wall_s for a in answers) > args.seconds):
            break
    first = answers[0]
    problems = wl.check(first)
    problems += [f"repeat {i} answered differently from the first pass"
                 for i, a in enumerate(answers[1:], 1) if repr(a.result) != repr(first.result)]
    meta = metadata()

    if args.trace:
        tracer = Tracer(f"{args.workload}-seed{args.seed}-{uuid.uuid4().hex[:12]}")
        with tracer.span(f"bench.{args.workload}"):
            traced = wl.traced(tracer, first)
        problems += traced.problems
        names = [m["name"] for m in spec["per_layer"]]
        values = layer_metrics(names, traced, first)
        problems += check_counts(args.workload, args.seed, values, workloads.COUNT_METRICS)
        meta["tracing_overhead_s"] = values.get("tracing_overhead_s")
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                    {"workload": args.workload, "seed": args.seed, "meta": meta})
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {"setup_s": statistics.median(setups),
                  "wall_s": statistics.median(a.wall_s for a in answers),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        missing = set(units) - set(values)
        if missing:
            raise KeyError(f"end-to-end metrics not measured: {sorted(missing)}")

    attempted = sum(a.ops for a in answers)
    known = [m for a in answers for m in a.known_defects]
    unexpected = [m for a in answers for m in a.unexpected]
    details = {k: statistics.median(a.rates[k] for a in answers) for k in first.rates}
    details["ops_failed_frac"] = (len(known) + len(unexpected)) / attempted
    print(json.dumps({"workload": args.workload, "seed": args.seed, "repeats": len(answers),
                      "meta": meta, "details": details, "known_defect_failures": known,
                      "problems": problems}))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(unexpected),
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in values.items()}}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
