"""prism25d benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload graphs --seed 1 --seconds 15 --trace 0

Run from a checkout of the repository; the program is imported from its
`src/` directory. `--workload all` runs every workload in turn. The last
line of standard output is one JSON object: correct, attempted, failed and
metrics (end-to-end metrics with `--trace 0`, per-layer metrics with
`--trace 1`). Untraced times are nominal seconds, corrected for the
machine's speed by `probe.py`. Every run appends a record of itself, with
its machine and its wall-clock figures, to `.perfbench-out/runs.jsonl`; a
traced run also writes its spans there.
"""

from __future__ import annotations

import os

# one BLAS thread: the load is one single-threaded process, whatever the
# environment says, and this must be set before numpy is imported
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import spans
from probe import Probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 5
WORKER_GRACE_S = 150  # allowance for the last round and interpreter start-up


def machine() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def _rates(rounds: list[list[dict]], ops) -> tuple[float, float]:
    """Items per nominal second and per wall second, over the samples with no failed op."""
    items = wall = nominal = 0.0
    for records in rounds:
        failed = {op.sample for op, rec in zip(ops, records) if rec["code"] != 0}
        for op, rec in zip(ops, records):
            if op.sample not in failed:
                items += op.items
                wall += rec["wall"]
                nominal += rec["nominal"]
    return (items / nominal, items / wall) if items else (0.0, 0.0)


def _set_up(workload, work: Path, seed: int, probed: bool) -> tuple:
    """One set-up from an empty work directory: (prepared, wall s, nominal s)."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if not probed:  # a traced set-up: spans must not hold probe time
        start = time.perf_counter()
        prep = workload.setup(work, seed)
        wall = time.perf_counter() - start
        return prep, wall, wall
    with Probe() as probe:
        mark = probe.mark()
        prep = workload.setup(work, seed)
        wall, nominal = probe.since(mark)
    return prep, wall, nominal


def run_workload(workload, seed: int, seconds: float, trace: bool, out: Path = OUT) -> dict:
    """Set up, run the timed phase in a worker process, check, and summarise."""
    work = out / f"work-{workload.name}"
    setup_tracer = spans.Tracer()
    setups = []
    if trace:
        spans.install(setup_tracer)
        try:
            prep, *times = _set_up(workload, work, seed, probed=False)
        finally:
            setup_tracer.restore()
        setups.append(times)
    else:
        for _ in range(SETUP_REPEATS):
            prep, *times = _set_up(workload, work, seed, probed=True)
            setups.append(times)

    plan_path, result_path = work / "plan.json", work / "timed.json"
    plan = {"src": str(SRC), "seconds": seconds, "trace": trace,
            "ops": [{"argv": op.argv} for op in prep.ops]}
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    subprocess.run(
        [sys.executable, str(HERE / "timed.py"), str(plan_path), str(result_path)],
        check=True, timeout=seconds + WORKER_GRACE_S,
    )
    timed = json.loads(result_path.read_text(encoding="utf-8"))
    failures = workload.check(prep)

    extra: dict = {}
    all_rounds = timed.get("untraced", []) + timed["rounds"]
    records = [rec for rnd in all_rounds for rec in rnd]
    errors = sorted({rec["error"] for rec in records if rec["code"] != 0})
    if trace:
        traced = spans.Tracer()
        traced.spans, traced.counts = timed["spans"], Counter(timed["counts"])
        values = spans.layer_metrics(traced, len(timed["rounds"]), setup_tracer, len(setups))
        plain = statistics.median(sum(r["wall"] for r in rnd) for rnd in timed["untraced"])
        slow = statistics.median(sum(r["wall"] for r in rnd) for rnd in timed["rounds"])
        values["trace.overhead_s"] = (slow - plain, "s")
        values["trace.overhead_pct"] = (100.0 * (slow - plain) / plain, "%")
        write_trace(out / f"trace-{workload.name}.jsonl", setup_tracer.spans, timed["spans"])
    else:
        rate, wall_rate = _rates(timed["rounds"], prep.ops)
        extra = {"wall_items_per_s": wall_rate, "probe_mean_s": timed["probe_mean_s"],
                 "wall_setup_s": statistics.median(wall for wall, _ in setups)}
        values = {
            "items_per_s": (rate, "1/s"),
            "peak_rss_mb": (timed["peak_rss_kb"] / 1024.0, "MB"),
            "setup_s": (statistics.median(nominal for _, nominal in setups), "s"),
        }
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": sum(1 for rec in records if rec["code"] != 0),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine(), "setup_repeats": len(setups),
        "rounds": len(timed["rounds"]), "untraced_rounds": len(timed.get("untraced", [])),
        "skipped_seeds": prep.skipped_seeds, "check_failures": failures, "op_errors": errors,
        **result, **extra,
    }
    with open(out / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    _report(record)
    return result


def write_trace(path: Path, setup_spans: list, timed_spans: list) -> None:
    """One JSON line per span: name, start, end, parent index within its phase."""
    with open(path, "w", encoding="utf-8") as fh:
        for phase, spans_ in (("setup", setup_spans), ("timed", timed_spans)):
            for name_, start, end, parent in spans_:
                fh.write(json.dumps({"phase": phase, "name": name_, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def _report(record: dict) -> None:
    m = record["machine"]
    print(f"workload {record['workload']} seed {record['seed']} trace {int(record['trace'])}: "
          f"{record['rounds']} rounds, {record['setup_repeats']} set-ups, "
          f"{record['skipped_seeds']} world seeds skipped")
    print(f"machine: {m['nproc']} cpus, {m['cpu']}, python {m['python']}, numpy {m['numpy']}, "
          f"{m['blas']} with {m['blas_threads']} thread(s)")
    for name, metric in record["metrics"].items():
        print(f"  {name:<36} {metric['value']:>14.6g} {metric['unit']}")
    if "wall_items_per_s" in record:
        print(f"  wall clock: {record['wall_items_per_s']:.6g} items/s, set-up "
              f"{record['wall_setup_s']:.6g} s, probe {1e3 * record['probe_mean_s']:.4g} ms")
    print(f"  attempted {record['attempted']}, failed {record['failed']}")
    for msg in record["op_errors"]:
        print(f"  op error: {msg}")
    for msg in record["check_failures"]:
        print(f"  CHECK FAILED: {msg}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "prism25d" / "cli.py").is_file():
        print(f"prism25d sources not found under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    OUT.mkdir(exist_ok=True)
    results = {}
    for name in names:
        results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        if len(names) > 1:
            print(json.dumps({"workload": name, **results[name]}))
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
