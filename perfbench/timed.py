"""Timed phase of one benchmark run, in a process of its own.

    python3 perfbench/timed.py PLAN.json RESULT.json

The plan lists the prism25d commands of one round. Rounds run back to back,
each command through `prism25d.cli.main` in this process, until the plan's
seconds have passed; at least one round always runs. Untraced, every
command is also timed in nominal seconds under `probe.Probe`. With tracing
on, the first half of the time runs untraced and the second half traced,
both without the probe, so the tracing overhead can be taken from the two
sets of round times. Running apart from the set-up makes this process's
peak resident memory that of the timed phase alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def run_rounds(cli_main, ops: list[dict], seconds: float, probe=None) -> list[list[dict]]:
    """Run rounds of `ops` for `seconds`; with a probe, also time each op in nominal seconds."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        records = []
        for op in ops:
            err = io.StringIO()
            mark = probe.mark() if probe else None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = cli_main(op["argv"])
            except Exception as exc:  # a crash is a failed operation, not a failed run
                code, err = -1, io.StringIO(f"{type(exc).__name__}: {exc}")
            rec = {"wall": time.perf_counter() - t0, "code": code, "error": err.getvalue().strip()}
            if probe:
                rec["wall"], rec["nominal"] = probe.since(mark)
            records.append(rec)
        rounds.append(records)
    return rounds


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    from prism25d.cli import main as cli_main

    result: dict = {}
    if plan["trace"]:
        import spans

        result["untraced"] = run_rounds(cli_main, plan["ops"], plan["seconds"] / 2)
        tracer = spans.Tracer()
        spans.install(tracer)
        try:
            result["rounds"] = run_rounds(cli_main, plan["ops"], plan["seconds"] / 2)
        finally:
            tracer.restore()
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
    else:
        from probe import Probe

        with Probe() as probe:
            result["rounds"] = run_rounds(cli_main, plan["ops"], plan["seconds"], probe)
        result["probe_mean_s"] = probe.busy / max(probe.count, 1)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
