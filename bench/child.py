"""One benchmark pass, run in a fresh interpreter by ``run.py``.

Reads a job from standard input: the workload, its seed, its operations, an
address-space limit, whether to trace, and whether to check outputs.  Caps
its own address space, imports the package, runs the operations one after
another with per-operation timing, then (outside the timed region) reads
the memo counters and checks the outputs.  Writes one JSON result line to
standard output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction

import tracing
import workloads
from probe import PROBE_INTERVAL_S, normalized, speed_probe


def _run(op, cli, duality) -> tuple[int, str]:
    if op["kind"] == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op["argv"])
        return code, out.getvalue()
    n, r, s, q0 = op["args"]
    return 0, str(duality.image_rank(n, r, s, Fraction(q0)))


def main() -> None:
    job = json.loads(sys.stdin.read())
    limit = job["address_space_bytes"]
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    mods = tracing.modules()
    caches = tracing.cache_handles()
    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer()
        tracer.install()

    ops = job["ops"]
    results, op_s, errors = [], [], []
    probes = [(0, speed_probe())]
    last_probe = origin = time.perf_counter()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        if time.perf_counter() - last_probe >= PROBE_INTERVAL_S:
            probes.append((index, speed_probe()))
            last_probe = time.perf_counter()
        op_started = time.perf_counter()
        try:
            result = _run(op, mods["cli"], mods["duality"])
        except Exception as exc:  # a failed operation is counted, not fatal
            result = None
            errors.append(f"op {index}: {type(exc).__name__}: {exc}"[:300])
        op_s.append(time.perf_counter() - op_started)
        results.append(result)
    probes.append((len(ops), speed_probe()))
    op_norm_s = normalized(op_s, probes)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    counters = tracing.cache_metrics(caches)

    report = {
        "op_s": op_s,
        "op_norm_s": op_norm_s,
        "peak_rss_kb": peak_rss_kb,
        "digests": [None if r is None else workloads.digest([str(r[0]), workloads.canonical(r[1])]) for r in results],
        "errors": errors,
    }
    if tracer is not None:
        summary = tracer.summary([n / r if r > 0 else 1.0 for n, r in zip(op_norm_s, op_s)])
        report["trace"] = {
            **summary,
            "counts": tracer.counts,
            "caches": counters,
            "output_bytes": sum(len(r[1].encode("utf-8")) for op, r in zip(ops, results) if r is not None and op["kind"] == "cli"),
        }
        os.makedirs(os.path.dirname(job["spans_path"]), exist_ok=True)
        tracer.write(job["spans_path"], origin)
    if job["check"]:
        try:
            report["ok"] = workloads.check(job["workload"], job["seed"], ops, results)
        except Exception as exc:  # a checker crash fails every operation
            report["ok"] = [False] * len(ops)
            errors.append(f"check: {type(exc).__name__}: {exc}"[:300])
    sys.stdout.write(json.dumps(report) + "\n")
    sys.stdout.flush()
    # Skip interpreter teardown: freeing the warm memo caches object by
    # object takes seconds and measures nothing.
    os._exit(0)


if __name__ == "__main__":
    main()
