"""Benchmark of the walled_tangles package.

Run from the root of a checkout:

    python3 bench/run.py --workload braids --seed 7 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Load shape: closed loop, one caller in one process.  Each pass starts a
fresh interpreter, so the package's memo caches start cold, as they do for
every command-line invocation, and persist across the operations of the
pass, as they do for a library user.  Passes repeat the same seeded
operations until ``--seconds`` have elapsed (at least three passes).  Each
operation's time is normalized to a nominal machine speed (see ``probe.py``)
and its median over passes is taken.  The first pass checks every output
against an oracle, and later passes must reproduce its outputs byte for
byte.

With ``--trace 0`` the result line carries the end-to-end metrics; with
``--trace 1`` one untraced and one traced pass give the per-layer metrics
and the tracing overhead, and the spans are written under ``.bench_out/``.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads
from probe import PROBE_NOMINAL_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Address-space cap of each pass, set by the pass itself with setrlimit.
ADDRESS_SPACE_BYTES = 2 << 30
#: Wall-clock budget of a whole run; no pass starts that could overrun it.
RUN_BUDGET_S = 170.0
SETUP_STARTS = 7
#: Passes of every run, however long they take; more while time allows.
MIN_PASSES = 3
#: End-to-end metrics as (name, unit); all are reported for every workload.
END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "ratio"),
)
#: Per-layer metrics of the traced pass as (name, unit).
PER_LAYER = (
    ("duality.self_s", "s"),
    ("duality.commutant_dim.s", "s"),
    ("duality.image_rank.s", "s"),
    ("duality.unknowns", "count"),
    ("rep.self_s", "s"),
    ("rep.matrix_of_connector.calls", "count"),
    ("rep.nonzeros", "count"),
    ("rep.deposit.hit_ratio", "ratio"),
    ("laurent.self_s", "s"),
    ("laurent.ops", "count"),
    ("laurent.quantum_binom.hit_ratio", "ratio"),
    ("skein.self_s", "s"),
    ("skein.descend.hit_ratio", "ratio"),
    ("skein.descend.entries", "count"),
    ("skein.product.hit_ratio", "ratio"),
    ("skein.multiply.calls", "count"),
    ("tangle.self_s", "s"),
    ("tangle.strand_graph.hit_ratio", "ratio"),
    ("tangle.strand_graph.entries", "count"),
    ("qgroup.self_s", "s"),
    ("qgroup.nonzeros", "count"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.overhead_s", "s"),
)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _communicate(argv: list, stdin: str, timeout: float) -> tuple[int, str, str]:
    """Run a child to completion or kill it at the timeout; always reaped."""
    with subprocess.Popen(
        argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, cwd=ROOT, env=_env(),
    ) as proc:
        try:
            out, err = proc.communicate(stdin, timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            return -9, out, err + "\npass killed at its wall-clock timeout"
        return proc.returncode, out, err


def measure_setup() -> list[float]:
    """Seconds to import the package in fresh interpreters, after one
    untimed start that leaves the bytecode cache warm; each import is
    normalized by a speed probe taken right after it."""
    script = (
        "import time; t = time.perf_counter(); import walled_tangles.cli; s = time.perf_counter() - t; "
        f"import sys; sys.path.insert(0, {HERE!r}); import probe; print(s, probe.speed_probe())"
    )
    samples = []
    for attempt in range(SETUP_STARTS + 1):
        code, out, err = _communicate([sys.executable, "-c", script], "", 60)
        if code != 0:
            raise RuntimeError(f"cannot import walled_tangles: {err.strip()}")
        if attempt:
            seconds, probe_s = map(float, out.split())
            samples.append(seconds * PROBE_NOMINAL_S / probe_s)
    return samples


def run_pass(job: dict, timeout: float) -> dict:
    """One pass in a fresh interpreter; None fields mark a pass that died."""
    code, out, err = _communicate([sys.executable, os.path.join(HERE, "child.py")], json.dumps(job), max(timeout, 1.0))
    lines = out.strip().splitlines()
    if code == 0 and lines:
        return json.loads(lines[-1])
    return {"died": f"exit {code}: {err.strip()[-500:]}"}


def _job(workload: str, seed: int, ops: list, trace: bool, check: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "ops": ops,
        "trace": trace,
        "check": check,
        "address_space_bytes": ADDRESS_SPACE_BYTES,
        "spans_path": os.path.join(ROOT, ".bench_out", f"spans-{workload}.json"),
    }


def _failures(passes: list[dict], count: int) -> int:
    """Failed operations: in the first pass those that fail their checks,
    in later passes those that fail them there or whose output differs from
    the first pass's; a pass that died fails all of its operations."""
    first = passes[0]
    failed = 0
    for result in passes:
        if "died" in result or "died" in first:
            failed += count
        else:
            failed += sum(
                1 for ok, a, b in zip(first["ok"], result["digests"], first["digests"]) if not ok or a is None or a != b
            )
    return failed


def measure(workload: str, seed: int, seconds: float, trace: bool, log) -> dict:
    started = time.monotonic()
    ops = workloads.build(workload, seed)
    setup = measure_setup()
    passes: list[dict] = []

    def remaining() -> float:
        return RUN_BUDGET_S - (time.monotonic() - started)

    if trace:
        plain = run_pass(_job(workload, seed, ops, False, True), remaining())
        passes.append(plain)
        traced = run_pass(_job(workload, seed, ops, True, False), remaining())
        passes.append(traced)
    else:
        measuring = time.monotonic()
        while True:
            pass_started = time.monotonic()
            passes.append(run_pass(_job(workload, seed, ops, False, not passes), remaining()))
            last = time.monotonic() - pass_started
            elapsed = time.monotonic() - measuring
            if "died" in passes[-1] or remaining() < 1.5 * last:
                break
            if len(passes) >= MIN_PASSES and elapsed + last > seconds:
                break
    for index, result in enumerate(passes):
        if "died" in result:
            log(f"pass {index} died: {result['died']}")
        for error in result.get("errors", ()):
            log(f"pass {index}: {error}")

    attempted = len(ops) * len(passes)
    failed = _failures(passes, len(ops))
    alive = [p for p in passes if "died" not in p]
    metrics: dict = {}
    if trace:
        metrics = _layer_metrics(plain, traced) if "died" not in traced and "died" not in plain else {}
    elif alive:
        # Each operation's latency is its speed-normalized time, median over
        # passes, so a burst of load from outside that slows part of one pass
        # drops out.
        latencies = [statistics.median(times) for times in zip(*(p["op_norm_s"] for p in alive))]
        metrics = {
            "wall_s": sum(latencies),
            "op_p50_s": statistics.median(latencies),
            "op_p90_s": statistics.quantiles(latencies, n=10, method="inclusive")[8],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": max(p["peak_rss_kb"] for p in alive) / 1024,
            "pass_ratio": (attempted - failed) / attempted,
        }
        log(f"{workload}: seed {seed}, {len(passes)} passes of {len(ops)} operations; "
            f"latencies are per-operation medians over passes ({len(latencies)} samples); "
            f"setup_s is the median of {len(setup)} imports")
        log("pass seconds, raw: " + ", ".join(f"{sum(p['op_s']):.3f}" for p in alive))
        log("pass seconds, normalized: " + ", ".join(f"{sum(p['op_norm_s']):.3f}" for p in alive))
        log(f"fail_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    return {"correct": failed == 0 and len(metrics) > 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _layer_metrics(plain: dict, traced: dict) -> dict:
    trace = traced["trace"]
    calls, seconds, counts, caches = trace["calls"], trace["seconds"], trace["counts"], trace["caches"]
    values = {f"{layer}.self_s": s for layer, s in trace["self_s"].items()}
    values.update(caches)
    values.update(counts)
    values.update({
        "duality.commutant_dim.s": seconds.get("duality.commutant_dim"),
        "duality.image_rank.s": seconds.get("duality.image_rank"),
        "rep.matrix_of_connector.calls": calls.get("rep.matrix_of_connector"),
        "skein.multiply.calls": calls.get("skein.multiply"),
        "laurent.ops": sum(c for name, c in calls.items() if name.startswith("laurent.")),
        "cli.output_bytes": trace["output_bytes"],
        "trace.overhead_s": sum(traced["op_norm_s"]) - sum(plain["op_norm_s"]),
    })
    return {name: values.get(name) for name, _ in PER_LAYER}


def _result_line(result: dict, units: dict) -> str:
    metrics = {name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()}
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "walled_tangles")):
        print(f"error: no package source at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    def log(line: str) -> None:
        print(line, flush=True)

    log(f"python {platform.python_version()}, nproc {os.cpu_count()}")
    units = dict(PER_LAYER if args.trace else END_TO_END)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace), log)
        except RuntimeError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        for metric, entry in results[name]["metrics"].items():
            shown = "absent" if entry is None else f"{entry:.6g} {units[metric]}"
            log(f"  {name} {metric} = {shown}")
    if len(names) == 1:
        print(_result_line(results[names[0]], units))
    else:
        combined = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
        units = {f"{w}.{m}": unit for w in names for m, unit in units.items()}
        print(_result_line(combined, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
