#!/usr/bin/env python3
"""Benchmark of the `fairshare` CLI: end-to-end metrics, a traced per-layer
run, and correctness checks on every output.

One client drives `fairshare.cli.main(argv)` in-process, one request at a time
(a closed loop: one process, no threads). Set-up imports the package from
`src/` next to this directory and writes the seeded instances as files.

    python3 perfbench/run.py --workload allocate-verify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

With `--trace 0` the last stdout line is one JSON object holding the
end-to-end metrics, corrected for the host's speed (see hostspeed.py); with
`--trace 1` it holds the per-layer metrics of a traced pass over the same
requests, followed by the workload's defect probes. Lines before it carry
provenance: seed, guard limit, Python version and the shape histogram of the
workload. Exit
status is 0 on success, 1 if an output fails a check, 2 on a usage or
environment error, and 3 if a request exits with a code that means a bug.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import metrics
import workloads
from checks import Checker, CheckFailed
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
RUN_SECONDS = 30
SETUP_REPS = 21
# Kernel runs after each set-up that give its host speed.
SETUP_KERNELS = 5
P_HIGH = 90

END_TO_END = {
    "throughput_rps": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here (exit 2)."""


class RequestError(BenchError):
    """A request exited with a code that means a bug (exit 3)."""


def import_cli():
    """Import `fairshare.cli` afresh from this checkout's `src/`."""
    src = ROOT / "src"
    if not (src / "fairshare" / "__init__.py").is_file():
        raise BenchError(f"no fairshare package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "fairshare" or m.startswith("fairshare.")]:
        del sys.modules[name]
    cli = importlib.import_module("fairshare.cli")
    if Path(cli.__file__).resolve().parents[1] != src.resolve():
        raise BenchError(f"fairshare imported from {cli.__file__}, not from {src}")
    return cli


def set_up(workload: str, seed: int, size: int, directory: Path):
    """Import the package, then generate and write the instance files.

    Returns the set-up time corrected for host speed, the raw time, the CLI
    module, the timed pool and the defect probes.
    """
    shutil.rmtree(directory, ignore_errors=True)
    start = time.perf_counter()
    cli = import_cli()
    requests, probes = workloads.generate(workload, seed, size)
    workloads.write(workload, requests + probes, directory)
    elapsed = time.perf_counter() - start
    speed = statistics.median(hostspeed.kernel_time() for _ in range(SETUP_KERNELS))
    return elapsed * hostspeed.NOMINAL_S / speed, elapsed, cli, requests, probes


def call(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def run_request(cli, req) -> tuple[str, list[str], float]:
    """One request: its CLI calls in order, stopping at the first failure.

    Exit 3 (a size guard) is a failed request; any other non-zero exit means
    a bug or a workload that does not fit its instance, and aborts.
    """
    outputs = []
    start = time.perf_counter()
    for step, argv in enumerate(req.calls):
        rc, out, err = call(cli, argv)
        outputs.append(out)
        if rc == 3:
            return "failed", outputs, time.perf_counter() - start
        if rc != 0:
            raise RequestError(f"request {req.index}: `fairshare {' '.join(argv)}` exited {rc}: {err.strip()}")
        if step == 0 and req.allocation_path:
            with open(req.allocation_path, "w", encoding="utf-8") as fh:
                fh.write(out)
    return "ok", outputs, time.perf_counter() - start


def one_pass(cli, requests) -> tuple[list[tuple[str, list[str], float]], float]:
    start = time.perf_counter()
    results = [run_request(cli, req) for req in requests]
    return results, time.perf_counter() - start


def null_share_rate(workload: str, results) -> float:
    """Share fields `verify` reports as null over the share fields it reports."""
    if workload != "allocate-verify":
        return 0.0
    fields = nulls = 0
    for status, outputs, _ in results:
        if status != "ok":
            continue
        for agent in json.loads(outputs[1])["bounds"]["agents"]:
            fields += len(agent["shares"])
            nulls += sum(1 for v in agent["shares"].values() if v is None)
    return metrics.rate(nulls, fields)


def check_outputs(workload: str, requests, results) -> None:
    fs = sys.modules["fairshare"]
    oracle = importlib.import_module("fairshare.oracle")
    checker = Checker(fs, oracle)
    for req, (status, outputs, _) in zip(requests, results):
        checker.check(workload, req, status, outputs)


def measure(cli, requests, seconds: int) -> tuple[dict, dict, list, int, int]:
    """The untraced timed loop: whole first pass, then cycle until time is up.

    A kernel run follows every request, so each request time is corrected
    for the host's speed around it. A request that ran more than once counts
    with the median of its times. Returns the end-to-end metrics (set-up
    excluded), the same metrics uncorrected, the first-pass results for the
    checks, and the attempted and failed request counts.
    """
    run_request(cli, requests[0])  # warm-up, untimed
    hostspeed.kernel_time()
    first: list = []
    runs: list[tuple[int, str, float]] = []
    kernel_times: list[float] = []
    k = 0
    start = time.perf_counter()
    while k < len(requests) or time.perf_counter() - start < seconds:
        result = run_request(cli, requests[k % len(requests)])
        kernel_times.append(hostspeed.kernel_time())
        if k < len(requests):
            first.append(result)
        runs.append((k % len(requests), result[0], result[2]))
        k += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = sum(1 for _, status, _ in runs if status != "ok")
    corrected = hostspeed.corrected([t for _, _, t in runs], kernel_times)
    values = end_to_end(runs, corrected)
    values["peak_rss_mb"] = rss_mb
    raw = end_to_end(runs, [t for _, _, t in runs])
    raw["host_slowdown"] = statistics.median(kernel_times) / hostspeed.NOMINAL_S
    return values, raw, first, k, failed


def end_to_end(runs: list[tuple[int, str, float]], times: list[float]) -> dict:
    """Throughput and latency percentiles over the pool's distinct requests."""
    completed, failed = metrics.per_request(runs, times)
    total = sum(completed) + sum(failed)
    return {
        "throughput_rps": len(completed) / total,
        "latency_p50_s": metrics.percentile(completed, len(failed), 50, total),
        "latency_p90_s": metrics.percentile(completed, len(failed), P_HIGH, total),
    }


def measure_traced(cli, workload: str, requests, probes, spans_path: Path) -> tuple[dict, list, int, int]:
    """One untraced pass, then one traced pass over the same pool, then the
    defect probes, traced.

    The traced pass must give the same outputs. Returns the per-layer metrics,
    the untraced results and the probe results for the checks, and the
    attempted and failed counts of the pool.
    """
    first, untraced_wall = one_pass(cli, requests)
    tracer = Tracer(sys.modules["fairshare.core"].GuardError)
    tracer.install()
    try:
        results = []
        start = time.perf_counter()
        for req in requests:
            tracer.request = req.index
            results.append(run_request(cli, req))
        traced_wall = time.perf_counter() - start
        probe_results = []
        for req in probes:
            tracer.request = req.index
            probe_results.append(run_request(cli, req))
    finally:
        tracer.uninstall()
    for req, a, b in zip(requests, first, results):
        if a[:2] != b[:2]:
            raise CheckFailed(f"request {req.index}: traced output differs from untraced output")
    spans_path.parent.mkdir(exist_ok=True)
    tracer.dump(str(spans_path))
    everything = results + probe_results
    print(json.dumps({"self_time_share": self_time_share(tracer.spans, everything)}))
    values = layer_metrics(workload, tracer.spans, results, probe_results, untraced_wall, traced_wall)
    return values, first + probe_results, len(results), sum(1 for r in results if r[0] != "ok")


def layer_metrics(workload: str, spans, results, probe_results, untraced_wall: float, traced_wall: float) -> dict:
    """Per-layer metrics of the traced pass over the pool and the probes.

    `trace.overhead_ratio` compares the pool passes only; `fail_rate` and
    `null_share_rate` count the probes too, since they exist to show them.
    """
    stats = metrics.layer_stats(spans)

    def st(layer):
        return stats.get(layer, metrics.LayerStats())

    def extras(layer, key):
        return [dict(s.extra).get(key, 0) for s in spans if s.layer == layer]

    everything = results + probe_results
    request_wall = sum(r[2] for r in everything)
    simplex, aps = st("lp.simplex_max"), st("shares.aps_exact")
    pess, meta = st("shares.pessimistic_share_exact"), st("bidding.meta_strategy")
    failed = sum(1 for r in everything if r[0] != "ok")
    return {
        "lp.simplex_max.calls": (simplex.calls, "count"),
        "lp.simplex_max.busy_s": (simplex.busy_s, "s"),
        "lp.simplex_max.cols_max": (max(extras("lp.simplex_max", "cols"), default=0), "count"),
        "lp.simplex_max.calls_per_aps": (metrics.rate(simplex.calls, aps.calls), "ratio"),
        "shares.aps_exact.calls": (aps.calls, "count"),
        "shares.aps_exact.busy_s": (aps.busy_s, "s"),
        "shares.aps_exact.self_s": (aps.self_s, "s"),
        "shares.aps_exact.guard_trips": (aps.guard_trips, "count"),
        "shares.pessimistic_share_exact.busy_s": (pess.busy_s, "s"),
        "shares.pessimistic_share_exact.guard_trips": (pess.guard_trips, "count"),
        "shares.pessimistic_share_exact.useful_ratio": (1 - metrics.rate(pess.guard_trips, pess.calls), "ratio"),
        "shares.mms_exact.busy_s": (st("shares.mms_exact").busy_s, "s"),
        "shares.wmms_exact.busy_s": (st("shares.wmms_exact").busy_s, "s"),
        "shares.two_agent_aps_allocation.self_s": (st("shares.two_agent_aps_allocation").self_s, "s"),
        "bidding.meta_strategy.calls": (meta.calls, "count"),
        "bidding.meta_strategy.busy_s": (meta.busy_s, "s"),
        "bidding.meta_strategy.calls_per_request": (metrics.rate(meta.calls, len(results)), "ratio"),
        "bidding.best_good_z.busy_s": (st("bidding.best_good_z").busy_s, "s"),
        "bidding.worst_case_adversary.calls": (st("bidding.worst_case_adversary").calls, "count"),
        "bidding.worst_case_adversary.busy_s": (st("bidding.worst_case_adversary").busy_s, "s"),
        "bidding.run_game.busy_s": (st("bidding.run_game").busy_s, "s"),
        "bidding.run_game.rounds": (sum(extras("bidding.run_game", "rounds")), "count"),
        "greedy_efx.greedy_efx.busy_s": (st("greedy_efx.greedy_efx").busy_s, "s"),
        "greedy_efx.rotations": (sum(extras("greedy_efx.greedy_efx", "rotations")), "count"),
        "verify.check_allocation.busy_s": (st("verify.check_allocation").busy_s, "s"),
        "verify.check_allocation.self_s": (st("verify.check_allocation").self_s, "s"),
        "core.parse_instance.busy_s": (st("core.parse_instance").busy_s, "s"),
        "cli.main.busy_s": (st("cli.main").busy_s, "s"),
        "trace.overhead_ratio": (traced_wall / untraced_wall, "ratio"),
        "trace.coverage": (metrics.top_level_coverage(spans, "cli.main", request_wall), "ratio"),
        "fail_rate": (metrics.rate(failed, len(everything)), "ratio"),
        "null_share_rate": (null_share_rate(workload, everything), "ratio"),
    }


def self_time_share(spans, results) -> dict:
    """Each layer's self time as a share of request wall time, largest first:
    the measured split that names a workload's dominant layer."""
    request_wall = sum(r[2] for r in results)
    shares = {layer: metrics.rate(st.self_s, request_wall) for layer, st in metrics.layer_stats(spans).items()}
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def provenance(workload: str, seed: int, seconds: int, trace: int, requests, probes) -> dict:
    return {
        "workload": workload,
        "why": workloads.WORKLOADS[workload].why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "pool_requests": len(requests),
        "samples_beyond_p90": metrics.samples_beyond(len(requests), P_HIGH),
        "probe_requests": len(probes) if trace else 0,
        "guard_limit": os.environ.get("FAIRSHARE_GUARD_LIMIT", "unset (default 1000000)"),
        "python": platform.python_version(),
        "optimize": sys.flags.optimize,
        "loop": "closed, one client, one process, no threads",
        "shapes": workloads.histogram(requests),
        "probe_shapes": workloads.histogram(probes) if trace else [],
    }


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    if "FAIRSHARE_GUARD_LIMIT" in os.environ:
        raise BenchError("unset FAIRSHARE_GUARD_LIMIT: the workloads run at the default guard")
    if sys.flags.optimize:
        raise BenchError("run without -O: asserts guard solver invariants")
    size = workloads.pool_size(workload, seconds)
    directory = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    try:
        setups = [set_up(workload, seed, size, directory) for _ in range(SETUP_REPS // 2 + 1)]
        _, _, cli, requests, probes = setups[-1]
        info = provenance(workload, seed, seconds, trace, requests, probes)
        if trace:
            values, checked, attempted, failed = measure_traced(
                cli, workload, requests, probes, OUT / f"spans-{workload}-seed{seed}.jsonl"
            )
            checked_requests = requests + probes
        else:
            e2e, raw, checked, attempted, failed = measure(cli, requests, seconds)
            # The other set-ups follow the timed loop, so that set-up time
            # samples the host at both ends of the run. They rewrite the same
            # files and import the package afresh.
            setups += [set_up(workload, seed, size, directory) for _ in range(SETUP_REPS // 2)]
            e2e["setup_s"] = statistics.median(s[0] for s in setups)
            raw["setup_s"] = statistics.median(s[1] for s in setups)
            values = {name: (e2e[name], unit) for name, unit in END_TO_END.items()}
            info["uncorrected"] = raw
            checked_requests = requests
        info["timed_requests"] = attempted
        print(json.dumps({"provenance": info}))
        check_outputs(workload, checked_requests, checked)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()},
    }


def run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced then traced, each in its own process."""
    summary = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
            argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"== {workload} ({'traced, per layer' if trace else 'untraced, end to end'}): "
                  f"{result['attempted']} requests, {result['failed']} failed")
            for name, m in result["metrics"].items():
                print(f"  {name:45s} {m['value']:>14.6g} {m['unit']}")
            summary.setdefault(workload, {}).update(result["metrics"])
    print(json.dumps({"seed": seed, "seconds": seconds, "workloads": summary}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), default=None,
                        help="run one workload (default: all, untraced then traced)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        if args.workload is None:
            return run_all(args.seed, args.seconds)
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, RequestError) else 2
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
