"""qentropy benchmark: one command, four workloads, every output checked.

Run from the root of a qentropy source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones (setup_s, ops_per_s, op_p50_ms, peak_rss_mb); with --trace 1
they are the per-layer ones, from a traced phase that follows an untraced
phase, each half the run, and trace.overhead_pct compares the two.

Every child process runs the package from ./src with one BLAS thread.  The
parent process loads only the standard library; the in-process workloads
run in a fresh worker interpreter (this file with --worker).  Results and
traces are written under perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

WORKLOADS = ("cli_session", "dyadic_tables", "maxent_gibbs", "maxent_escort")
SETUP_SAMPLES = 5  # fresh interpreters per run; setup_s is their median
OUT_DIR = os.path.join("perfbench", "out")
CHILD_TIMEOUT_S = 150
BLAS_THREADS = "1"


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_phase(rounds, seconds: float, execute) -> dict:
    """Closed loop, one client: whole rounds until `seconds` have passed.

    execute(op) returns (failed, problem, latency_s).  ops_per_s divides the
    operations by the time spent inside them, so the benchmark's own checks
    between operations do not count.
    """
    latencies, problems, failures = [], [], {}
    start = time.perf_counter()
    index = 0
    while True:
        for op in rounds[index % len(rounds)]:
            failed, problem, latency = execute(op)
            latencies.append(latency)
            if failed:
                failures[op.name] = failures.get(op.name, 0) + 1
            if problem:
                problems.append(f"{op.name}: {problem}")
        index += 1
        if time.perf_counter() - start >= seconds:
            break
    busy = sum(latencies)
    return {
        "attempted": len(latencies),
        "failed": sum(failures.values()),
        "failures": failures,
        "problems": problems,
        "ops_per_s": len(latencies) / busy,
        "op_p50_ms": 1e3 * statistics.median(latencies),
    }


# ------------------------------------------------------------- cli_session

def cli_subprocess_execute(env):
    import clisession

    def execute(call):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "qentropy.cli", *call.argv],
            env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        latency = time.perf_counter() - started
        failed, problem = clisession.judge(call, proc.returncode, proc.stdout, proc.stderr)
        return failed, problem, latency

    return execute


def cli_inprocess_execute():
    import contextlib
    import io

    import clisession
    from qentropy import cli

    def execute(call):
        out, err = io.StringIO(), io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(call.argv))
        latency = time.perf_counter() - started
        failed, problem = clisession.judge(call, code, out.getvalue(), err.getvalue())
        return failed, problem, latency

    return execute


def timed_spawn(argv, env) -> float:
    started = time.perf_counter()
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - started


def cli_session(args, env) -> dict:
    import clisession

    probe = [sys.executable, "-c", "import qentropy.cli"]
    timed_spawn(probe, env)  # fills the bytecode caches, as an installed package has them
    setups = [timed_spawn(probe, env) for _ in range(SETUP_SAMPLES)]
    calls = clisession.build_calls(args.seed)
    phase = run_phase([calls], args.seconds, cli_subprocess_execute(env))
    phase["setup_s"] = statistics.median(setups)
    phase["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return phase


# ---------------------------------------------------------------- workers

def worker_command(args, setup_only: bool) -> list[str]:
    argv = [sys.executable, os.path.abspath(__file__), "--worker", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    return argv + (["--setup-only"] if setup_only else [])


def spawn_worker(args, env, setup_only: bool) -> tuple[float, dict | None]:
    """Start a worker; returns (seconds until it was ready, its result)."""
    started = time.perf_counter()
    proc = subprocess.Popen(worker_command(args, setup_only), env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - started
        remaining, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"worker for {args.workload} timed out")
    if ready.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"worker for {args.workload} exited with code {proc.returncode}")
    lines = remaining.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def in_process(args, env) -> dict:
    if args.trace:
        return spawn_worker(args, env, setup_only=False)[1]
    spawn_worker(args, env, setup_only=True)  # warm-up, as for cli_session
    setups = [spawn_worker(args, env, setup_only=True)[0] for _ in range(SETUP_SAMPLES - 1)]
    setup, phase = spawn_worker(args, env, setup_only=False)
    phase["setup_s"] = statistics.median(setups + [setup])
    return phase


def worker_main(args) -> int:
    started = time.perf_counter()
    if args.workload == "cli_session":
        import qentropy.cli  # noqa: F401
    else:
        import qentropy  # noqa: F401
    import_ms = 1e3 * (time.perf_counter() - started)
    if args.workload == "cli_session":
        import clisession

        rounds = [clisession.build_calls(args.seed)]
        execute = cli_inprocess_execute()
    else:
        import workloads

        rounds = workloads.build(args.workload, args.seed)
        execute = operation_execute(workloads.FAILURES)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    # a traced run splits its time between an untraced and a traced phase
    seconds = args.seconds / 2 if args.trace else args.seconds
    phase = run_phase(rounds, seconds, execute)
    phase["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        import tracer

        recorder = tracer.Tracer()
        tracer.install(recorder)
        traced = run_phase(rounds, seconds, execute)
        layers = tracer.layer_metrics(recorder.spans, traced["attempted"], import_ms)
        overhead = 100.0 * (1.0 - traced["ops_per_s"] / phase["ops_per_s"])
        layers["trace.overhead_pct"] = (overhead, "%")
        write_trace(args, recorder.spans, tracer.summary(recorder.spans), layers)
        for key in ("attempted", "failed"):
            phase[key] += traced[key]
        phase["problems"] += traced["problems"]
        for name, count in traced["failures"].items():
            phase["failures"][name] = phase["failures"].get(name, 0) + count
        phase["layers"] = layers
    print(json.dumps(phase), flush=True)
    return 0


def operation_execute(failures):
    def execute(op):
        started = time.perf_counter()
        try:
            result = op.run()
        except failures:
            return True, None, time.perf_counter() - started
        latency = time.perf_counter() - started
        return False, op.check(result), latency

    return execute


def write_trace(args, spans, summary, layers) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"fields": ["name", "start", "end", "parent", "error", "attrs"],
                   "summary": summary, "metrics": layers, "spans": spans}, handle)
    width = max(len(name) for name in summary)
    sys.stderr.write(f"{'span':<{width}} {'calls':>8} {'incl_ms':>11} {'self_ms':>11}\n")
    for name, entry in sorted(summary.items(), key=lambda kv: -kv[1]["self_ms"]):
        sys.stderr.write(f"{name:<{width}} {entry['calls']:>8} "
                         f"{entry['inclusive_ms']:>11.1f} {entry['self_ms']:>11.1f}\n")
    sys.stderr.write(f"trace written to {path}\n")


# ------------------------------------------------------------------ main

def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if not os.path.isfile(os.path.join("src", "qentropy", "__init__.py")):
        sys.stderr.write("perfbench: run from the root of a qentropy checkout (no src/qentropy here)\n")
        return 2
    if args.worker:
        return worker_main(args)
    env = child_env()
    phase = cli_session(args, env) if args.workload == "cli_session" and not args.trace \
        else in_process(args, env)
    for problem in phase["problems"][:20]:
        sys.stderr.write(f"check failed: {problem}\n")
    if phase["failures"]:
        sys.stderr.write(f"failed operations: {json.dumps(phase['failures'], sort_keys=True)}\n")
    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in phase["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": phase["setup_s"], "unit": "s"},
            "ops_per_s": {"value": phase["ops_per_s"], "unit": "1/s"},
            "op_p50_ms": {"value": phase["op_p50_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": phase["peak_rss_mb"], "unit": "MiB"},
        }
    result = {"correct": not phase["problems"], "attempted": phase["attempted"],
              "failed": phase["failed"], "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump({**result, "failures": phase["failures"], "problems": phase["problems"]}, handle, indent=1)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
