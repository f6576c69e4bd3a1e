"""operad-forge benchmark, measured from outside the package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Set-up (import, seeded inputs, input
documents) runs ``SETUP_REPS`` times in fresh processes and reports the
median.  The workload's job list then runs closed-loop, one job at a
time, for a fixed number of passes derived from ``--seconds``; every
job's output is checked outside its timer.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
same passes untraced and then traced, and prints the per-layer metrics
of the traced passes with ``trace_overhead_share``.  The last line of
stdout is one JSON object; a full record with per-job digests goes to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from stats import (TAIL_BEYOND, layer_metrics, merge_counts,  # noqa: E402
                   quantile, tail)
from probe import SpeedProbe, factors as speed_factors  # noqa: E402
from workloads import (WORKLOADS, FreeOracle, check_free_output,  # noqa: E402
                       digest)

# a run makes round(--seconds / this) passes of the job list, so the work
# per run is fixed; at --seconds 16 a run measures 15-30 s on the 2-vCPU
# reference host
NOMINAL_PASS_S = {"free-emit": 20.0, "ideal-quotient": 5.5,
                  "model-lift": 16.0, "cubical-alt": 3.2}
SETUP_REPS = 5
DEADLINE_S = 170
HASH_SEED = "0"

END_TO_END_UNITS = {"wall_s": "s", "job_p50_s": "s", "job_tail_s": "s",
                    "peak_rss_mb": "MB", "output_mb": "MB",
                    "ok_share": "share", "setup_s": "s"}


class DeadlineExceeded(RuntimeError):
    pass


class Runner:
    """Starts child processes one at a time and waits for each."""

    def __init__(self, root, work):
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONHASHSEED=HASH_SEED,
                        PYTHONPATH=os.path.join(root, "src"))

    def spawn(self, script, args, log):
        """Run ``bench/<script>``; returns (seconds, exit status, rusage)."""
        remaining = int(self.deadline - time.monotonic())
        if remaining <= 0:
            raise DeadlineExceeded("run deadline reached")
        argv = [sys.executable, os.path.join(HERE, script)] + \
            [str(a) for a in args]
        actions = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
                   (os.POSIX_SPAWN_OPEN, 2, log,
                    os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)]
        self.started = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, self.env,
                             file_actions=actions)

        def expire(signum, frame):
            os.kill(pid, signal.SIGKILL)

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(remaining)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            # interrupted (SIGTERM, Ctrl-C): stop the child and reap it
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        self.ended = time.perf_counter()
        seconds = self.ended - self.started
        if os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL \
                and time.monotonic() >= self.deadline:
            raise DeadlineExceeded(f"{script} killed at the run deadline")
        return seconds, os.waitstatus_to_exitcode(status), usage


def _tree_bytes(path):
    """Names and contents of the files under ``path``."""
    out = []
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out.append((name, fh.read()))
    return out


def setup(runner, workload, seed):
    """Set up ``SETUP_REPS`` times; returns the inputs directory and the
    median set-up seconds, scaled by the speed around each and raw."""
    times = []
    trees = []
    probe = SpeedProbe()
    for rep in range(SETUP_REPS):
        probe.sample(force=True)
        out = os.path.join(runner.work, f"inputs_{rep}")
        seconds, code, _ = runner.spawn(
            "prepare.py", [workload, seed, out],
            os.path.join(runner.work, "setup.log"))
        if code != 0:
            raise RuntimeError(f"set-up exited with {code}; see "
                               f"{runner.work}/setup.log")
        times.append((runner.started, runner.ended))
        trees.append(_tree_bytes(out))
    probe.sample(force=True)
    if any(t != trees[0] for t in trees):
        raise RuntimeError("set-up is not deterministic for this seed")
    raw = [end - start for start, end in times]
    scaled = [s * f for s, f in zip(raw, speed_factors(probe.samples, times))]
    return (os.path.join(runner.work, "inputs_0"), statistics.median(scaled),
            statistics.median(raw))


def run_free_emit(runner, inputs, plan, passes, trace, oracle, reference):
    """Each job is a fresh ``operad-forge free`` process via jobrun.py.

    ``reference`` maps job id to the digest of its checked untraced
    output; a traced job is checked against it."""
    jobs, spans, counts, peak = [], [], [], 0
    probe = SpeedProbe()
    probe.sample(force=True)
    log = os.path.join(runner.work, f"jobs_{trace}.log")
    for index in range(passes):
        for job in plan["jobs"]:
            out = os.path.join(runner.work, f"out_{trace}_{job['id']}.json")
            span_file = out + ".spans"
            seconds, code, usage = runner.spawn("jobrun.py", [
                trace, span_file, f"{index}:{job['id']}", "--", "free",
                os.path.join(inputs, job["doc"]), job["flag"], job["cap"],
                "--out", out], log)
            peak = max(peak, usage.ru_maxrss)
            data = b""
            if os.path.exists(out):
                with open(out, "rb") as fh:
                    data = fh.read()
                os.remove(out)
            sha = digest(data)
            if code != 0:
                ok = False
            elif job["id"] in reference:
                ok = reference[job["id"]] == sha
            else:
                ok = check_free_output(data, job, oracle)
                if ok:
                    reference[job["id"]] = sha
            if trace and os.path.exists(span_file):
                with open(span_file, encoding="utf-8") as fh:
                    traced = json.load(fh)
                os.remove(span_file)
                spans.append(traced["spans"])
                counts.append(traced["counts"])
            jobs.append({"pass": index, "id": job["id"],
                         "start": runner.started, "end": runner.ended,
                         "latency_s": seconds,
                         "ok": ok, "error": None if code == 0 else
                         f"exit {code}", "bytes": len(data), "sha256": sha})
            probe.sample()
    probe.sample(force=True)
    return {"jobs": jobs, "peak_kb": peak,
            "probes": probe.samples,
            "spans": _concat(spans), "counts": merge_counts(counts)}


def _concat(span_lists):
    """Join per-process span lists, shifting parent indices."""
    out = []
    for spans in span_lists:
        base = len(out)
        out.extend((name, start, end, None if parent is None
                    else parent + base, job)
                   for name, start, end, parent, job in spans)
    return out


def run_library(runner, workload, inputs, passes, trace):
    out = os.path.join(runner.work, f"worker_{trace}.json")
    _, code, usage = runner.spawn(
        "worker.py", [workload, inputs, passes, trace, out],
        os.path.join(runner.work, f"worker_{trace}.log"))
    if code != 0:
        raise RuntimeError(f"worker exited with {code}; see "
                           f"{runner.work}/worker_{trace}.log")
    with open(out, encoding="utf-8") as fh:
        record = json.load(fh)
    record["peak_kb"] = usage.ru_maxrss
    return record


def scaled_latencies(record):
    """Each job's latency times the speed factor around it."""
    jobs = record["jobs"]
    found = speed_factors(record["probes"],
                          [(j["start"], j["end"]) for j in jobs])
    return [j["latency_s"] * f for j, f in zip(jobs, found)]


def pass_wall(jobs, latencies):
    """Median over passes of the summed job latencies of a pass."""
    walls = {}
    for job, latency in zip(jobs, latencies):
        walls[job["pass"]] = walls.get(job["pass"], 0.0) + latency
    return statistics.median(walls.values())


def end_to_end(record, passes, setup_s, raw_setup_s):
    """Metrics of an untraced record; times in reference seconds."""
    jobs = record["jobs"]
    latencies = scaled_latencies(record)
    value, percentile, beyond = tail(latencies)
    failed = sum(1 for j in jobs if not j["ok"])
    metrics = {
        "wall_s": pass_wall(jobs, latencies),
        "job_p50_s": quantile(latencies, 0.5),
        "job_tail_s": value,
        "peak_rss_mb": record["peak_kb"] / 1024.0,
        "output_mb": sum(j["bytes"] for j in jobs if j["pass"] == 0) / 1e6,
        "ok_share": 1.0 - failed / len(jobs),
        "setup_s": setup_s,
    }
    detail = {"jobs": len(jobs), "passes": passes, "failed": failed,
              "failed_share": failed / len(jobs),
              "tail_percentile": percentile, "tail_jobs_beyond": beyond,
              "raw_wall_s": pass_wall(jobs, [j["latency_s"] for j in jobs]),
              "raw_setup_s": raw_setup_s}
    return metrics, detail


def metadata(root):
    commit = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or commit
    src_lines = 0
    for base, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    src_lines += fh.read().count(b"\n")
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit, "src_lines": src_lines,
            "pythonhashseed": HASH_SEED}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "operad_forge",
                                       "__init__.py")):
        print("error: run from the root of an operad-forge checkout "
              "(src/operad_forge not found)", file=sys.stderr)
        return 2
    work = os.path.join(root, ".bench_out",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    # one CPU for every process of the run, so the speed probe samples
    # the core the jobs run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, os.path.join(root, "src"))  # for the graph oracle
    runner = Runner(root, work)
    inputs, setup_s, raw_setup_s = setup(runner, args.workload, args.seed)
    with open(os.path.join(inputs, "plan.json"), encoding="utf-8") as fh:
        plan = json.load(fh)
    # enough passes for the tail rule, and about --seconds of work
    passes = max(TAIL_BEYOND // len(plan["jobs"]) + 1,
                 round(args.seconds / NOMINAL_PASS_S[args.workload]))

    def execute(trace, reference):
        if args.workload == "free-emit":
            return run_free_emit(runner, inputs, plan, passes, trace,
                                 oracle, reference)
        return run_library(runner, args.workload, inputs, passes, trace)

    oracle = FreeOracle()
    reference = {}
    records = [execute(0, reference)]
    if args.trace:
        records.append(execute(1, reference))
    metrics, detail = end_to_end(records[0], passes, setup_s, raw_setup_s)
    attempted = sum(len(r["jobs"]) for r in records)
    failed = sum(1 for r in records for j in r["jobs"] if not j["ok"])
    if args.trace:
        traced = records[1]
        latencies = scaled_latencies(traced)
        # one factor for all spans: scaled over raw traced job time
        speed = sum(latencies) / sum(j["latency_s"] for j in traced["jobs"])
        layers = layer_metrics(traced["spans"], traced["counts"])
        for name in layers:
            if _layer_unit(name) == "s":
                layers[name] *= speed
        layers["trace_overhead_share"] = \
            pass_wall(traced["jobs"], latencies) / metrics["wall_s"] - 1.0
        reported = {k: {"value": v, "unit": _layer_unit(k)}
                    for k, v in layers.items()}
    else:
        reported = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                    for k, v in metrics.items()}

    specs = {j["id"]: j for j in plan["jobs"]}
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "metadata": metadata(root), "detail": detail,
        "metrics": {k: v["value"] for k, v in reported.items()},
        "end_to_end": metrics,
        "probes": [r["probes"] for r in records],
        "jobs": [dict(j, traced=t, args=specs[j["id"]])
                 for t, r in enumerate(records) for j in r["jobs"]],
    }
    with open(os.path.join(work, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for job in record["jobs"]:
        if not job["ok"]:
            print(f"FAILED job {job['id']} pass {job['pass']}: "
                  f"{job['error'] or 'check failed'}", file=sys.stderr)

    print(f"workload {args.workload} seed {args.seed}: {detail['passes']} "
          f"pass(es), {detail['jobs']} jobs, closed loop, 1 client")
    for name, value in metrics.items():
        print(f"  {name:<12} {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"  failed_share {detail['failed_share']:.6g} "
          f"({detail['failed']}/{detail['jobs']})")
    print(f"  job_tail_s is p{detail['tail_percentile']:.1f} with "
          f"{detail['tail_jobs_beyond']} jobs beyond it")
    print(f"  record: {os.path.relpath(work, root)}/record.json")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    return 0


def _layer_unit(name):
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_share"):
        return "share"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable] + sys.argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main(sys.argv[1:]))
    except (RuntimeError, DeadlineExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
