"""One library session of a workload: runs the job list closed-loop.

    python3 bench/worker.py WORKLOAD INPUTS PASSES TRACE OUT

Runs ``PASSES`` passes over ``INPUTS/plan.json``, one job at a time,
timing each job and checking its result outside the timer.  With
``TRACE`` 1 the layer functions are traced.  Writes one JSON record to
``OUT`` when it ends.
"""

import json
import os
import sys
import time
import traceback

import tracer as tracing
from probe import SpeedProbe
from workloads import Session, digest


def main(argv):
    workload, inputs, passes, trace, out = argv
    with open(os.path.join(inputs, "plan.json"), encoding="utf-8") as fh:
        plan = json.load(fh)
    tracing.import_layers()
    session = Session(workload, inputs)
    tracer = tracing.Tracer() if trace == "1" else None
    if tracer:
        tracer.install()
    jobs = []
    probe = SpeedProbe()
    probe.sample(force=True)
    for index in range(int(passes)):
        session.new_pass()
        for job in plan["jobs"]:
            error = None
            if tracer:
                tracer.job = f"{index}:{job['id']}"
            start = time.perf_counter()
            try:
                result = session.run(job)
            except Exception:  # a failed job is counted, not fatal
                error = traceback.format_exc()
            end = time.perf_counter()
            if tracer:
                tracer.job = None
            ok, data = False, b""
            if error is None:
                try:
                    ok, data = session.check(job, result)
                except Exception:  # a failed check is counted, not fatal
                    error = traceback.format_exc()
            jobs.append({"pass": index, "id": job["id"], "start": start,
                         "end": end, "latency_s": end - start,
                         "ok": bool(ok), "error": error, "bytes": len(data),
                         "sha256": digest(data)})
            probe.sample()
    probe.sample(force=True)
    record = {"jobs": jobs, "probes": probe.samples}
    if tracer:
        record["spans"] = tracer.spans()
        record["counts"] = tracer.acc
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
