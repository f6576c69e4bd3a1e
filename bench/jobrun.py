"""Runs one ``operad-forge`` CLI job in a fresh process.

    python3 bench/jobrun.py TRACE SPANS JOB -- CLI-ARGS...

Calls ``operad_forge.cli.main`` with the CLI arguments and exits with
its code.  With ``TRACE`` 1 the layer functions are traced and the spans
are written to ``SPANS`` once, at the end; with 0 the runner does the
same imports, so both runs pay the same harness cost.
"""

import json
import sys

import tracer as tracing


def main(argv):
    trace, spans_path, job, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: jobrun.py TRACE SPANS JOB -- CLI-ARGS...")
    tracing.import_layers()
    from operad_forge import cli
    tracer = tracing.Tracer() if trace == "1" else None
    if tracer:
        tracer.install()
        tracer.job = job
    code = cli.main(cli_args)
    if tracer:
        tracer.job = None
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans(), "counts": tracer.acc}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
