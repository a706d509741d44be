"""One timed CLI invocation in a fresh interpreter.

    python3 bench/child.py RESULT_JSON TRACE_JSON|- CLI_ARG...

Times ``import rejmc.cli`` (the set-up every CLI invocation pays), then
``rejmc.cli.main(CLI_ARGS)`` in the current directory, and writes the exit
code, both times, the peak RSS and where rejmc was imported from to
RESULT_JSON. With a TRACE_JSON path the layers are traced (see tracer.py)
and the spans are written there. Nothing but sys/os/time is imported before
the timed import, so the import measures what a user's ``rejmc`` pays.
"""
import os
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")


def main() -> int:
    result_path, trace_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import rejmc.cli

    setup_s = time.perf_counter() - t0

    tracer = None
    if trace_path != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    t1 = time.perf_counter()
    code = rejmc.cli.main(argv)
    wall_s = time.perf_counter() - t1

    import json
    import resource

    result = {
        "exit_code": code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rejmc_file": rejmc.cli.__file__,
    }
    if tracer is not None:
        with open(trace_path, "w") as fh:
            json.dump(tracer.dump(), fh)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
