"""Run one affaut command traced, timing its import and its main() apart.

    python3 cli_child.py <timing file> <verb> [args...]

Stdout and the exit status are the command's own.  The timing file gets a
JSON object: the import and main() times in ns, and the counters of the
tracer that wrapped affaut for main().
"""

import json
import sys
import time

import tracer


def main() -> int:
    timing = sys.argv[1]
    t0 = time.perf_counter_ns()
    import affaut.cli

    t1 = time.perf_counter_ns()
    trace = tracer.Tracer()
    trace.install()
    t2 = time.perf_counter_ns()
    code = affaut.cli.main(sys.argv[2:])
    t3 = time.perf_counter_ns()
    sys.stdout.flush()
    with open(timing, "w", encoding="utf-8") as fh:
        json.dump({"import_ns": t1 - t0, "main_ns": t3 - t2, "trace": trace.counters()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
