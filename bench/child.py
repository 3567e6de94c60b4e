"""Run one fairpolicy CLI command as a user would, and report its timing.

Usage: python3 child.py REPORT RUN_ID TRACE -- ARGV...

Imports ``fairpolicy.cli`` (from PYTHONPATH), notes the monotonic time just
before ``main`` runs, calls ``main(ARGV)`` and exits with its code.  The
report file (JSON) holds that time and, when TRACE is 1, the spans recorded
by the wrappers in ``tracing.py``.  CLOCK_MONOTONIC is system-wide, so the
parent subtracts its own spawn time to get the set-up time.
"""

import json
import sys
import time


def main() -> int:
    report, run_id, trace, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py REPORT RUN_ID TRACE -- ARGV...")
    import fairpolicy.cli

    tracer = None
    if trace == "1":
        from tracing import Tracer  # this file's directory is sys.path[0]

        tracer = Tracer(run_id)
        tracer.install()
    main_start = time.monotonic()
    code = fairpolicy.cli.main(argv)
    doc = {"main_start": main_start, "module": fairpolicy.cli.__file__}
    if tracer is not None:
        doc["spans"] = tracer.spans
        doc["missing"] = tracer.missing
    with open(report, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
