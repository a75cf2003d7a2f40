"""Run one kcert CLI command with the tracer installed.

Usage: python3 perfbench/traced_cli.py SPANS_PATH KCERT_ARGS...

Behaves like the ``kcert`` console script (same stdout and exit code) and
writes the recorded spans and counts to SPANS_PATH as JSON on exit.  Two
top-level spans cover the process after interpreter start: ``cli.import``
(importing kcert and installing the tracer) and ``cli.run``.  A second line
holds one more span, ``trace.transfer``: the time the dump took.
"""

import json
import sys
import time

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    tracer = Tracer.install()
    # importing kcert is part of every cold run; installing the tracer adds little
    tracer.spans.append(["cli.import", start, time.perf_counter(), -1])
    from kcert import cli

    index = tracer.begin("cli.run")
    try:
        code = cli.run(argv)
    finally:
        tracer.end(index)
        sys.stdout.flush()
        start = time.perf_counter()
        tracer.dump(spans_path)
        # the dump's own span, on a line of its own after the payload
        with open(spans_path, "a", encoding="utf-8") as handle:
            handle.write("\n" + json.dumps(["trace.transfer", start, time.perf_counter(), -1]))
    return code


if __name__ == "__main__":
    sys.exit(main())
