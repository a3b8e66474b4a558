"""Run one CLI invocation in a fresh interpreter and report how it went.

    python3 bench/op.py SRC RESULT_JSON OUTPUT_FILE TRACE OP_ID -- ARGV...

Imports ``wellcovered`` from SRC, so every op starts from cold program
state, then times ``wellcovered.cli.main(ARGV)`` with stdout captured in
memory.  Interpreter start and import are outside the timed region.  After
the call it writes the captured stdout to OUTPUT_FILE and a JSON record
(start and end on the system-wide ``time.perf_counter`` clock, wall and CPU
time, exit code, peak RSS, and with TRACE=1 the spans and counters of
``spans.Recorder``) to RESULT_JSON.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    src, result_path, output_path, trace, op_id = argv[:5]
    if argv[5] != "--":
        raise SystemExit("usage: op.py SRC RESULT OUTPUT TRACE OP_ID -- ARGV...")
    cli_argv = argv[6:]
    sys.path.insert(0, src)
    from wellcovered import cli, harness, wcspace

    rec = None
    if trace == "1":
        import spans
        rec = spans.Recorder(op=int(op_id))
        spans.install({"cli": cli, "harness": harness, "wcspace": wcspace}, rec)

    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            code = cli.main(cli_argv)
        except Exception as exc:  # reported as a failed op, never hidden
            error = repr(exc)
        cpu = time.process_time() - cpu_start
        end = time.perf_counter()
    if rec is not None:
        spans.uninstall(rec)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    with open(output_path, "w", encoding="utf-8") as fh:
        fh.write(out.getvalue())
    record = {"start": start, "end": end, "wall_s": end - start, "cpu_s": cpu,
              "exit": code, "error": error,
              "stderr": err.getvalue()[-2000:], "rss_mb": rss_mb}
    if rec is not None:
        record["spans"] = rec.spans
        record["counts"] = rec.all_counts()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
