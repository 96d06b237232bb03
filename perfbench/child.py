"""One carnot CLI command in a fresh process, timed from outside the library.

    python3 child.py RECORD.json MODE -- <carnot cli args>

MODE is `time` (run the command), `probe` (import `carnot.cli` and stop where
`main` would be entered: a set-up sample) or `trace` (run the command with
every layer wrapped by `spans`).  The record holds the monotonic clock at
`main` entry and exit and, when traced, the span statistics.
CLOCK_MONOTONIC is system-wide, so the parent subtracts its spawn time from
`t_enter` to get the process's set-up time.
"""

import json
import sys
import time


def main() -> int:
    record_path, mode, sep, *cli_args = sys.argv[1:]
    if sep != "--" or mode not in ("time", "probe", "trace"):
        raise SystemExit(f"usage: {sys.argv[0]} RECORD.json time|probe|trace -- ARGS")
    record = {"mode": mode}
    if mode == "trace":
        t0 = time.perf_counter()
        import carnot.cli
        record["import_s"] = time.perf_counter() - t0
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    else:
        import carnot.cli
    record["carnot_file"] = carnot.cli.__file__
    record["t_enter"] = time.monotonic()
    rc = 0
    try:
        if mode != "probe":
            rc = carnot.cli.main(cli_args)
    finally:
        record["t_exit"] = time.monotonic()
        if mode == "trace":
            record["trace"] = recorder.dump()
        with open(record_path, "w") as fh:
            json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
