"""Option helpers shared by every ``repro`` subcommand parser.

``repro`` (``repro.__main__``), ``repro model`` (:mod:`repro.model.cli`)
and ``repro meas`` (:mod:`repro.meas.cli`) declare the execution-engine
and telemetry flags through these helpers, so each flag has one
spelling, one default and one help text.  They live here rather than
in ``repro.__main__`` because importing that module from a subcommand
would execute it a second time under ``python -m repro``.
"""

from __future__ import annotations

import sys


def add_exec_arguments(parser) -> None:
    """The execution-engine flags ``--jobs/--checkpoint/--resume/
    --progress``."""
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1: in-process; "
                             "any N yields the identical report digest)")
    parser.add_argument("--checkpoint", metavar="PATH",
                        help="JSONL journal recording per-chunk results")
    parser.add_argument("--resume", action="store_true",
                        help="skip chunks already journaled as done in "
                             "--checkpoint; re-run in-flight/failed ones")
    parser.add_argument("--progress", action="store_true",
                        help="live chunk/rate/ETA lines on stderr "
                             "(stdout stays byte-identical)")


def make_progress(options, total_chunks: int, total_items: int):
    """A live ProgressMeter when --progress was given, else None."""
    if not options.progress:
        return None
    from repro.exec import ProgressMeter

    return ProgressMeter(total_chunks, total_items,
                         emit=lambda line: print(line, file=sys.stderr))


def add_telemetry_arguments(parser) -> None:
    """The telemetry export flags ``--metrics/--trace-out/--events``."""
    parser.add_argument("--metrics", metavar="PATH",
                        help="write merged metrics as Prometheus text")
    parser.add_argument("--trace-out", metavar="PATH", dest="trace_out",
                        help="write spans + DLT events as Chrome "
                             "trace-event JSON (chrome://tracing, "
                             "Perfetto)")
    parser.add_argument("--events", metavar="PATH",
                        help="write the full telemetry as a JSONL "
                             "event log")


def telemetry_wanted(options) -> bool:
    return bool(options.metrics or options.trace_out or options.events)


def export_telemetry(options) -> None:
    """Write the requested export files and print the telemetry digest
    (deterministic: identical for any --jobs level)."""
    from repro import obs

    if options.metrics:
        obs.write_prometheus(options.metrics)
    if options.trace_out:
        obs.write_chrome_trace(options.trace_out)
    if options.events:
        obs.write_events_jsonl(options.events)
    print(f"telemetry digest: sha256:{obs.digest()}")
