"""The ``repro meas`` subcommand: measurement & calibration tooling.

==============================  ======================================
``registry PATH|NAME ...``       print each model's A2L-like registry
                                 (addresses, units, config classes)
                                 and its deterministic digest
``daq PATH|NAME ...``            run the default DAQ list against each
                                 model on the exec engine
                                 (``--jobs/--checkpoint/--resume``),
                                 print the jobs/resume-invariant
                                 measurement digest, optionally stream
                                 samples to an MTF file (``--mtf-out``)
``mtf PATH``                     summarize an MTF store from its
                                 directory (no data scan), or read one
                                 signal over a time range
                                 (``--signal/--start/--end``)
==============================  ======================================

Exit codes follow the ``repro model`` convention: ``0`` ok, ``1`` an
operation failed, ``2`` an input could not be read.
"""

from __future__ import annotations

import argparse
import sys

from repro.cli_options import add_exec_arguments, make_progress
from repro.errors import ConfigurationError, ReproError
from repro.meas.batch import measure_models
from repro.meas.mtf import MtfReader, MtfWriter, is_mtf_file, summarize_mtf
from repro.meas.registry import build_registry
from repro.meas.service import DEFAULT_DAQ_PERIOD
from repro.units import ms, us

EXIT_OK, EXIT_FAILED, EXIT_UNREADABLE = 0, 1, 2


def _models(refs: list[str]):
    from repro.model.cli import model_from_ref
    return [model_from_ref(ref) for ref in refs]


def _load_status(exc: ConfigurationError) -> int:
    """1 for a readable-but-invalid document, 2 for unreadable input —
    the ``repro model`` convention."""
    from repro.model.schema import ModelValidationError
    return EXIT_FAILED if isinstance(exc, ModelValidationError) \
        else EXIT_UNREADABLE


def _registry(refs: list[str]) -> int:
    try:
        models = _models(refs)
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return _load_status(exc)
    for model in models:
        print(build_registry(model).format_table())
    return EXIT_OK


def _daq(options) -> int:
    try:
        models = _models(options.refs)
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return _load_status(exc)
    period = us(options.period_us) if options.period_us else \
        DEFAULT_DAQ_PERIOD
    horizon = ms(options.horizon_ms) if options.horizon_ms else None
    progress = make_progress(options, len(models), len(models))
    try:
        report = measure_models(models, period=period, horizon=horizon,
                                jobs=options.jobs,
                                checkpoint=options.checkpoint,
                                resume=options.resume,
                                progress=progress)
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_FAILED
    print(report.format())
    if options.mtf_out:
        with MtfWriter(options.mtf_out) as writer:
            for name, rows in sorted(report.results,
                                     key=lambda pair: pair[0]):
                writer.write_batch([
                    (time, f"daq.{daq_name}", f"{name}:{entry}",
                     {"value": value})
                    for time, daq_name, entry, value in rows])
        print(f"wrote {options.mtf_out} "
              f"({report.sample_count} samples)")
    return EXIT_OK


def _mtf(options) -> int:
    if not is_mtf_file(options.path):
        print(f"{options.path}: not an MTF file", file=sys.stderr)
        return EXIT_UNREADABLE
    try:
        if options.signal is None:
            print(summarize_mtf(options.path))
            return EXIT_OK
        with MtfReader(options.path) as reader:
            samples = reader.read(options.signal, options.start,
                                  options.end)
            for time, data in samples:
                print(f"{time} {data}")
            print(f"{len(samples)} sample(s) from {reader.blocks_read} "
                  f"block(s) of {reader.block_count(options.signal)} "
                  f"for {options.signal!r}", file=sys.stderr)
    except ConfigurationError as exc:
        # A damaged store (truncated, corrupt directory or block) is
        # an unreadable input, reported — not a traceback.
        print(str(exc), file=sys.stderr)
        return EXIT_UNREADABLE
    return EXIT_OK


def meas_command(args: list[str]) -> int:
    """Entry point for ``repro meas ...`` (see module docstring)."""
    parser = argparse.ArgumentParser(
        prog="repro meas",
        description="A2L-like registries, XCP-style DAQ runs and "
                    "MTF mass-trace stores for simulated ECUs")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser(
        "registry", help="print each model's measurement & calibration "
                         "registry and digest")
    sub.add_argument("refs", nargs="+", metavar="PATH|NAME")

    sub = commands.add_parser(
        "daq", help="run the default DAQ list against each model")
    sub.add_argument("refs", nargs="+", metavar="PATH|NAME")
    sub.add_argument("--period-us", type=int, default=0,
                     help="sampling period in µs (default 1000)")
    sub.add_argument("--horizon-ms", type=int, default=0,
                     help="simulation horizon in ms (default: per "
                          "system, 4x its longest period)")
    add_exec_arguments(sub)
    sub.add_argument("--mtf-out", metavar="PATH",
                     help="also write every sample to this MTF store")

    sub = commands.add_parser(
        "mtf", help="summarize an MTF store or read one signal")
    sub.add_argument("path", metavar="PATH")
    sub.add_argument("--signal", metavar="NAME",
                     help="read this signal instead of summarizing")
    sub.add_argument("--start", type=int, default=None, metavar="NS")
    sub.add_argument("--end", type=int, default=None, metavar="NS")

    options = parser.parse_args(args)
    if options.command == "registry":
        return _registry(options.refs)
    if options.command == "daq":
        return _daq(options)
    return _mtf(options)
