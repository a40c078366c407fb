"""Run one ``genmeas.cli`` command with span tracing.

usage: python3 bench/cli_shim.py SPANS_FILE CLI_ARGS...

The traced cli_pipeline run starts each stage through this file instead of
``python -m genmeas.cli``: it wraps the package's public functions, runs
the command and writes the recorded spans to SPANS_FILE. The exit code is
the command's.
"""

import sys

import genmeas.cli

import tracer as tr


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    spans = tr.Tracer()
    spans.install()
    spans.op_id = 0
    try:
        return genmeas.cli.main(argv)
    finally:
        tr.save(spans_path, spans.arrays())


if __name__ == "__main__":
    sys.exit(main())
