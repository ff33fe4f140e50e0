"""Traced launcher: ``python3 perfbench/launch.py SPANS.json serve ...``.

Wraps the program's public layer functions with spans (see
``tracer.SERVER_POINTS``), then runs the ordinary ``repro`` CLI with the
remaining arguments.  When the CLI returns (``repro serve`` returns on
SIGINT) the recorded spans are written to ``SPANS.json``.
"""

from __future__ import annotations

import sys

import tracer


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = tracer.SpanRecorder()
    tracer.install(recorder, tracer.SERVER_POINTS)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
