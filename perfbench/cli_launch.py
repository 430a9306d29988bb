"""Run one gmacwt CLI command with module-boundary spans installed.

Usage::

    python perfbench/cli_launch.py SPANS_OUT COMMAND ARGS...

Behaves like ``python -m gmacwt.cli COMMAND ARGS...`` (same stdout,
stderr and exit status) and writes the spans as JSON to SPANS_OUT at exit.
"""

import json
import sys
from pathlib import Path

import spans


def main():
    import gmacwt.cli
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        return gmacwt.cli.main(sys.argv[2:])
    finally:
        columns = {name: list(column) for name, column in tracer.columns().items()}
        Path(sys.argv[1]).write_text(json.dumps(columns))


if __name__ == "__main__":
    sys.exit(main())
