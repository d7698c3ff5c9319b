"""Run the served scenario's master with span tracing.

    python3 perfbench/proc.py OUT_JSON CLI_ARGS...

The master's public calls are wrapped (see :mod:`tracing`), the command
runs through ``repro.cli.main`` exactly as ``python -m repro`` would run
it, and when the process ends — normally, or after the SIGTERM drain —
the per-layer totals are written to ``OUT_JSON`` and the spans next to
it (``.spans.jsonl``).
"""

from __future__ import annotations

import atexit
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main(argv: list[str]) -> int:
    out, *cli_args = argv
    tracer = tracing.Tracer()
    tracing.instrument(tracer, tracing.MASTER_TARGETS)

    def dump() -> None:
        totals = tracing.layer_seconds(tracer.spans)
        Path(out).write_text(json.dumps(totals), encoding="utf-8")
        with open(Path(out).with_suffix(".spans.jsonl"), "w",
                  encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")

    atexit.register(dump)

    from repro.cli import main as cli_main

    return cli_main(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
