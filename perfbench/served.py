"""Run ``repro serve`` with the layer wrappers installed.

``python3 perfbench/served.py --spans-out PATH -- serve --port 0`` starts
the daemon exactly as ``python -m repro serve`` would, with tracing off.
``SIGUSR1`` toggles tracing; on exit (``SIGINT``) the span summary is
written to ``PATH`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.tracer import Tracer, install, summarize_spans  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    tracer = Tracer()
    install(tracer)

    def toggle(_signum, _frame):
        tracer.active = not tracer.active

    signal.signal(signal.SIGUSR1, toggle)
    from repro.__main__ import main as repro_main

    try:
        return repro_main(argv)
    finally:
        tracer.active = False
        Path(args.spans_out).write_text(
            json.dumps(summarize_spans(tracer.spans())))


if __name__ == "__main__":
    sys.exit(main())
