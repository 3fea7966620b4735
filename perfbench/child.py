"""Fresh-interpreter entry point for cold requests and set-up timing.

    python3 perfbench/child.py --setup WORKLOAD
        import ringwaves.cli, make the workload's structures ready, then print
        one JSON line {"ready": true}.
    python3 perfbench/child.py [--spans FILE] -- CLI-ARGS...
        run one CLI command; with --spans, wrap the layers first and write the
        spans and counters to FILE when the command ends.

Run from the checkout root; the benchmark's environment (thread pinning) is
inherited from run.py.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import tracer as tracing  # noqa: E402  (sibling module; this file runs as a script)
import workloads  # noqa: E402


def main(args) -> int:
    if args[:1] == ["--setup"]:
        import ringwaves.cli as cli

        workloads.run_setup(cli, args[1])
        print(json.dumps({"ready": True}), flush=True)
        return 0
    spans_path = None
    if args[:1] == ["--spans"]:
        spans_path, args = Path(args[1]), args[2:]
    if args[:1] != ["--"]:
        print("usage: child.py --setup WORKLOAD | child.py [--spans FILE] -- CLI-ARGS", file=sys.stderr)
        return 2
    tracer = tracing.Tracer() if spans_path else None
    start = perf_counter()
    import ringwaves.cli as cli

    end = perf_counter()
    if tracer is None:
        return cli.main(args[1:])
    tracer.request = 0
    tracer.add_span("cli.import", start, end, 0)
    tracer.install()
    try:
        return cli.main(args[1:])
    finally:
        tracer.uninstall()
        spans_path.write_text(json.dumps({"spans": tracer.spans, "counts": tracer.counts[0]}))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
