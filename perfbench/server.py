"""Benchmark server entry: one world behind the default asyncio door.

Reads a world spec (JSON) from standard input, builds the world, starts
the service the way ``repro serve`` does (its own defaults for threads,
SLOs, slow-query threshold and admission; metrics and tracing on) and
serves it with :func:`repro.service.serve_aio` on a free port.  Prints one
line, ``{"port": N}``, when listening, then serves until standard input
reaches end of file.

With ``--spans PATH`` the layer wrappers of :mod:`layers` are installed
before the world is built and the recorded spans are written to PATH on
shutdown.

Run from the repository root: ``python3 perfbench/server.py < spec.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def front_end_config() -> dict:
    """The query front end exactly as ``repro serve`` configures it."""
    from repro.cli import build_parser

    args = build_parser().parse_args(["serve"])
    return dict(
        workers=args.threads,
        slow_query_threshold=args.slow_threshold,
        max_epoch_age=args.max_epoch_age,
        max_sweep_seconds=args.max_sweep_seconds,
        admission_mode=args.admission_mode,
        admission_threshold_qps=args.admission_threshold_qps,
        admission_horizon=args.admission_horizon,
        admission_retry_after=args.admission_retry_after,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", help="install layer spans and write them here")
    args = parser.parse_args()
    spec = json.loads(sys.stdin.readline())

    recorder = None
    if args.spans:
        import layers

        recorder = layers.install()

    from repro import obs
    from repro.service import serve_aio

    import worlds

    obs.configure_observability(metrics=True, tracing=True, logging=False, log_level="info")
    service = worlds.build_service(spec, front_end_config())
    service.start(warmup=spec["warmup"])
    server = serve_aio(service, host="127.0.0.1", port=0)
    try:
        print(json.dumps({"port": server.address[1]}), flush=True)
        sys.stdin.read()  # serve until the generator closes our stdin
    finally:
        server.stop()
        service.stop()
        if recorder is not None:
            recorder.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
