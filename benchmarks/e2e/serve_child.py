#!/usr/bin/env python3
"""The process under test for ``serve_http``: a ``QueryService`` mounted
on an ``ObservatoryServer``, started by the benchmark's own launcher.

Prints ``READY <port>`` once it accepts connections and serves until its
standard input is closed — so it cannot outlive the benchmark that
started it, however that ends.
"""

from __future__ import annotations

import argparse
import os
import sys

from protocol import ROOT

sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.obs.instrument import get_default  # noqa: E402
from repro.obs.server import ObservatoryServer  # noqa: E402
from repro.serve import QueryService  # noqa: E402

import wl_serve  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sources", type=int, required=True)
    parser.add_argument("--rows", type=int, required=True)
    args = parser.parse_args()
    backend = wl_serve.build_backend(args.seed, args.sources, args.rows)
    with QueryService(backend, wl_serve.serve_config()) as service:
        # Telemetry stays at the process default (off): its cost is a
        # per-layer metric of its own, not part of the baseline round trip.
        with ObservatoryServer(get_default(), port=0, query_service=service) as server:
            print(f"READY {server.port}", flush=True)
            sys.stdin.read()
    return 0


if __name__ == "__main__":
    sys.exit(main())
