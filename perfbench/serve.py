"""The served workload's partition server, run as its own process.

Starts ``PartitionServer(workers=2, store=DIR)`` with the ``repro serve``
defaults (result cache on, probes shipped, 1 s heartbeat), prints one
JSON line with its address and process ids, then waits for ``close`` on
stdin (or end of input), closes the server, and prints the time
``PartitionServer.close`` took.  With ``--trace-dir`` the layer wrappers
are installed first, so the forked workers inherit them.

    python -m perfbench.serve --store DIR [--trace-dir DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

#: Pool workers of the served workload's partition server, sized for a
#: 2-core box.
WORKERS = 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)

    recorder = None
    if args.trace_dir is not None:
        from perfbench import tracing

        recorder = tracing.install(args.trace_dir)
    from repro.workbench import PartitionServer

    server = PartitionServer(workers=WORKERS, store=args.store)
    try:
        host, port = server.start()
        print(json.dumps({
            "host": host, "port": port, "pid": os.getpid(),
            "workers": server.worker_pids(),
        }), flush=True)
        for line in sys.stdin:
            if line.strip() == "close":
                break
    finally:
        start = time.monotonic()
        server.close()
        close_s = time.monotonic() - start
    if recorder is not None:
        recorder.dump()
    print(json.dumps({"close_s": close_s}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
