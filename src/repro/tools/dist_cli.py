"""``repro-node`` / ``repro-coord`` — the distributed cluster CLI pair.

A local cluster is three shell commands (all sharing one store
directory — the shared-filesystem data plane)::

    repro-node --data-dir /tmp/n1 --store-dir /tmp/store --port 8301 &
    repro-node --data-dir /tmp/n2 --store-dir /tmp/store --port 8302 &
    repro-coord --nodes 127.0.0.1:8301,127.0.0.1:8302 \\
        --data-dir /tmp/coord --store-dir /tmp/store \\
        --sections figure2 --scale 0.001 > report.txt

The coordinator plans the grid, routes cells to nodes by content
address, merges every node's journal into ``<data-dir>/journal.jsonl``,
survives node deaths (liveness watchdog → rebalance → re-route) and
renders the report from the shared store — byte-identical to
``repro-experiments`` run on one machine.  ``--resume`` re-reads the
merged journal and skips everything a previous (even killed) run
completed, cluster-wide.  Exit codes follow the repo convention:
0 clean, 3 degraded (MISSING cells), 130 interrupted.

See ``docs/DISTRIBUTION.md`` for the topology and failure matrix.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.dist.coordinator import run_distributed
from repro.dist.node import NodeServer
from repro.dist.ring import DEFAULT_NUM_SHARDS
from repro.experiments.api import SuiteRequest
from repro.tools.errors import (
    DEGRADED_EXIT_CODE,
    INTERRUPT_EXIT_CODE,
    friendly_errors,
)

__all__ = ["node_main", "coord_main"]


# ----------------------------------------------------------------------
# repro-node
# ----------------------------------------------------------------------

def _node_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-node",
        description="Run one worker node of a distributed grid cluster.")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default %(default)s)")
    parser.add_argument("--port", type=int, default=8301,
                        help="bind port (default %(default)s; 0 picks "
                             "a free one)")
    parser.add_argument("--data-dir", required=True,
                        help="this node's journal directory")
    parser.add_argument("--store-dir", required=True,
                        help="the SHARED result store (all nodes and the "
                             "coordinator must see the same directory)")
    parser.add_argument("--name", default=None,
                        help="advertised node identity (default host:port)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes per batch (default "
                             "%(default)s)")
    parser.add_argument("--retries", type=int, default=2,
                        help="per-cell retry budget (default %(default)s)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-cell timeout in seconds (needs "
                             "--workers > 1)")
    parser.add_argument("--no-speculate", action="store_true",
                        help="disable identical-placement clones (reports are "
                             "byte-identical either way)")
    return parser


@friendly_errors("repro-node")
def node_main(argv: list[str] | None = None) -> int:
    """Entry point for the ``repro-node`` console script."""
    args = _node_parser().parse_args(argv)
    node = NodeServer(
        args.data_dir, args.store_dir,
        host=args.host, port=args.port, name=args.name,
        workers=args.workers, retries=args.retries, timeout=args.timeout,
        speculate=not args.no_speculate,
    )

    async def serve() -> None:
        await node.start()
        print(f"repro-node: {node.name} listening on "
              f"http://{args.host}:{node.port} (store: {node.store_dir})",
              file=sys.stderr, flush=True)
        server = node._server
        async with server:
            while not node._stopping.is_set():
                await asyncio.sleep(0.1)
        # A graceful /v1/shutdown promises "stop after current batch":
        # let the executor drain before the process exits (mirrors
        # NodeServer.serve_forever).
        node._executor.join(timeout=60)

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print(f"repro-node: {node.name} shutting down", file=sys.stderr)
        return INTERRUPT_EXIT_CODE
    return 0


# ----------------------------------------------------------------------
# repro-coord
# ----------------------------------------------------------------------

def _coord_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-coord",
        description="Coordinate one distributed grid run across worker "
                    "nodes and render the report (byte-identical to a "
                    "single-machine run).")
    parser.add_argument("--nodes", required=True,
                        help="comma-separated worker addresses "
                             "(host:port,host:port,...)")
    parser.add_argument("--data-dir", required=True,
                        help="coordinator state: merged journal + shard map")
    parser.add_argument("--store-dir", required=True,
                        help="the SHARED result store")
    parser.add_argument("--sections", nargs="+", default=None,
                        help="report sections (default: all)")
    parser.add_argument("--scale", type=float, default=None,
                        help="workload scale")
    parser.add_argument("--seed", type=int, default=None, help="base seed")
    parser.add_argument("--quantum-refs", type=int, default=None,
                        help="references per scheduling quantum")
    parser.add_argument("--engine", default=None,
                        help="replay engine (classic/fast)")
    parser.add_argument("--charts", action="store_true",
                        help="include ASCII charts in the report")
    parser.add_argument("--resume", action="store_true",
                        help="skip cells the merged journal confirms "
                             "complete (cluster-wide resume)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="overall run budget in seconds (pending "
                             "cells degrade to MISSING at expiry)")
    parser.add_argument("--num-shards", type=int,
                        default=DEFAULT_NUM_SHARDS,
                        help="partition count (default %(default)s)")
    parser.add_argument("--heartbeat", type=float, default=0.25,
                        help="seconds between liveness probes "
                             "(default %(default)s)")
    parser.add_argument("--liveness-failures", type=int, default=3,
                        help="consecutive probe failures before a node "
                             "is declared dead (default %(default)s)")
    parser.add_argument("--reroute-budget", type=int, default=3,
                        help="re-routes per cell after node deaths "
                             "before MISSING (default %(default)s)")
    parser.add_argument("--progress", action="store_true",
                        help="paint a live progress meter on stderr")
    parser.add_argument("--out", default="-", metavar="PATH",
                        help="report destination (default stdout)")
    return parser


@friendly_errors("repro-coord")
def coord_main(argv: list[str] | None = None) -> int:
    """Entry point for the ``repro-coord`` console script."""
    args = _coord_parser().parse_args(argv)
    nodes = [address.strip() for address in args.nodes.split(",")
             if address.strip()]
    if not nodes:
        raise ValueError("--nodes must list at least one host:port")
    request_fields: dict = {}
    if args.sections is not None:
        request_fields["sections"] = tuple(args.sections)
    for name in ("scale", "seed", "quantum_refs", "engine"):
        value = getattr(args, name)
        if value is not None:
            request_fields[name] = value
    if args.charts:
        request_fields["charts"] = True
    request = SuiteRequest(**request_fields)

    listener = None
    meter = None
    if args.progress:
        from repro.obs.progress import ProgressMeter

        meter = ProgressMeter(len(request.cell_ids()), stream=sys.stderr)
        listener = meter.update

    text, cluster = run_distributed(
        request, nodes, args.data_dir, args.store_dir,
        resume=args.resume, timeout=args.timeout, listener=listener,
        coordinator_options={
            "num_shards": args.num_shards,
            "heartbeat": args.heartbeat,
            "liveness_failures": args.liveness_failures,
            "reroute_budget": args.reroute_budget,
        },
    )
    if meter is not None:
        meter.close()
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as out:
            out.write(text)
    summary = (f"repro-coord: {len(cluster.results)}/{len(cluster.specs)} "
               f"cells, {cluster.resumed} resumed, "
               f"{cluster.reroutes} rerouted, "
               f"{len(cluster.deaths)} node death(s), "
               f"directory v{cluster.directory_version}, "
               f"{cluster.elapsed:.1f}s")
    print(summary, file=sys.stderr)
    if cluster.missing:
        print(f"repro-coord: {len(cluster.missing)} cell(s) MISSING — "
              "report is degraded", file=sys.stderr)
        return DEGRADED_EXIT_CODE
    return 0


if __name__ == "__main__":
    sys.exit(coord_main() if "--nodes" in (sys.argv or [])
             else node_main())
