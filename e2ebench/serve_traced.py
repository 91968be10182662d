"""Start the HTTP server with the layer spans installed.

    python3 e2ebench/serve_traced.py STORE SPANS_OUT WORKERS

Installs the same layer wrappers as the in-process workloads, plus
three on the server itself (connection, routing, admission queue), then
calls ``repro.server.app.run_server`` exactly as ``repro serve`` does.
When the server has shut down, the spans and counters are written to
``SPANS_OUT`` as JSON.  A client that adds ``?rid=<id>`` to a request's
path finds that id on the request's ``server.http`` span.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from spans import Tracer, install_layer_hooks  # noqa: E402

from repro.server.app import EngineServer, ServerConfig, run_server  # noqa: E402


def install_server_hooks(tracer: Tracer) -> None:
    """Spans for one connection, its routing, and its wait in the queue."""
    tracer.wrap(EngineServer, "_on_connection", "server.http")
    route = EngineServer._route
    submit = EngineServer._submit

    async def traced_route(server, method, path, query, body):
        connection = tracer.current()
        if connection is not None and query.get("rid"):
            connection.rid = query["rid"][-1]
        with tracer.span("server.route"):
            return await route(server, method, path, query, body)

    async def traced_submit(server, job):
        # The job runs on a worker task's thread: carry this request's
        # span over, so the engine's spans are children of the wait.
        with tracer.span("server.admission") as admission:
            return await submit(server, tracer.adopt(admission, job))

    tracer.patch(EngineServer, "_route", traced_route)
    tracer.patch(EngineServer, "_submit", traced_submit)


def main() -> None:
    store, spans_out, workers = sys.argv[1], Path(sys.argv[2]), int(sys.argv[3])
    tracer = Tracer()
    install_layer_hooks(tracer)
    install_server_hooks(tracer)
    try:
        run_server(
            store,
            ServerConfig(port=0, workers=workers),
            announce=lambda message: print(message, flush=True),
        )
    finally:
        tracer.restore()
        payload = {
            "spans": [span.to_row() for span in tracer.spans],
            "counters": dict(tracer.counters),
        }
        spans_out.write_text(json.dumps(payload))


if __name__ == "__main__":
    main()
