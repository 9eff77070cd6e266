"""The stdlib HTTP/JSON front end over :class:`~repro.service.manager.SweepManager`.

Endpoints::

    POST /sweeps          submit a sweep; identical in-flight requests share
                          one execution.  ``{"wait": true}`` blocks until the
                          sweep finishes and returns the full result payload;
                          otherwise 202 with the sweep id to poll.
    GET  /sweeps/<id>     status, progress counters, and per-job results as
                          they land (``null`` for jobs still running).
    GET  /results         the SQLite result-store query API
                          (?label=&workload=&category=&version=&tag=&limit=).
    GET  /healthz         executor / cache / store health.

Built on :class:`http.server.ThreadingHTTPServer` — one thread per
request, no third-party dependencies.  Long-running simulations happen in
the manager's sweep threads, never in a request handler, so ``GET``s stay
responsive while a sweep runs.
"""

from __future__ import annotations

import json
import os
import weakref
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlparse

from repro.service.manager import SweepManager, SweepRequestError

#: Maximum request body the service accepts; sweep descriptions are tiny.
_MAX_BODY = 1 << 20

#: ``GET /results`` query parameters forwarded to ``ResultStore.query``.
_QUERY_PARAMS = (
    "label", "workload", "category", "version",
    "builder_digest", "trace_digest", "tag",
)


class ServiceHandler(BaseHTTPRequestHandler):
    """One HTTP request; the manager is attached by :func:`create_server`."""

    manager: SweepManager  # class attribute, set per server
    server_version = "repro-lnuca"
    protocol_version = "HTTP/1.1"

    # The default handler logs every request to stderr; the service keeps
    # quiet unless the server was created with verbose=True.
    verbose = False

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.verbose:
            super().log_message(format, *args)

    # -- plumbing ----------------------------------------------------------
    def _send_json(self, code: int, payload: object) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, message: str) -> None:
        self._send_json(code, {"error": message})

    def _read_body(self) -> object:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0 or length > _MAX_BODY:
            raise SweepRequestError("request body required (JSON object)")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise SweepRequestError(f"invalid JSON body: {exc}") from None

    # -- routes ------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        parsed = urlparse(self.path)
        if parsed.path.rstrip("/") != "/sweeps":
            self._error(404, f"unknown endpoint {parsed.path!r}")
            return
        try:
            body = self._read_body()
            wait = bool(isinstance(body, dict) and body.get("wait", False))
            sweep, deduplicated = self.manager.submit(body)
        except SweepRequestError as exc:
            self._error(400, str(exc))
            return
        if wait:
            sweep.finished.wait()
            payload = sweep.to_dict(include_results=True)
            payload["deduplicated"] = deduplicated
            self._send_json(200, payload)
            return
        payload = sweep.to_dict(include_results=False)
        payload["deduplicated"] = deduplicated
        self._send_json(202, payload)

    def do_GET(self) -> None:  # noqa: N802
        parsed = urlparse(self.path)
        path = parsed.path.rstrip("/") or "/"
        if path == "/healthz":
            self._send_json(200, self.manager.healthz())
            return
        if path == "/results":
            self._get_results(parsed.query)
            return
        if path.startswith("/sweeps/"):
            sweep_id = path[len("/sweeps/"):]
            sweep = self.manager.get(sweep_id)
            if sweep is None:
                self._error(404, f"unknown sweep {sweep_id!r}")
                return
            self._send_json(200, sweep.to_dict(include_results=True))
            return
        self._error(404, f"unknown endpoint {parsed.path!r}")

    def _get_results(self, query: str) -> None:
        store = self.manager.store
        if store is None:
            self._error(503, "no result store configured (start with --store)")
            return
        params = parse_qs(query)
        unknown = set(params) - set(_QUERY_PARAMS) - {"limit"}
        if unknown:
            self._error(400, f"unknown query parameters: {sorted(unknown)}")
            return
        kwargs = {name: params[name][0] for name in _QUERY_PARAMS if name in params}
        if "limit" in params:
            try:
                kwargs["limit"] = int(params["limit"][0])
            except ValueError:
                self._error(400, "'limit' must be an integer")
                return
        self._send_json(200, {"results": store.query(**kwargs)})


def create_server(
    host: str,
    port: int,
    manager: SweepManager,
    verbose: bool = False,
) -> ThreadingHTTPServer:
    """A ready-to-serve :class:`ThreadingHTTPServer` bound to host:port.

    ``port=0`` binds an ephemeral port; read the real one from
    ``server.server_address``.  The handler class is subclassed per
    server so two servers in one process (tests) never share a manager.
    """
    handler = type(
        "BoundServiceHandler",
        (ServiceHandler,),
        {"manager": manager, "verbose": verbose},
    )
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    _close_in_forked_children(server.socket)
    return server


def _close_in_forked_children(sock) -> None:
    """Close ``sock`` in every process forked from this one from now on.

    Sweeps fork their pool workers from the serving process; a worker
    that kept the listening socket would hold the port bound after the
    server itself died.  ``close`` only drops the child's copy of the
    descriptor, so the server keeps listening.
    """
    ref = weakref.ref(sock)

    def close() -> None:
        listening = ref()
        if listening is not None:
            listening.close()

    os.register_at_fork(after_in_child=close)


def serve(
    host: str = "127.0.0.1",
    port: int = 8080,
    manager: Optional[SweepManager] = None,
    verbose: bool = False,
) -> None:
    """Run the service until interrupted (the ``repro serve`` entry point)."""
    manager = manager if manager is not None else SweepManager()
    server = create_server(host, port, manager, verbose=verbose)
    bound_host, bound_port = server.server_address[:2]
    print(f"repro service listening on http://{bound_host}:{bound_port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
