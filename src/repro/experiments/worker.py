"""``repro worker``: serve suite cells to a coordinator over TCP.

One worker process listens on one port and serves one coordinator session
at a time (the coordinator holds one connection per worker and keeps at
most one cell in flight on it).  With ``--sessions N`` the worker instead
accepts up to N concurrent coordinator sessions — the multiplexing mode
``repro serve`` tenants need to share one fleet — computing one cell at
a time under a global compute lock (the host has the same cores either
way) while every queued session's heartbeats keep its lease fresh.
For every ``run`` frame the worker:

1. decodes the wire :class:`~repro.experiments.parallel.CellSpec`,
2. starts a heartbeat thread beating every ``heartbeat`` seconds so the
   coordinator's lease stays fresh while the cell computes,
3. computes the cell in the **main thread** — so an injected ``crash``
   fault (SIGKILL via ``REPRO_FAULT_INJECT``) kills the whole worker
   process and the coordinator observes a dropped socket, exactly like a
   real OOM kill — and
4. replies with one terminal ``result`` frame (encoded payload + content
   digest) or ``error`` frame, then waits for the next ``run``.

A worker is stateless between cells: every cell regenerates its trace
from seeds (sharing the in-process
:class:`~repro.experiments.runner.TraceCache`) and builds a fresh
predictor, so a cell computed here is bit-identical to one computed
locally.  After the coordinator disconnects the worker loops back to
``accept``, so a killed-and-restarted coordinator reuses running workers.

Protocol fault injection (``REPRO_FAULT_INJECT``, see
:func:`~repro.experiments.resilience.take_protocol_fault`): ``stall``
suppresses heartbeats and holds the result (the coordinator expires the
lease), ``torn`` truncates the result frame mid-send (worker-lost),
``corrupt`` flips the result digest (result-corrupt, exercising the
coordinator's payload verification).

With :mod:`repro.experiments.backends`, this is the only module
sanctioned to use sockets (the ``conc-socket`` lint rule enforces it).
"""

from __future__ import annotations

import argparse
import socket
import struct
import threading
import time
from typing import List, Optional

from ..common.hashing import stable_digest
from .backends import (
    PROTOCOL_VERSION,
    FrameError,
    recv_frame,
    send_frame,
    spec_from_wire,
)
from .resilience import take_protocol_fault
from .result_cache import write_atomic

__all__ = ["main", "serve"]

#: How long ``accept`` blocks between stop-flag checks.
_ACCEPT_TICK = 0.2

#: Seconds an injected ``stall`` stays silent (no heartbeat, no result)
#: when the clause carries no explicit duration — far past any realistic
#: lease timeout, so the coordinator always expires the lease first.
_STALL_SECONDS = 30.0


def serve(host: str = "127.0.0.1", port: int = 0,
          ready_file: Optional[str] = None,
          max_sessions: Optional[int] = None,
          stop: Optional[threading.Event] = None,
          quiet: bool = False,
          sessions: int = 1) -> int:
    """Listen for coordinator sessions; returns the bound port.

    ``port=0`` binds an ephemeral port, printed on stdout and written
    (as ``host:port``) to ``ready_file`` when given — launch scripts and
    tests poll that file instead of parsing output.  ``max_sessions``
    exits after that many coordinator sessions (tests); ``stop`` is an
    optional event polled between ``accept`` attempts (in-process use).

    ``sessions`` is the concurrent-session capacity.  The default 1 is
    the historical single-coordinator loop: one session at a time, cells
    computed in the main thread (so an injected SIGKILL crash fault
    takes the whole process down, exactly like a real OOM kill).  With
    ``sessions > 1`` each accepted connection gets a session thread and
    cells are computed one at a time under a shared compute lock;
    heartbeats start *before* the lock is taken, so a cell queued behind
    another tenant's cell keeps its lease fresh while it waits.  (A
    SIGKILL still kills the whole process from any thread.)
    """
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    server.bind((host, port))
    server.listen(max(1, sessions))
    bound = server.getsockname()[1]
    if not quiet:
        print(f"[repro-worker] listening on {host}:{bound} "
              f"(protocol v{PROTOCOL_VERSION}, sessions={sessions})",
              flush=True)
    if ready_file is not None:
        write_atomic(ready_file, f"{host}:{bound}\n")
    server.settimeout(_ACCEPT_TICK)
    compute_lock = threading.Lock() if sessions > 1 else None
    threads: List[threading.Thread] = []
    conns: List[socket.socket] = []
    accepted = 0
    try:
        while stop is None or not stop.is_set():
            try:
                conn, _addr = server.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            accepted += 1
            if sessions > 1:
                threads = [t for t in threads if t.is_alive()]
                conns.append(conn)
                thread = threading.Thread(
                    target=_session_guarded, args=(conn, compute_lock),
                    daemon=True)
                thread.start()
                threads.append(thread)
            else:
                _session_guarded(conn, None)
            if max_sessions is not None and accepted >= max_sessions:
                break
    finally:
        server.close()
        # Unblock session threads parked in recv so shutdown is prompt
        # (close alone does not interrupt a blocked recv);
        # _session_guarded absorbs the resulting OSError.
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
    for thread in threads:
        thread.join(timeout=_STALL_SECONDS * 2)
    return bound


def _session_guarded(conn: socket.socket,
                     compute_lock: Optional[threading.Lock]) -> None:
    """Run one session, absorbing a vanished coordinator."""
    try:
        _session(conn, compute_lock)
    except (OSError, FrameError):
        pass  # coordinator vanished mid-session; await the next
    finally:
        try:
            conn.close()
        except OSError:
            pass


def _session(conn: socket.socket,
             compute_lock: Optional[threading.Lock] = None) -> None:
    """One coordinator session: handshake, then serve run frames."""
    conn.settimeout(None)
    hello = recv_frame(conn)
    if hello is None or hello.get("type") != "hello":
        return
    # Always answer with our version: a skewed coordinator needs the
    # reply to diagnose the skew (probe_endpoint / doctor), after which
    # this side refuses to serve it.
    send_frame(conn, {"type": "hello", "version": PROTOCOL_VERSION,
                      "role": "worker"})
    if hello.get("version") != PROTOCOL_VERSION:
        return
    send_lock = threading.Lock()
    while True:
        frame = recv_frame(conn)
        if frame is None:
            return
        if frame.get("type") == "run":
            _run_cell(conn, send_lock, frame, compute_lock)


def _run_cell(conn: socket.socket, send_lock: threading.Lock,
              frame: dict,
              compute_lock: Optional[threading.Lock] = None) -> None:
    """Compute one leased cell and send its terminal frame."""
    from .parallel import compute_cell  # deferred: parallel imports backends
    from .result_cache import encode_result

    lease = frame.get("lease")
    interval = float(frame.get("heartbeat", 1.0))
    spec = spec_from_wire(frame["spec"])
    fault = take_protocol_fault(spec)
    stalled = fault is not None and fault.kind == "stall"
    stop_beat = threading.Event()
    beat: Optional[threading.Thread] = None
    if stalled:
        # A wedged/partitioned worker: silent past the lease window.  The
        # coordinator expires the lease and drops this connection; the
        # send below then fails and ends the session.
        seconds = _STALL_SECONDS
        if fault.arg is not None and not fault.once:
            seconds = float(fault.arg)
        time.sleep(seconds)
    else:
        beat = threading.Thread(
            target=_heartbeat,
            args=(conn, send_lock, lease, interval, stop_beat),
            daemon=True)
        beat.start()
    try:
        try:
            if compute_lock is not None:
                # Multi-session mode: one cell computes at a time; the
                # heartbeat thread above keeps the lease fresh meanwhile.
                with compute_lock:
                    result = compute_cell(spec)
            else:
                result = compute_cell(spec)
        except Exception as error:  # cell failed; report and stay alive
            send_frame(conn, {"type": "error", "lease": lease,
                              "error": f"{type(error).__name__}: {error}"},
                       send_lock)
            return
        encoded = encode_result(result)
        digest = stable_digest(encoded)
        if fault is not None and fault.kind == "corrupt":
            digest = "0" * len(digest)
        if fault is not None and fault.kind == "torn":
            _send_torn(conn, send_lock)
            raise OSError("injected torn result frame")
        send_frame(conn, {"type": "result", "lease": lease,
                          "result": encoded, "digest": digest}, send_lock)
    finally:
        stop_beat.set()
        if beat is not None:
            beat.join(timeout=max(interval, 1.0) * 2)


def _heartbeat(conn: socket.socket, send_lock: threading.Lock,
               lease: Optional[str], interval: float,
               stop: threading.Event) -> None:
    """Beat every ``interval`` seconds until stopped or the socket dies."""
    while not stop.wait(interval):
        try:
            send_frame(conn, {"type": "heartbeat", "lease": lease},
                       send_lock)
        except OSError:
            return


def _send_torn(conn: socket.socket, send_lock: threading.Lock) -> None:
    """Send a length prefix promising more bytes than follow, then die.

    The coordinator's ``recv_frame`` raises ``FrameError`` ("torn
    frame"), which it classifies as worker-lost — the same as a worker
    killed mid-``sendall``.
    """
    with send_lock:
        conn.sendall(struct.pack(">I", 1 << 16) + b"{\"type\":")
        conn.shutdown(socket.SHUT_RDWR)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro worker``."""
    parser = argparse.ArgumentParser(
        prog="repro worker",
        description="serve suite cells to a repro coordinator over TCP")
    parser.add_argument("--host", default="127.0.0.1",
                        help="address to bind (default: %(default)s)")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (default: 0 = ephemeral, printed "
                             "and written to --ready-file)")
    parser.add_argument("--ready-file", default=None, metavar="FILE",
                        help="write host:port to this file once listening")
    parser.add_argument("--max-sessions", type=int, default=None,
                        metavar="N",
                        help="exit after N coordinator sessions "
                             "(default: serve forever)")
    parser.add_argument("--sessions", type=int, default=1, metavar="N",
                        help="concurrent coordinator sessions; >1 computes "
                             "cells under a shared lock so repro serve "
                             "tenants can multiplex one fleet "
                             "(default: %(default)s)")
    args = parser.parse_args(argv)
    if args.sessions < 1:
        parser.error("--sessions must be >= 1")
    serve(host=args.host, port=args.port, ready_file=args.ready_file,
          max_sessions=args.max_sessions, sessions=args.sessions)
    return 0
