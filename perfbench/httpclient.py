"""Open-loop HTTP/1.1 load client over a few keep-alive connections.

One asyncio process: a dispatcher releases each request when it falls
due and puts it on a queue; ``connections`` workers, each holding one
keep-alive socket, take requests off the queue and wait for the answer.
When the server falls behind, requests wait in that queue (the client
backlog) and their latency, timed from when they were due, grows.

:func:`run_pipelined` instead releases a whole burst at once and keeps
a fixed number of requests written ahead on each connection.

Instrumentation kept per request: due, released (dispatcher wake-up),
sent, done, status and, for a chosen subset, the body.  From those:
generator lateness (released - due), backlog depth at each release, and
the stall detector (:func:`stall_max_s`).
"""

from __future__ import annotations

import asyncio
import gc
import json
import time
from dataclasses import dataclass, field


@dataclass
class PhaseResult:
    t0: float
    due: list[float]
    released: list[float]
    sent: list[float]
    done: list[float]
    status: list[int]
    backlog: list[int]
    bodies: dict[int, bytes] = field(default_factory=dict)

    def latency_s(self) -> list[float]:
        """Per request, from when it was due to when its answer arrived."""
        return [d - (self.t0 + u) for d, u in zip(self.done, self.due)]

    def wire_s(self) -> list[float]:
        """Per request, from when it was written to when its answer arrived."""
        return [d - s for d, s in zip(self.done, self.sent)]

    def late_s(self) -> list[float]:
        return [r - (self.t0 + u) for r, u in zip(self.released, self.due)]


def stall_max_s(sent: list[float], done: list[float]) -> float:
    """Longest time with a request outstanding and no answer arriving."""
    events = sorted([(t, 1) for t in sent] + [(t, -1) for t in done])
    outstanding, mark, worst = 0, 0.0, 0.0
    for t, step in events:
        if step == 1:
            if outstanding == 0:
                mark = t
            outstanding += 1
        else:
            worst = max(worst, t - mark)
            mark = t
            outstanding -= 1
    return worst


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    body = await reader.readexactly(length) if length else b""
    return status, body


def _request_bytes(target: str) -> bytes:
    return f"GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("latin-1")


async def _phase(port: int, due: list[float], targets: list[str],
                 connections: int, keep: frozenset[int]) -> PhaseResult:
    n = len(targets)
    res = PhaseResult(0.0, due, [0.0] * n, [0.0] * n, [0.0] * n, [0] * n, [0] * n)
    queue: asyncio.Queue = asyncio.Queue()
    conns = [await asyncio.open_connection("127.0.0.1", port)
             for _ in range(connections)]

    async def worker(reader, writer) -> None:
        while True:
            i = await queue.get()
            if i is None:
                return
            res.sent[i] = time.perf_counter()
            writer.write(_request_bytes(targets[i]))
            status, body = await _read_response(reader)
            res.done[i] = time.perf_counter()
            res.status[i] = status
            if i in keep:
                res.bodies[i] = body

    workers = [asyncio.create_task(worker(r, w)) for r, w in conns]
    res.t0 = t0 = time.perf_counter()
    try:
        for i, offset in enumerate(due):
            delay = t0 + offset - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            res.released[i] = time.perf_counter()
            queue.put_nowait(i)
            res.backlog[i] = queue.qsize()
        for _ in workers:
            queue.put_nowait(None)
        await asyncio.gather(*workers)
    finally:
        for task in workers:
            task.cancel()
        for _, writer in conns:
            writer.close()
        await asyncio.gather(*(w.wait_closed() for _, w in conns),
                             return_exceptions=True)
    return res


def run_phase(port: int, due: list[float], targets: list[str],
              connections: int, keep: frozenset[int] = frozenset()) -> PhaseResult:
    """Replay ``targets`` on the ``due`` schedule; blocks until all answered.

    The garbage collector is off meanwhile: a collection pause in the
    client would show up as server latency.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return asyncio.run(_phase(port, due, targets, connections, keep))
    finally:
        if enabled:
            gc.enable()


async def _pipelined(port: int, targets: list[str], connections: int,
                     depth: int) -> PhaseResult:
    n = len(targets)
    res = PhaseResult(0.0, [0.0] * n, [0.0] * n, [0.0] * n, [0.0] * n, [0] * n, [0] * n)
    conns = [await asyncio.open_connection("127.0.0.1", port)
             for _ in range(connections)]

    async def connection(reader, writer, mine: range) -> None:
        window = asyncio.Semaphore(depth)

        async def send() -> None:
            for i in mine:
                await window.acquire()
                res.released[i] = res.sent[i] = time.perf_counter()
                writer.write(_request_bytes(targets[i]))

        sender = asyncio.create_task(send())
        try:
            for i in mine:
                res.status[i], _ = await _read_response(reader)
                res.done[i] = time.perf_counter()
                window.release()
        finally:
            sender.cancel()

    res.t0 = time.perf_counter()
    try:
        await asyncio.gather(*(connection(r, w, range(k, n, connections))
                               for k, (r, w) in enumerate(conns)))
    finally:
        for _, writer in conns:
            writer.close()
        await asyncio.gather(*(w.wait_closed() for _, w in conns),
                             return_exceptions=True)
    return res


def run_pipelined(port: int, targets: list[str], connections: int,
                  depth: int) -> PhaseResult:
    """Send ``targets`` all at once, pipelined up to ``depth`` deep per connection.

    Requests are dealt round-robin to the connections; each connection
    keeps ``depth`` requests written ahead of the answers it has read, so
    the server always has the next request buffered.  Every request is due
    at the start (``due`` is all zeros).  The garbage collector is off
    meanwhile, as in :func:`run_phase`.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return asyncio.run(_pipelined(port, targets, connections, depth))
    finally:
        if enabled:
            gc.enable()


def get(port: int, target: str, timeout: float = 10.0) -> tuple[int, bytes]:
    """One request on a fresh connection (health checks, metrics scrape)."""

    async def once() -> tuple[int, bytes]:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            writer.write(_request_bytes(target))
            return await _read_response(reader)
        finally:
            writer.close()
            await writer.wait_closed()

    return asyncio.run(asyncio.wait_for(once(), timeout))


def get_json(port: int, target: str) -> dict:
    status, body = get(port, target)
    if status != 200:
        raise RuntimeError(f"GET {target} answered {status}")
    return json.loads(body)
