"""Open-loop timing and the connection cap, against a fake server."""

import asyncio
import json
import os
import time

from types import SimpleNamespace

from driver import ConnectionPool, Driver, PhaseResult
from run import gates


class FakeServer:
    """Answers every request with ``answer`` (default ``{}``); stalls the
    first one by ``stall`` s and counts concurrently open connections."""

    def __init__(self, stall: float = 0.0, delay: float = 0.0, answer=None):
        self.stall = stall
        self.delay = delay
        self.answer = {} if answer is None else answer
        self.requests = 0
        self.open = 0
        self.max_open = 0

    async def handle(self, reader, writer):
        self.open += 1
        self.max_open = max(self.max_open, self.open)
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except asyncio.IncompleteReadError:
                    return
                length = 0
                for line in head.decode("latin-1").split("\r\n"):
                    if line.lower().startswith("content-length:"):
                        length = int(line.split(":", 1)[1])
                if length:
                    await reader.readexactly(length)
                self.requests += 1
                if self.requests == 1 and self.stall:
                    await asyncio.sleep(self.stall)
                elif self.delay:
                    await asyncio.sleep(self.delay)
                body = json.dumps(self.answer).encode()
                writer.write(
                    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )
                await writer.drain()
        finally:
            self.open -= 1
            writer.close()

    async def start(self) -> int:
        self.server = await asyncio.start_server(self.handle, "127.0.0.1", 0)
        return self.server.sockets[0].getsockname()[1]

    async def stop(self):
        self.server.close()
        await self.server.wait_closed()


def test_latency_is_timed_from_due_time_through_a_stall():
    async def scenario():
        server = FakeServer(stall=0.30)
        port = await server.start()
        driver = Driver(port, connections=1, n_random_pad=5)
        result = PhaseResult()
        start = time.perf_counter() + 0.05
        try:
            await asyncio.gather(
                *(
                    driver._timed(result, "plain", start + offset, "POST", "/complete", {})
                    for offset in (0.0, 0.05, 0.10, 0.15, 0.50)
                )
            )
        finally:
            await driver.close()
            await server.stop()
        return sorted(result.samples, key=lambda s: s.latency, reverse=True)

    samples = asyncio.run(scenario())
    assert [s.ok for s in samples] == [True] * 5
    first, *queued, late = samples
    assert first.latency >= 0.30
    # Each request queued behind the stall (here: for the one connection)
    # shows the stall minus its offset, though the server answered it at
    # once when it was finally sent; the wait is reported as conn_wait.
    for offset, sample in zip((0.05, 0.10, 0.15), queued):
        assert sample.latency >= 0.30 - offset - 0.01
        assert sample.service < 0.05
        assert sample.conn_wait >= 0.30 - offset - 0.01
    # The stall is over before the last one is due: no inherited wait.
    assert late.latency < 0.05
    assert all(s.lateness < 0.05 for s in samples)


def test_connections_never_exceed_the_pool_size():
    cap = os.cpu_count() or 1

    async def scenario():
        server = FakeServer(delay=0.02)
        port = await server.start()
        pool = ConnectionPool("127.0.0.1", port, cap)
        try:
            answers = await asyncio.gather(
                *(pool.request("POST", "/complete", {"i": i}) for i in range(8 * cap + 3))
            )
        finally:
            await pool.close()
            await server.stop()
        return server, pool, answers

    server, pool, answers = asyncio.run(scenario())
    assert all(status == 200 for status, *_ in answers)
    assert server.requests == 8 * cap + 3
    assert server.max_open <= cap
    assert pool.max_in_use <= cap
    assert pool.connections_opened <= cap
    # Requests beyond the cap waited for a connection, and that wait is reported.
    assert max(wait for _, _, wait, _ in answers) > 0.0


def test_remaining_tasks_reads_healthz():
    async def scenario():
        server = FakeServer(answer={"status": "ok", "remaining_tasks": 37})
        port = await server.start()
        driver = Driver(port, connections=1, n_random_pad=5)
        try:
            return await driver.remaining_tasks()
        finally:
            await driver.close()
            await server.stop()

    assert asyncio.run(scenario()) == 37


def _raw(remaining_before_probe, remaining_at_end):
    return {
        "driver": SimpleNamespace(duplicates=0, deadline_exceeded=0),
        "metrics": {},
        "healthz": {"remaining_tasks": remaining_at_end},
        "remaining_before_probe": remaining_before_probe,
        "max_connections": 1,
    }


def test_a_pool_drained_before_the_probe_fails_the_cap_gate():
    # The probe's admissions refill the pool (800 posts of 2 tasks), so the
    # count at the end would hide a drained pool; the gate reads the count
    # from before the probe.
    assert not gates(_raw(0, 1600))["cap_shape_held"]
    assert not gates(_raw(399, 1999))["cap_shape_held"]
    assert all(gates(_raw(400, 2000)).values())


def test_short_requests_take_a_freed_connection_before_solving_ones():
    async def scenario():
        server = FakeServer(stall=0.10)
        port = await server.start()
        pool = ConnectionPool("127.0.0.1", port, 1)
        done = []

        async def send(name, delay, solving):
            await asyncio.sleep(delay)
            await pool.request("POST", "/complete", {}, solving=solving)
            done.append(name)

        try:
            await asyncio.gather(
                send("first", 0.0, False),
                send("solving", 0.02, True),
                send("short", 0.04, False),
            )
        finally:
            await pool.close()
            await server.stop()
        return done

    assert asyncio.run(scenario()) == ["first", "short", "solving"]
