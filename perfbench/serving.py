"""The serving phase of ``audit-lb``'s traced runs: the server under load.

The server (``python -m repro serve loadbalance``) runs in its own
process; this process is the single load generator, on at most
``nproc`` connections, with control ops sent in-line.  One repetition:

1. spawn the server and time it until it accepts a connection;
2. an open-loop ladder of single-decision ``act`` requests at fixed
   offered rates, sent pipelined on schedule whatever the replies, with
   a ``flush`` op once per second; every latency is measured from the
   request's due time;
3. a closed-loop burst of 64-decision asks, ended by a ``flush``;
4. ``promote cand`` — the server's OPE gate subprocess over the log;
5. ``shutdown``; in the first repetition of a run, ``verify-ledger
   --expect-head`` on the served log.

Serving is not an end-to-end workload of its own: on a shared 2-CPU
host its run medians drift by more than the largest bound the benchmark
may set (see ``STEADINESS.md``), so it feeds per-layer metrics only.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from common import (
    ROOT,
    Tally,
    child_env,
    median,
    percentile,
    reap,
    repro_argv,
    run,
    traced_argv,
)

#: Offered rates of the open-loop ladder, requests per second.
RUNGS = (500, 1000, 2000, 3000, 4000, 5000, 8000)
#: One and a half seconds a rung holds exactly one in-line ``flush``.
RUNG_SECONDS = 1.5
#: Latency limit on a rung's p99; ``serve.max_rps`` is the highest rung
#: that meets it without a growing backlog.  On a 2-CPU Xeon VM the p99
#: reads 150-200 ms at 5000 req/s, 200-280 ms at 6000 (so no rung
#: there: the result would flip between runs) and 380-520 ms at 8000.
LIMIT_MS = 250.0
#: The rung whose latency is reported as ``serve.p50_ms``/``serve.p99_ms``.
REFERENCE_RPS = 2000
FLUSH_EVERY_S = 1.0
ASK = 64
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
SPAWN_TIMEOUT_S = 60.0
REPLY_TIMEOUT_S = 60.0

ACT_ONE = b'{"op": "act", "n": 1}\n'
FLUSH = b'{"op": "flush"}\n'


@dataclass
class ServeRep:
    """One repetition's measurements."""

    setup_s: float = 0.0
    burst_s: float = 0.0
    burst_decisions: int = 0
    gate_s: float = 0.0
    gate_rows: int = 0
    rss_mb: float = 0.0
    #: rung rate -> {p50_ms, p99_ms, lag_ms, sent, ok, failed, passed}
    rungs: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    metrics_text: str = ""
    gate_step_s: float = 0.0


class Connection:
    """One TCP connection with a FIFO of requests awaiting replies."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        #: (kind, due) per request sent and not yet answered.
        self.pending: deque = deque()

    async def call(self, request: dict) -> dict:
        """Closed loop: send one request and wait for its reply."""
        self.writer.write(json.dumps(request).encode() + b"\n")
        await self.writer.drain()
        line = await asyncio.wait_for(self.reader.readline(), REPLY_TIMEOUT_S)
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class ServingPhase:
    burst = 15_000

    def __init__(self, smoke: bool) -> None:
        self.rungs = RUNGS[:3] if smoke else RUNGS
        self.rung_seconds = 0.5 if smoke else RUNG_SECONDS
        if smoke:
            self.burst = 2_048

    # -- one repetition --------------------------------------------------

    def rep(self, work, seed: int, traced: bool, tally: Tally,
            first: bool) -> ServeRep | None:
        log = work / "served.jsonl"
        if log.exists():
            log.unlink()
        args = [
            "serve", "loadbalance", "--port", "0", "--log", str(log),
            "--swap-policy", "cand=constant:0", "--seed", str(seed),
            "--gate-min-rows", "1",
        ]
        layers_out = work / "serve.layers.json"
        metrics_out = work / "serve.metrics.prom"
        if traced:
            argv = traced_argv(layers_out, *args,
                               "--metrics-out", str(metrics_out))
        else:
            argv = repro_argv(*args)
        result = ServeRep()
        outcome = None
        began = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        try:
            port = self._await_port(proc)
            outcome = asyncio.run(
                self._drive(port, began, result, tally)
            )
        except (OSError, ValueError, ConnectionError,
                asyncio.TimeoutError) as error:
            tally.check(False, f"serving: {error!r}")
        finally:
            if outcome is None:
                proc.kill()
            code, _out, stderr, _wall, rss = reap(
                proc, began, SPAWN_TIMEOUT_S
            )
        if not tally.check(code == 0 and outcome is not None,
                           f"serve exited {code}: {stderr[-300:]!r}"):
            return None
        result.rss_mb = rss
        if first:
            head, acked = outcome
            self._verify(log, head, acked, tally)
        if traced:
            with open(layers_out, encoding="utf-8") as handle:
                result.layers["serve"] = json.load(handle)
            result.metrics_text = metrics_out.read_text(encoding="utf-8")
            gate_out = work / "gate.layers.json"
            done = run(traced_argv(gate_out, "step", "gate", str(log)), ROOT)
            if not tally.command(done, "traced gate step"):
                return None
            with open(gate_out, encoding="utf-8") as handle:
                result.layers["gate"] = json.load(handle)
            result.gate_step_s = done.wall_s
        return result

    def _await_port(self, proc: subprocess.Popen) -> int:
        """Read the server's stderr until it names its port."""
        watchdog = threading.Timer(SPAWN_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            for line in proc.stderr:
                if line.startswith("serving "):
                    address = line.split(" on ", 1)[1].split()[0]
                    return int(address.rsplit(":", 1)[1])
        finally:
            watchdog.cancel()
        raise ConnectionError("server exited before listening")

    async def _drive(self, port: int, began: float, result: ServeRep,
                     tally: Tally):
        conns = []
        for _ in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            conns.append(Connection(reader, writer))
            if not result.setup_s:
                result.setup_s = time.perf_counter() - began
        acked = 0
        try:
            # Every rung runs, past the knee too, so every repetition
            # serves the same requests.
            for rate in self.rungs:
                stats = await self._rung(conns, rate, tally)
                result.rungs[rate] = stats
                acked += stats["ok"]
            acked += await self._burst(conns, result, tally)
            started = time.perf_counter()
            reply = await conns[0].call({"op": "promote", "name": "cand"})
            result.gate_s = time.perf_counter() - started
            decision = reply.get("decision", {})
            result.gate_rows = int(decision.get("n", 0))
            tally.check(reply.get("ok", False) and result.gate_rows == acked,
                        f"promote judged {result.gate_rows} rows of {acked} "
                        f"flushed: {reply}")
            reply = await conns[0].call({"op": "flush"})
            head = reply.get("flush", {}).get("head")
            tally.check(reply.get("ok", False) and head is not None,
                        f"final flush failed: {reply}")
            await conns[0].call({"op": "shutdown"})
        finally:
            for conn in conns:
                await conn.close()
        return head, acked

    # -- phases ------------------------------------------------------------

    async def _burst(self, conns, result: ServeRep, tally: Tally) -> int:
        """Closed loop: 64-decision asks until ``burst``, then flush."""
        remaining = [self.burst]
        served = [0]

        async def client(conn: Connection) -> None:
            while remaining[0] > 0:
                ask = min(ASK, remaining[0])
                remaining[0] -= ask
                reply = await conn.call({"op": "act", "n": ask})
                got = len(reply.get("decisions", ()))
                if tally.check(reply.get("ok", False) and got == ask,
                               f"burst act returned {got}/{ask}"):
                    served[0] += got

        started = time.perf_counter()
        await asyncio.gather(*(client(conn) for conn in conns))
        reply = await conns[0].call({"op": "flush"})
        result.burst_s = time.perf_counter() - started
        result.burst_decisions = served[0]
        tally.check(reply.get("ok", False), f"burst flush failed: {reply}")
        return served[0]

    async def _rung(self, conns, rate: int, tally: Tally) -> dict:
        """Open loop at ``rate`` req/s for ``rung_seconds``."""
        n = int(rate * self.rung_seconds)
        start = time.perf_counter() + 0.01
        # The whole schedule is fixed up front: (due, connection, kind).
        schedule = []
        next_flush = start + FLUSH_EVERY_S
        for i in range(n):
            due = start + i / rate
            if due >= next_flush:
                schedule.append((due, 0, "flush"))
                next_flush += FLUSH_EVERY_S
            schedule.append((due, i % len(conns), "act"))
        latencies: list = []
        lags: list = []
        counts = {"ok": 0, "failed": 0}

        async def read(conn: Connection, replies: int) -> None:
            for _ in range(replies):
                line = await conn.reader.readline()
                if not line:
                    raise ConnectionError("server closed the connection")
                now = time.perf_counter()
                kind, due = conn.pending.popleft()
                reply = json.loads(line)
                if kind == "flush":
                    tally.check(reply.get("ok", False),
                                f"in-line flush failed: {reply}")
                    continue
                ok = reply.get("ok", False) and len(reply["decisions"]) == 1
                counts["ok" if ok else "failed"] += 1
                tally.check(ok, f"act failed at {rate} req/s: {reply}")
                latencies.append((due, (now - due) * 1000.0))

        readers = [
            asyncio.create_task(
                read(conn, sum(1 for _, c, _ in schedule if c == index))
            )
            for index, conn in enumerate(conns)
        ]
        for due, index, kind in schedule:
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lags.append((time.perf_counter() - due) * 1000.0)
            conn = conns[index]
            conn.pending.append((kind, due))
            conn.writer.write(ACT_ONE if kind == "act" else FLUSH)
        done, pending = await asyncio.wait(
            readers, timeout=LIMIT_MS / 1000.0 + 5.0
        )
        for task in pending:
            task.cancel()
        for task in done:
            task.result()
        if pending:
            raise asyncio.TimeoutError(f"replies missing at {rate} req/s")
        latencies.sort()
        values = sorted(lat for _, lat in latencies)
        p99 = percentile(values, 99)
        # A backlog that grows shows as latency climbing through the
        # rung; the periodic flush stall alone does not move the median.
        quarter = max(1, len(latencies) // 4)
        first = median(lat for _, lat in latencies[:quarter])
        last = median(lat for _, lat in latencies[-quarter:])
        growing = last > 2.0 * first + 10.0
        return {
            "p50_ms": percentile(values, 50),
            "p99_ms": p99,
            "lag_ms": percentile(lags, 99),
            "sent": n,
            "ok": counts["ok"],
            "failed": counts["failed"],
            "passed": counts["failed"] == 0 and p99 <= LIMIT_MS and not growing,
        }

    def _verify(self, log, head: str, acked: int, tally: Tally) -> None:
        """The served log verifies against the final head and count."""
        done = run(repro_argv("verify-ledger", str(log), "--expect-head",
                              head, "--json"), ROOT)
        if not tally.command(done, "verify served log"):
            return
        report = json.loads(done.stdout)
        tally.check(report["ok"] and report["n"] == acked,
                    f"served log: ok={report['ok']} n={report['n']} "
                    f"acked={acked}")
