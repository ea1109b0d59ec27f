"""``serve_check_lint``: an open-loop load against a ``repro serve`` daemon.

One asyncio process drives two keep-alive connections at a fixed rate.
Requests go out in pairs, one on each connection at the same due time,
and the pairs alternate between ``POST /v1/check`` and ``POST /v1/lint``,
so two checks reach the daemon together and its micro-batching can join
them.  Sources are drawn uniformly with replacement, seeded, from a pool
of corpus sources and completions generated during set-up, so lint
requests mix memo reads (the daemon's ``lint-reports`` namespace) with
fresh analyses.  Every request is timed from the moment it was due, so a
stall also charges the requests queued behind it; the generator's own
lateness is reported separately.

Expected bodies come from ``execute_check``/``execute_lint`` run
directly in this process during set-up (store off, so ``served_from``,
which depends on the daemon's store, is left out of the comparison).
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from .stats import nearest_rank
from .workloads import Op, Outcome, fresh_dir

_ANNOUNCE = re.compile(r"listening on http://([\w.\-]+):(\d+)")

#: the fixed offered rate of the measured phase (requests/s): low enough
#: that the daemon stays under half busy even on a slowed core, where
#: queueing would turn small speed changes into large latency changes
RATE = 90.0
#: the rate ladder probed for max_rate_rps, and its p99 limit
LADDER = (200.0, 400.0, 600.0, 800.0)
P99_LIMIT_S = 0.025
#: share of the window spent on the fixed-rate phase (rest: the ladder)
MAIN_SHARE = 0.8
#: time slices of the fixed-rate phase the gated median is the lowest of
SLICES = 6
CONNECTIONS = 2


class Daemon:
    """A ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, root: Path, store_dir: Path, spans_out: Path | None):
        env = dict(os.environ)
        env["REPRO_STORE_DIR"] = str(store_dir)
        env["PYTHONPATH"] = str(root / "src")
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro", "serve"]
        else:
            cmd = [sys.executable, str(root / "perfbench" / "served.py"),
                   "--spans-out", str(spans_out), "--", "serve"]
        cmd += ["--port", "0", "--workers", "2",
                "--spool-dir", str(store_dir / "spool")]
        self.spans_out = spans_out
        self.proc = subprocess.Popen(cmd, env=env, cwd=root,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.STDOUT, text=True)
        deadline = time.monotonic() + 60
        while True:
            line = self.proc.stdout.readline()
            match = _ANNOUNCE.search(line)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                break
            if not line or time.monotonic() > deadline:
                self.proc.kill()
                self.proc.wait()
                self.proc.stdout.close()
                raise RuntimeError("repro serve never announced its port")
        # keep draining output so the daemon never blocks on a full pipe
        self._drain = threading.Thread(target=self.proc.stdout.read,
                                       daemon=True)
        self._drain.start()

    def peak_rss_mb(self) -> float | None:
        try:
            status = Path(f"/proc/{self.proc.pid}/status").read_text()
        except OSError:
            return None
        match = re.search(r"VmHWM:\s+(\d+) kB", status)
        return int(match.group(1)) / 1024 if match else None

    def toggle_tracing(self) -> None:
        self.proc.send_signal(signal.SIGUSR1)

    def stop(self) -> dict | None:
        """Stop the daemon and wait for it; returns its span summary
        when it was traced."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._drain.join(timeout=5)
        self.proc.stdout.close()
        if self.spans_out is not None and self.spans_out.exists():
            return json.loads(self.spans_out.read_text())
        return None


class Connection:
    """One keep-alive HTTP/1.1 client connection."""

    def __init__(self, reader, writer, host):
        self.reader, self.writer, self.host = reader, writer, host

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, host)

    async def request(self, method: str, path: str,
                      body: bytes = b"") -> tuple[int, bytes]:
        head = (f"{method} {path} HTTP/1.1\r\nhost: {self.host}\r\n"
                "content-type: application/json\r\n"
                f"content-length: {len(body)}\r\n\r\n")
        self.writer.write(head.encode("ascii") + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        return status, await self.reader.readexactly(length)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _phase(conns, schedule, offset: int, rate: float,
                 seconds: float):
    """Send ``schedule`` entries from ``offset`` (a multiple of
    :data:`CONNECTIONS`) on at ``rate`` for ``seconds``, one entry per
    connection at each due time; returns ``(due, sent, done, status,
    body, entry)`` per request."""
    count = max(1, int(rate * seconds) // CONNECTIONS) * CONNECTIONS
    entries = [schedule[(offset + i) % len(schedule)]
               for i in range(count)]
    start = time.perf_counter() + 0.01
    results: list = [None] * count

    async def worker(lane: int):
        conn = conns[lane]
        for i in range(lane, count, CONNECTIONS):
            due = start + (i - lane) / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = time.perf_counter()
            endpoint, body = entries[i][0], entries[i][2]
            try:
                status, blob = await conn.request("POST", endpoint, body)
            except (ConnectionError, OSError, asyncio.IncompleteReadError,
                    ValueError, IndexError):
                status, blob = 0, b""
            results[i] = (due, sent, time.perf_counter(), status, blob,
                          entries[i])

    await asyncio.gather(*(worker(lane) for lane in range(CONNECTIONS)))
    return results


def _strip(body: dict) -> dict:
    return {k: v for k, v in body.items() if k != "served_from"}


class ServeCheckLint:
    """Open-loop check/lint load against ``python -m repro serve``."""

    name = "serve_check_lint"
    #: set-up is short and its first repetition pays lazy imports
    reps = 5
    corpus_samples_per_family = 8
    pool_size = 160

    def setup(self, seed: int, workdir: Path):
        from repro.corpus.generator import build_corpus
        from repro.llm.model import HDLCoder
        from repro.scenarios.registry import CORPORA, load_components
        from repro.serve.schema import CheckRequest, LintRequest
        from repro.serve.service import execute_check, execute_lint
        from repro.vereval.problems import default_problems

        load_components()
        corpus = build_corpus(CORPORA.create(
            "default", samples_per_family=self.corpus_samples_per_family,
            seed=3000 + seed))
        model = HDLCoder().fit(corpus)
        completions = [g.code for problem in default_problems()
                       for g in model.generate_n(problem.prompt, 10,
                                                 seed=seed)]
        sources = list(dict.fromkeys([s.code for s in corpus]
                                     + completions))
        rng = random.Random(seed)
        rng.shuffle(sources)
        sources = sources[:self.pool_size]
        schedule = []
        expected: dict[tuple[str, int], dict] = {}
        for i in range(4096):
            index = rng.randrange(len(sources))
            # a pair of checks, then a pair of lints (see _phase)
            endpoint = ("/v1/check" if i // CONNECTIONS % 2 == 0
                        else "/v1/lint")
            body = json.dumps({"source": sources[index]}).encode()
            key = (endpoint, index)
            if key not in expected:
                if endpoint == "/v1/check":
                    response = execute_check(CheckRequest(sources[index]))
                else:
                    response = execute_lint(LintRequest(sources[index]))
                expected[key] = _strip(json.loads(json.dumps(
                    response.to_dict(), sort_keys=True)))
            schedule.append((endpoint, index, body))
        store_dir = fresh_dir(workdir, "serve-store-")
        spans_out = (store_dir / "spans.json") if self.trace else None
        daemon = Daemon(self.root, store_dir, spans_out)
        return {"daemon": daemon, "store_dir": store_dir,
                "schedule": schedule, "expected": expected}

    @staticmethod
    def _check(results, expected) -> list[Op]:
        """Verify every response; time each request from its due time."""
        ops = []
        for due, _sent, done, status, blob, entry in results:
            ok = status == 200
            if ok:
                try:
                    ok = _strip(json.loads(blob)) == expected[entry[:2]]
                except (ValueError, KeyError):
                    ok = False
                if ok and entry[0] == "/v1/lint":
                    ok = json.loads(blob).get("served_from") in (
                        "memo", "computed")
            if not ok:
                print(f"bad response to {entry[0]} (status {status})",
                      file=sys.stderr)
            ops.append(Op(done - due if ok else float("inf"), ok, False,
                          entry[0]))
        return ops

    async def _run(self, state, seconds: float, trace: bool) -> Outcome:
        daemon, schedule = state["daemon"], state["schedule"]
        conns = [await Connection.open(daemon.host, daemon.port)
                 for _ in range(CONNECTIONS)]
        out = Outcome()
        try:
            main_s = seconds * MAIN_SHARE
            if trace:
                # untraced half, then the same rate with the daemon's
                # tracer on; the stats snapshots bracket the traced half
                first = await _phase(conns, schedule, 0, RATE, main_s / 2)
                before = await self._stats(conns[0])
                daemon.toggle_tracing()
                await asyncio.sleep(0.05)
                second = await _phase(conns, schedule, len(first), RATE,
                                      main_s / 2)
                after = await self._stats(conns[0])
                out.ops = self._check(first, state["expected"])
                traced = self._check(second, state["expected"])
                for op in traced:
                    op.traced = True
                out.ops += traced
                out.extra["main"] = first + second
                out.server_stats = (before, after)
            else:
                results = await _phase(conns, schedule, 0, RATE, main_s)
                offset = len(results)
                out.ops = self._check(results, state["expected"])
                out.extra["main"] = results
                out.server_stats = (None, await self._stats(conns[0]))
                rung_s = seconds * (1 - MAIN_SHARE) / len(LADDER)
                ladder = []
                for rate in LADDER:
                    rung = await _phase(conns, schedule, offset, rate,
                                        rung_s)
                    offset += len(rung)
                    rung_ops = self._check(rung, state["expected"])
                    latencies = [op.seconds for op in rung_ops]
                    p99 = nearest_rank(latencies, 99)
                    last_done = max(r[2] for r in rung)
                    # a growing backlog finishes well after the last due
                    backlog = last_done - rung[-1][0] > P99_LIMIT_S
                    ladder.append({"rate": rate, "p99_s": p99,
                                   "n": len(latencies),
                                   "ok": p99 <= P99_LIMIT_S
                                   and not backlog})
                    out.ops += [Op(op.seconds, op.ok, False, "ladder")
                                for op in rung_ops]
                out.extra["ladder"] = ladder
        finally:
            for conn in conns:
                await conn.close()
        return out

    @staticmethod
    async def _stats(conn) -> dict:
        status, blob = await conn.request("GET", "/v1/stats")
        if status != 200:
            raise RuntimeError(f"/v1/stats answered {status}")
        return json.loads(blob)

    def measure(self, state, seconds, tracer, trace) -> Outcome:
        out = asyncio.run(self._run(state, seconds, trace))
        out.peak_rss_mb = state["daemon"].peak_rss_mb()
        out.remote_spans = state["daemon"].stop()
        return out

    def close(self, state) -> None:
        state["daemon"].stop()
        shutil.rmtree(state["store_dir"], ignore_errors=True)
