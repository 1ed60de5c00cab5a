"""The ``serve-mixed`` workload: a closed loop against ``repro serve``.

Two client connections drive one ``repro serve --workers 2`` process over
loopback.  Each client sends its next request only after the previous
reply arrived.  The traffic reuses a few hot cluster keys at small n:
connectivity and MST reads plus ``mst_dynamic`` update streams (the
writes).  The mix is a seeded shuffle of a fixed block, so every run sends
the same proportions.  Four fifths of the requests are connectivity
reads, which keeps the median inside one mode of the latency distribution
while the MST and update requests form the tail (see ``BLOCK``).

Hot keys are picked so that each worker owns as many keys of every size: the
worker a key lands on is read from the warm-up replies (``service.worker``).
Without that, the seed would decide how unevenly the two workers are
loaded, and the run-to-run spread would measure the hash, not the server.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import HERE, SRC, Outcome, layer_metrics, p95, peak_rss_mb

K = 4
WORKERS = 2
CLIENTS = 2
#: Hot keys per size that each worker owns; more keys average out how
#: much work one particular graph happens to need.
KEYS_PER_WORKER = 3
#: Candidate keys tried per size before giving up on a balanced choice.
MAX_CANDIDATES = 32
#: Requests per hot key of each size in one block of the mix.  Shares:
#: connectivity 40% + 40%, MST 5% + 5%, updates 10% (n=256 only).  The
#: median falls inside the n=256 connectivity reads and the 95th
#: percentile in the middle of the update requests, never on the edge
#: between two modes, where it would jump from run to run.
BLOCK = {
    128: ("connectivity",) * 8 + ("mst",),
    256: ("connectivity",) * 8 + ("mst",) + ("mst_dynamic",) * 2,
}
#: Cache bounds, above every distinct key a run can touch, so nothing is
#: evicted and cache counts repeat exactly.
CACHE_BOUND = 4 * MAX_CANDIDATES * len(BLOCK)
#: Distinct update streams per hot key.
PLAN_SEEDS = 2
REQUEST_TIMEOUT_S = 60.0
START_TIMEOUT_S = 60.0
#: Server starts per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def update_plan(plan_seed: int) -> dict:
    """One write: a mixed batch, then deletions of current forest edges."""
    return {
        "batches": [
            {"kind": "mix", "size": 16, "insert_fraction": 0.5},
            {"kind": "tree_delete", "size": 4, "insert_fraction": 0.5},
        ],
        "edge_bits": 96,
        "sketch_word_bits": 64,
        "seed": plan_seed,
    }


def make_request(algorithm: str, n: int, key_seed: int, plan_seed: int = 0):
    from repro.service.protocol import RunRequest

    updates = update_plan(plan_seed) if algorithm == "mst_dynamic" else None
    return RunRequest(
        algorithm=algorithm, family="gnm", n=n, seed=key_seed, k=K, updates=updates
    ).validate()


# -- the server process ----------------------------------------------------------


class Server:
    """One ``repro serve`` child process on an ephemeral loopback port."""

    def __init__(self, tmp: Path, tag: str, spans_out: Path | None = None) -> None:
        self.port_file = tmp / f"port-{tag}"
        self.log = tmp / f"server-{tag}.log"
        serve_args = [
            "--host", "127.0.0.1", "--port", "0", "--port-file", str(self.port_file),
            "--workers", str(WORKERS), "--max-clusters", str(CACHE_BOUND),
            "--graph-cache", str(CACHE_BOUND), "--corpus-root", str(tmp / "corpus"),
        ]
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            cmd = [sys.executable, str(HERE / "traced_serve.py"), str(spans_out), *serve_args]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                cmd, env=env, stdout=subprocess.DEVNULL, stderr=log, cwd=str(tmp)
            )
        deadline = time.monotonic() + START_TIMEOUT_S
        while not self._ready():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.kill()
                raise RuntimeError(f"server did not start: {self.log.read_text()[-2000:]}")
            time.sleep(0.01)
        host, port = self.port_file.read_text().split()
        self.host, self.port = host, int(port)

    def _ready(self) -> bool:
        try:
            return len(self.port_file.read_text().split()) == 2
        except FileNotFoundError:
            return False

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Ask for a graceful shutdown and wait for the process to end."""
        try:
            asyncio.run(call(self.host, self.port, {"op": "shutdown", "id": "stop"}))
            code = self.proc.wait(timeout=30)
        finally:
            self.kill()
        if code != 0:
            raise RuntimeError(f"server exited {code}: {self.log.read_text()[-2000:]}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


async def call(host: str, port: int, message: dict) -> dict:
    """One request on a fresh connection; the final reply frame."""
    from repro.service.protocol import read_frame, write_frame

    reader, writer = await asyncio.open_connection(host, port)
    try:
        await write_frame(writer, message)
        return await asyncio.wait_for(read_frame(reader), REQUEST_TIMEOUT_S)
    finally:
        writer.close()
        await writer.wait_closed()


async def drive(host: str, port: int, requests, deadline: float | None) -> list[tuple]:
    """Closed loop: each client sends its next request after the last reply.

    ``requests`` is an iterator shared by the clients; with a ``deadline``
    (``time.perf_counter()`` value) no request starts after it.  Returns
    ``(request, latency_s, reply, end_time)`` per request.
    """
    from repro.service.protocol import read_frame, write_frame

    done: list[tuple] = []

    async def client() -> None:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            for request in requests:
                t0 = time.perf_counter()
                await write_frame(writer, {"op": "run", "id": len(done),
                                           "request": request.to_dict()})
                reply = await asyncio.wait_for(read_frame(reader), REQUEST_TIMEOUT_S)
                t1 = time.perf_counter()
                done.append((request, t1 - t0, reply, t1))
                if deadline is not None and t1 >= deadline:
                    break
        finally:
            writer.close()
            await writer.wait_closed()

    await asyncio.gather(*(client() for _ in range(CLIENTS)))
    return done


# -- the workload ----------------------------------------------------------------


class Mix:
    """Hot keys and the seeded request stream over them."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed * 1_000_003 + 2)
        self.candidates = {n: [self.rng.randrange(1 << 31) for _ in range(MAX_CANDIDATES)]
                           for n in BLOCK}
        self.keys: list[tuple[int, int]] = []

    def choose_keys(self, host: str, port: int) -> list[tuple]:
        """Warm candidates until each worker owns ``KEYS_PER_WORKER`` keys per size."""
        replies = []
        for n in BLOCK:
            owned = [0] * WORKERS
            for key_seed in self.candidates[n]:
                (reply,) = asyncio.run(drive(host, port, iter([make_request(
                    "connectivity", n, key_seed)]), None))
                replies.append(reply)
                worker = ((reply[2] or {}).get("service") or {}).get("worker")
                if worker is not None and owned[worker] < KEYS_PER_WORKER:
                    owned[worker] += 1
                    self.keys.append((n, key_seed))
                if min(owned) == KEYS_PER_WORKER:
                    break
        return replies

    def warmup(self, with_connectivity: bool) -> list:
        """Build every hot key's graph and cluster, and run each algorithm once.

        Graph and cluster caches are shared by all algorithms on a key, so
        one connectivity request per key makes the key hot; one MST and one
        update request on the last key finish the first-run set-up.
        """
        warm = [make_request("connectivity", n, s) for n, s in self.keys] if (
            with_connectivity) else []
        n, s = self.keys[-1]
        return warm + [make_request("mst", n, s), make_request("mst_dynamic", n, s)]

    def stream(self):
        """Endless seeded shuffles of one block per hot key."""
        block = [(a, n, s) for n, s in self.keys for a in BLOCK[n]]
        writes = 0
        while True:
            self.rng.shuffle(block)
            for algorithm, n, key_seed in block:
                plan_seed = 0
                if algorithm == "mst_dynamic":
                    plan_seed = writes % PLAN_SEEDS
                    writes += 1
                yield make_request(algorithm, n, key_seed, plan_seed)


class References:
    """Expected answers from ``repro.graphs.reference``, cached per request."""

    def __init__(self) -> None:
        self._graphs: dict[str, object] = {}
        self._answers: dict[str, tuple] = {}

    def check(self, request, reply: dict) -> bool:
        if not reply or not reply.get("ok"):
            return False
        result = reply["report"]["result"]
        want = self._expected(request)
        if request.algorithm == "connectivity":
            return result["labels"] == want[0]
        if request.algorithm == "mst":
            return bool(result["converged"]) and math.isclose(
                result["total_weight"], want[0], rel_tol=1e-9)
        return (
            bool(result["initial_converged"])
            and math.isclose(result["initial_total_weight"], want[0], rel_tol=1e-9)
            and math.isclose(result["total_weight"], want[1], rel_tol=1e-9)
            and result["labels"] == want[2]
        )

    def _expected(self, request) -> tuple:
        from repro.core.dynamic import MaintainedForest, generate_batch
        from repro.graphs import reference
        from repro.scenarios.updates import UpdatePlan, batch_seed

        key = json.dumps([request.graph_key(), request.algorithm, request.updates],
                         sort_keys=True)
        if key in self._answers:
            return self._answers[key]
        graph = self._graphs.get(request.graph_key())
        if graph is None:
            graph = self._graphs[request.graph_key()] = request.build_graph()
        if request.algorithm == "connectivity":
            answer = (reference.connected_components(graph).tolist(),)
        elif request.algorithm == "mst":
            answer = (reference.mst_weight(graph),)
        else:
            # Replay the update stream to get the final edge set; the
            # maintained forest must then match Kruskal on that edge set.
            plan = UpdatePlan.from_dict(request.updates)
            state = MaintainedForest(graph)
            for i, batch in enumerate(plan.batches):
                generate_batch(state, batch, batch_seed(plan.base_seed(request.seed), i))
            final = state.as_graph()
            answer = (reference.mst_weight(graph), reference.mst_weight(final),
                      reference.connected_components(final).tolist())
        self._answers[key] = answer
        return answer


def _timed(server: Server, mix: Mix, seconds: float) -> tuple[list[tuple], float]:
    t_start = time.perf_counter()
    done = asyncio.run(drive(server.host, server.port, mix.stream(), t_start + seconds))
    return done, max(r[3] for r in done) - t_start


def _setup(tmp: Path, tag: str, mix: Mix, spans_out: Path | None = None):
    """Start a server and warm every hot key; return it with the warm-up replies."""
    server = Server(tmp, tag, spans_out)
    try:
        replies = [] if mix.keys else mix.choose_keys(server.host, server.port)
        warm = mix.warmup(with_connectivity=not replies)
        replies += asyncio.run(drive(server.host, server.port, iter(warm), None))
    except BaseException:
        server.kill()
        raise
    return server, replies


def _ok(done: list[tuple]) -> list[tuple]:
    """The exchanges that got an ``ok`` reply."""
    return [r for r in done if r[2] and r[2].get("ok")]


def _service_metrics(server: Server, done: list[tuple]) -> dict[str, tuple[float, str]]:
    stats = asyncio.run(call(server.host, server.port, {"op": "stats", "id": "stats"}))["stats"]
    served = [(latency, reply["service"]) for _, latency, reply, _ in _ok(done)]
    walls = [s["wall_time_s"] for _, s in served]
    waits = [latency - s["wall_time_s"] for latency, s in served]
    per_worker = [0] * WORKERS
    for _, s in served:
        per_worker[s["worker"]] += 1

    def ratio(section: dict) -> float:
        total = section["hits"] + section["misses"]
        return section["hits"] / total if total else 0.0

    return {
        "service.server_wall_s": (statistics.median(walls), "s"),
        "service.queue_wait_s": (statistics.median(waits), "s"),
        "service.coalesce_hit_ratio": (ratio(stats["clusters"]), "ratio"),
        "service.graph_hit_ratio": (ratio(stats["graphs"]), "ratio"),
        "service.worker_skew": (max(per_worker) / max(1, min(per_worker)), "ratio"),
    }


def run_serve(workload: str, seed: int, seconds: float, traced: bool, tmp: Path) -> Outcome:
    """Measure ``serve-mixed`` (see module docstring)."""
    import spans

    out = Outcome()
    refs = References()
    mix = Mix(seed)

    def check_all(replies: list[tuple]) -> None:
        for request, _lat, reply, _t in replies:
            out.check(refs.check(request, reply),
                      f"{request.algorithm} n={request.n} seed={request.seed}: "
                      f"{(reply or {}).get('error') or 'differs from the reference'}")

    if not traced:
        setup_times = []
        server = None
        try:
            for i in range(SETUP_REPEATS):
                if server is not None:
                    server.stop()
                    server = None
                t0 = time.perf_counter()
                server, replies = _setup(tmp, str(i), mix)
                setup_times.append(time.perf_counter() - t0)
                check_all(replies)
            done, wall = _timed(server, mix, seconds)
            peak = server.peak_rss_mb()
        finally:
            if server is not None:
                server.stop()
        check_all(done)
        latencies = [r[1] for r in done]
        out.metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "op_p50_s": (statistics.median(latencies), "s"),
            "op_p95_s": (p95(latencies), "s"),
            "throughput_ops": (len(done) / wall, "1/s"),
            "peak_rss_mb": (peak, "MiB"),
        }
        print(f"  requests timed = {len(done)}; beyond p95 = {len(done) // 20}")
        return out

    # Traced: half the time untraced, half with the wrappers in the server.
    server, replies = _setup(tmp, "plain", mix)
    try:
        check_all(replies)
        plain, _ = _timed(server, mix, seconds / 2)
        service = _service_metrics(server, plain)
    finally:
        server.stop()
    spans_out = tmp / "spans.json"
    server, replies = _setup(tmp, "traced", mix, spans_out)
    try:
        check_all(replies)
        boundary = time.monotonic_ns()
        traced_done, _ = _timed(server, mix, seconds / 2)
    finally:
        server.stop()
    check_all(plain + traced_done)

    dump = json.loads(spans_out.read_text())
    missing = spans.missing_targets(dump["fired"], workload)
    out.check(not missing, f"wrappers never fired: {', '.join(missing)}")
    agg = spans.aggregate(dump["spans"], lambda root: "setup" if root[4] < boundary else "op")
    out.metrics = layer_metrics(agg, len(traced_done))
    warm = [reply["report"]["ledger"] for _, _, reply, _ in _ok(replies)]
    out.metrics["cluster.rounds"] = (float(sum(x["rounds"] for x in warm)), "count")
    out.metrics["cluster.total_bits"] = (float(sum(x["total_bits"] for x in warm)), "count")
    out.metrics.update(service)
    overhead = (statistics.median([r[1] for r in traced_done])
                - statistics.median([r[1] for r in plain]))
    out.metrics["trace.overhead_s"] = (overhead, "s")
    return out
