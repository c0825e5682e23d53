#!/usr/bin/env python3
"""Closed-loop private-retrieval benchmark for iplt over loopback TCP.

This process is the one client.  It starts `iplt serve` (through
iplt.cli.main) in a child process over a store written with store_save,
then keeps one request outstanding: build_query -> wire.fetch -> recover.
Every recovered result is compared with V @ X_W computed from the generated
store, and every query must pass audit_individual_privacy; a wrong result
or a failed audit exits with status 1 and prints no result.

    python3 bench/run.py --workload tiny-rpc --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics.  --trace 1 first measures an
untraced baseline, then records spans around every call into the package
from this file and reports the per-layer metrics.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  bench/README.md lists the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import selectors
import signal
import statistics
import subprocess
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"

if not (SRC / "iplt" / "__init__.py").is_file():
    sys.exit(f"bench: no iplt sources under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import iplt.protocol  # noqa: E402
import iplt.wire  # noqa: E402
from iplt.audit import audit_individual_privacy  # noqa: E402
from iplt.errors import (  # noqa: E402
    CompletionFailed,
    IpltError,
    MalformedPayload,
    RemoteError,
)
from iplt.protocol import (  # noqa: E402
    Demand,
    ProtocolParams,
    answer,
    build_query,
    derive_params,
    recover,
)
from iplt.store import MessageStore, store_load, store_save  # noqa: E402
from iplt.wire import (  # noqa: E402
    decode_answer,
    decode_query,
    encode_answer,
    encode_query,
    fetch,
)


@dataclass(frozen=True)
class Workload:
    K: int
    D: int
    L: int
    q: int
    N: int


# Why each shape is here is in README.md and BENCHMARK.json.
WORKLOADS = {
    "planted-gf17": Workload(K=10, D=7, L=3, q=17, N=1),
    "bulk-k2000": Workload(K=2000, D=50, L=5, q=65521, N=4),
    "tiny-rpc": Workload(K=24, D=8, L=2, q=17, N=1),
}

MIN_RETRIEVALS = 100  # an untraced run never stops sooner: p90 keeps ten samples beyond it
SETUPS = 5  # set-ups per run; setup_s is their median
WARMUP = 5  # checked, untimed retrievals before measuring
BASELINE_SHARE = 1 / 3  # part of a traced run measured untraced, for the overhead
HARD_LIMIT_S = 150.0  # no loop measures longer than this
READY_TIMEOUT_S = 60.0
FRAME_OVERHEAD = 5  # 4-byte length prefix plus the kind byte
MATRIX_CALLS = (
    "mds_complete",
    "generator_from_parity",
    "right_null_space",
    "solve",
    "random_grs",
)
FETCH_ERRORS = ("RemoteError", "MalformedPayload", "OSError", "other")
REPLAYED = (
    "wire.encode_query",
    "wire.decode_query",
    "protocol.answer",
    "wire.encode_answer",
    "wire.decode_answer",
)
SERVE_MAIN = "import sys; from iplt.cli import main; sys.exit(main(sys.argv[1:]))"

END_TO_END_UNITS = {
    "setup_s": "s",
    "retrieve_p50_s": "s",
    "retrieve_p90_s": "s",
    "retrievals_per_s": "1/s",
    "audit_p50_s": "s",
    "upload_bytes_per_retrieval": "B",
    "download_bytes_per_retrieval": "B",
    "client_peak_rss_mb": "MB",
    "server_peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not run: the server would not start or stopped."""


class CorrectnessError(Exception):
    """A recovery was wrong or a privacy audit failed."""


# -- tracing ------------------------------------------------------------------

CALLS, BUSY, SELF = 0, 1, 2  # columns of a Tracer.summary() row
NO_SPAN = (0, 0.0, 0.0)


class Tracer:
    """Spans kept in memory as (name, start, end, parent index, request id)."""

    def __init__(self) -> None:
        self.spans: list = []
        self.request = -1
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else -1
        self._open.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[idx] = (name, start, end, parent, self.request)

    def wrap(self, name: str, fn):
        """fn, recorded as a span only when called inside an open span."""

        def traced(*args, **kwargs):
            if not self._open:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def summary(self) -> dict[str, list]:
        """name -> [calls, busy seconds, self seconds]."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, list] = {}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[CALLS] += 1
            row[BUSY] += end - start
            row[SELF] += end - start - covered[idx]
        return out

    def write(self, path: Path, provenance: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# " + json.dumps(provenance, sort_keys=True) + "\n")
            fh.write("name\tstart\tend\tparent\trequest\n")
            for name, start, end, parent, request in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{request}\n")


class NoTracer:
    """Tracing off: every span is the same reusable no-op context."""

    request = -1
    _null = nullcontext()

    def span(self, name: str):
        return self._null


@contextmanager
def patched(module, wrappers: dict):
    """Replace each named module attribute by wrapper(original) for a while."""
    saved = {name: getattr(module, name) for name in wrappers}
    for name, original in saved.items():
        setattr(module, name, wrappers[name](original))
    try:
        yield
    finally:
        for name, original in saved.items():
            setattr(module, name, original)


@dataclass
class FrameBytes:
    """Bytes of the frames fetch sends and receives, framing included."""

    up: int = 0
    down: int = 0

    def wrappers(self) -> dict:
        def count_send(send):
            def counted(sock, kind, payload):
                self.up += len(payload) + FRAME_OVERHEAD
                return send(sock, kind, payload)

            return counted

        def count_recv(recv):
            def counted(sock):
                kind, payload = recv(sock)
                self.down += len(payload) + FRAME_OVERHEAD
                return kind, payload

            return counted

        return {"send_frame": count_send, "recv_frame": count_recv}


# -- the server child ---------------------------------------------------------


class ServerProcess:
    """`iplt serve` in a child process, ready once it prints its endpoint."""

    def __init__(self, store_path: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-c", SERVE_MAIN, "serve",
             "--store", str(store_path), "--addr", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            env=env,
            cwd=ROOT,
        )
        try:
            self.endpoint = self._await_listening()
        except BaseException:
            self.stop()
            raise

    def _await_listening(self) -> str:
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(READY_TIMEOUT_S):
                raise BenchError(f"server printed nothing within {READY_TIMEOUT_S} s")
        line = self.proc.stdout.readline().decode("utf-8", errors="replace")
        prefix = "listening on "
        if not line.startswith(prefix):
            raise BenchError(f"server did not start: {line.strip()!r}")
        return line[len(prefix):].strip()

    def peak_rss_mb(self) -> float:
        """The child's own peak RSS (VmHWM), read while it still runs.

        getrusage(RUSAGE_CHILDREN) cannot give this: exec carries the
        spawning client's high-water mark into the child's ru_maxrss.
        """
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kib = next(ln.split()[1] for ln in status.splitlines() if ln.startswith("VmHWM:"))
        return int(kib) / 1024

    def alive(self) -> bool:
        return self.proc.poll() is None

    def stop(self) -> None:
        """SIGINT, so cmd_serve closes its socket; kill after 10 s."""
        if self.alive():
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# -- one run ------------------------------------------------------------------


@dataclass
class Stats:
    latencies: list = field(default_factory=list)
    audits: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: dict = field(default_factory=dict)
    fetch_errors: dict = field(default_factory=dict)
    up_bytes: int = 0
    down_bytes: int = 0
    candidates: int = 0
    wall_s: float = 0.0

    def fail(self, name: str, fetch_bucket: str | None = None) -> None:
        self.failed += 1
        self.errors[name] = self.errors.get(name, 0) + 1
        if fetch_bucket is not None:
            self.fetch_errors[fetch_bucket] = self.fetch_errors.get(fetch_bucket, 0) + 1


@dataclass
class Context:
    seed: int
    params: ProtocolParams
    store: MessageStore
    server: ServerProcess
    frames: FrameBytes


def retrieve_one(ctx: Context, i: int, tr, stats: Stats, replay: bool) -> None:
    """One closed-loop retrieval, checked and audited; failures are counted."""
    params = ctx.params
    rng = random.Random(f"{ctx.seed}:{i}")
    demand = Demand.random(params, rng)
    tr.request = i
    stats.attempted += 1
    up0, down0 = ctx.frames.up, ctx.frames.down
    t0 = perf_counter()
    with tr.span("retrieve"):
        try:
            with tr.span("protocol.build_query"):
                query, secret = build_query(demand, params, rng)
        except CompletionFailed:
            stats.fail("CompletionFailed")
            return
        try:
            with tr.span("wire.fetch"):
                ans = fetch(ctx.server.endpoint, query)
        except (IpltError, OSError) as exc:
            stats.fail(type(exc).__name__, fetch_error_bucket(exc))
            if not ctx.server.alive():
                raise BenchError("server exited during the run") from exc
            return
        with tr.span("protocol.recover"):
            got = recover(ans, secret, params, demand)
    latency = perf_counter() - t0
    if got != demand.value(ctx.store.X):
        raise CorrectnessError(f"request {i}: recovered rows differ from V @ X_W")
    t1 = perf_counter()
    with tr.span("audit.audit_individual_privacy"):
        report = audit_individual_privacy(query, params, demand)
    audit_s = perf_counter() - t1
    if not (report.ok and report.true_support_found):
        raise CorrectnessError(f"request {i}: privacy audit failed\n{report.summary()}")
    stats.latencies.append(latency)
    stats.audits.append(audit_s)
    stats.candidates += report.candidate_count
    stats.up_bytes += ctx.frames.up - up0
    stats.down_bytes += ctx.frames.down - down0
    if replay:
        replay_server(ctx, query, ans, tr)


def replay_server(ctx: Context, query, ans, tr) -> None:
    """Run the server's stages in process, outside the retrieval span."""
    with tr.span("replay"):
        with tr.span("wire.encode_query"):
            payload = encode_query(query)
        with tr.span("wire.decode_query"):
            decoded = decode_query(payload)
        with tr.span("protocol.answer"):
            local = answer(decoded, ctx.store.X)
        with tr.span("wire.encode_answer"):
            reply = encode_answer(local)
        with tr.span("wire.decode_answer"):
            back = decode_answer(reply, query.G.q)
    if back != ans:
        raise CorrectnessError("the server's answer differs from the in-process replay")


def run_loop(ctx: Context, first: int, seconds: float, min_count: int, tr, replay: bool) -> tuple[Stats, int]:
    """Retrieve until `seconds` have passed and `min_count` succeeded."""
    stats = Stats()
    i = first
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if elapsed >= seconds and len(stats.latencies) >= min_count:
            break
        if elapsed >= HARD_LIMIT_S:
            raise BenchError(
                f"{len(stats.latencies)} of {min_count} retrievals done in {HARD_LIMIT_S} s"
            )
        retrieve_one(ctx, i, tr, stats, replay)
        i += 1
    stats.wall_s = perf_counter() - start
    return stats, i


def setup(name: str, seed: int, path: Path, reps: int) -> tuple[ServerProcess, MessageStore, dict]:
    """Generate and save the store, start the server; repeated, the last one kept."""
    wl = WORKLOADS[name]
    times: dict = {"setup_s": [], "store.save_s": [], "cli.serve.ready_s": []}
    for rep in range(reps):
        t0 = perf_counter()
        store = MessageStore.random(wl.q, wl.K, wl.N, random.Random(f"{name}:{seed}:store"))
        t1 = perf_counter()
        store_save(store, path)
        t2 = perf_counter()
        server = ServerProcess(path)
        t3 = perf_counter()
        times["setup_s"].append(t3 - t0)
        times["store.save_s"].append(t2 - t1)
        times["cli.serve.ready_s"].append(t3 - t2)
        if rep < reps - 1:
            server.stop()
    return server, store, {k: statistics.median(v) for k, v in times.items()}


def git_commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end_metrics(stats: Stats, set_up: dict) -> dict:
    done = len(stats.latencies)
    return {
        "setup_s": set_up["setup_s"],
        "retrieve_p50_s": statistics.median(stats.latencies),
        "retrieve_p90_s": statistics.quantiles(stats.latencies, n=10)[-1],
        "retrievals_per_s": done / stats.wall_s,
        "audit_p50_s": statistics.median(stats.audits),
        "upload_bytes_per_retrieval": stats.up_bytes / done,
        "download_bytes_per_retrieval": stats.down_bytes / done,
    }


def fetch_error_bucket(exc: Exception) -> str:
    """The wire.fetch.errors.* counter a failed fetch goes into."""
    for cls in (RemoteError, MalformedPayload):
        if isinstance(exc, cls):
            return cls.__name__
    return "OSError" if isinstance(exc, OSError) else "other"


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    return "count"


def per_layer_metrics(spans: dict, stats: Stats, base: Stats, set_up: dict, store_info: dict) -> dict:
    """The per_layer metrics, from a Tracer summary and the traced loop's stats."""

    def col(name: str, i: int):
        return spans.get(name, NO_SPAN)[i]

    m = {
        "retrieve.busy_s": col("retrieve", BUSY),
        "protocol.build_query.busy_s": col("protocol.build_query", BUSY),
        "protocol.build_query.self_s": col("protocol.build_query", SELF),
        "protocol.build_query.calls": col("protocol.build_query", CALLS),
        "protocol.build_query.completion_failed": stats.errors.get("CompletionFailed", 0),
        "protocol.answer.busy_s": col("protocol.answer", BUSY),
        "protocol.recover.busy_s": col("protocol.recover", BUSY),
    }
    for n in MATRIX_CALLS:
        m[f"matrix.{n}.busy_s"] = col(f"matrix.{n}", BUSY)
        m[f"matrix.{n}.calls"] = col(f"matrix.{n}", CALLS)
    for n in ("encode_query", "decode_query", "encode_answer", "decode_answer", "fetch"):
        m[f"wire.{n}.busy_s"] = col(f"wire.{n}", BUSY)
    m["wire.transport.self_s"] = col("wire.fetch", BUSY) - sum(col(n, BUSY) for n in REPLAYED)
    for n in FETCH_ERRORS:
        m[f"wire.fetch.errors.{n}"] = stats.fetch_errors.get(n, 0)
    m["wire.upload_bytes"] = stats.up_bytes
    m["wire.download_bytes"] = stats.down_bytes
    m["audit.audit_individual_privacy.busy_s"] = col("audit.audit_individual_privacy", BUSY)
    m["audit.candidates"] = stats.candidates
    m["store.save_s"] = set_up["store.save_s"]
    m["store.load_s"] = store_info["load_s"]
    m["store.file_bytes"] = store_info["file_bytes"]
    m["cli.serve.ready_s"] = set_up["cli.serve.ready_s"]
    m["trace.retrieve_p50_s"] = statistics.median(stats.latencies)
    m["trace.overhead_s"] = m["trace.retrieve_p50_s"] - statistics.median(base.latencies)
    return m


def module_shares(m: dict) -> dict:
    """Each module's share of retrieval time, from the per_layer metrics.

    The server's stages are the in-process replay; transport is what fetch
    spends beyond them, and "other" is the glue inside the retrieval span.
    """
    matrix = sum(m[f"matrix.{n}.busy_s"] for n in MATRIX_CALLS)
    codecs = sum(
        m[f"wire.{n}.busy_s"]
        for n in ("encode_query", "decode_query", "encode_answer", "decode_answer")
    )
    seconds = {
        "protocol": m["protocol.build_query.busy_s"] + m["protocol.recover.busy_s"]
        + m["protocol.answer.busy_s"] - matrix,
        "matrix": matrix,
        "wire": codecs,
        "transport": m["wire.transport.self_s"],
    }
    shares = {k: v / m["retrieve.busy_s"] for k, v in seconds.items()}
    shares["other"] = 1.0 - sum(shares.values())
    return shares


def run(name: str, seed: int, seconds: float, trace: bool,
        min_retrievals: int = MIN_RETRIEVALS, setups: int = SETUPS) -> tuple[dict, list]:
    """One benchmark run: returns the result object and the report lines."""
    wl = WORKLOADS[name]
    params = derive_params(wl.K, wl.D, wl.L, wl.q, wl.N)
    RUN_DIR.mkdir(exist_ok=True)
    path = RUN_DIR / f"store-{name}-{os.getpid()}.plts"
    frames = FrameBytes()
    server = None
    try:
        server, store, set_up = setup(name, seed, path, setups)
        ctx = Context(seed, params, store, server, frames)
        with patched(iplt.wire, frames.wrappers()):
            run_loop(ctx, -WARMUP, 0.0, WARMUP, NoTracer(), replay=False)
            if not trace:
                stats, _ = run_loop(ctx, 0, seconds, min_retrievals, NoTracer(), replay=False)
            else:
                base, first = run_loop(
                    ctx, 0, seconds * BASELINE_SHARE, 2, NoTracer(), replay=False
                )
                tracer = Tracer()
                # A call that protocol no longer imports reports zero.
                matrix_wrappers = {
                    n: (lambda fn, n=n: tracer.wrap(f"matrix.{n}", fn))
                    for n in MATRIX_CALLS
                    if hasattr(iplt.protocol, n)
                }
                with patched(iplt.protocol, matrix_wrappers):
                    stats, _ = run_loop(
                        ctx, first, seconds * (1 - BASELINE_SHARE), 2, tracer, replay=True
                    )
                t0 = perf_counter()
                store_load(path)
                store_info = {"load_s": perf_counter() - t0, "file_bytes": path.stat().st_size}
        server_rss_mb = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
        path.unlink(missing_ok=True)

    attempted = stats.attempted + (base.attempted if trace else 0)
    failed = stats.failed + (base.failed if trace else 0)
    provenance = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "workload": name,
        "seed": seed,
        "requests": attempted,
        "trace": int(trace),
    }
    lines = [
        f"workload {name} (K={wl.K} D={wl.D} L={wl.L} q={wl.q} N={wl.N}, {params.case}), "
        f"seed {seed}: {attempted} retrievals attempted, {failed} failed",
    ]
    if not trace:
        metrics = end_to_end_metrics(stats, set_up)
        metrics["client_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["server_peak_rss_mb"] = server_rss_mb
        units = END_TO_END_UNITS
        table = dict(metrics, error_rate=failed / attempted)
        unit_of = dict(units, error_rate="ratio")
        lines += [f"  {k:<34} {v:.6g} {unit_of[k]}" for k, v in table.items()]
        if stats.errors:
            lines.append(f"  errors: {stats.errors}")
    else:
        spans = tracer.summary()
        metrics = per_layer_metrics(spans, stats, base, set_up, store_info)
        units = {k: layer_unit(k) for k in metrics}
        spans_path = RUN_DIR / f"spans-{name}.tsv"
        tracer.write(spans_path, provenance)
        lines.append(f"  self time per span ({len(tracer.spans)} spans in {spans_path.relative_to(ROOT)}):")
        lines.append(f"    {'span':<38} {'calls':>7} {'busy_s':>10} {'self_s':>10}")
        by_busy = sorted(spans.items(), key=lambda kv: -kv[1][BUSY])
        lines += [
            f"    {span:<38} {calls:>7} {busy:>10.4f} {own:>10.4f}"
            for span, (calls, busy, own) in by_busy
        ]
        lines.append("  share of retrieval time per module: " + ", ".join(
            f"{k} {v:.1%}" for k, v in module_shares(metrics).items()
        ))
        lines.append(
            f"  tracing overhead on retrieve_p50_s: {metrics['trace.overhead_s']:.6g} s "
            f"(untraced {statistics.median(base.latencies):.6g} s)"
        )
        lines += [f"  {k:<44} {v:.6g} {units[k]}" for k, v in metrics.items()]
    lines.append("provenance " + json.dumps(provenance, sort_keys=True))
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="closed-loop iplt retrieval benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its server child on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except CorrectnessError as exc:
        print(f"bench: correctness check failed: {exc}", file=sys.stderr)
        return 1
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
