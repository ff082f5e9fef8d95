#!/usr/bin/env python3
"""End-to-end benchmark of the `kmm` binary.

    python3 perfbench/run.py --workload map-bidir-k5 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. It builds `kmm` and the benchmark's own
helper (`perfbench/`, a package of its own) with cargo into
$CARGO_TARGET_DIR (default `.bench_build`), generates the workload's
inputs from the seed, drives `kmm index`, `kmm map` and `kmm serve` as a
user would, checks every output, and prints one JSON result as the last
line of stdout. `--trace 1` runs the traced pass instead and reports the
per-layer metrics. Progress and a readable summary go to stderr.
"""

import argparse
import hashlib
import http.client
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# Inputs, indexes and outputs of each run; traces are kept under it.
WORK_ROOT = os.path.join(ROOT, ".bench_work")

# `kmm` runs with `--threads 2` and the load generator uses two threads:
# the machine the benchmark was tuned on has two vCPUs.
THREADS = 2
# Index builds (and daemon starts) per run; set-up time is their median.
SETUP_REPEATS = 3
# A `kmm map` job is repeated until the run's seconds are spent, at
# least this many times; throughput is the median job.
MIN_MAP_JOBS = 3
# Served requests slower than this miss the latency limit (goodput).
LATENCY_LIMIT_MS = 50.0
# The run is invalid, and not scored, if the generator sent its p90
# request later than this after the intended time: it fell behind. (A
# single pause of the whole VM makes a p99 that late without the
# generator lagging; `serve.gen_late_ms` reports the p99.)
GEN_LATE_LIMIT_MS = 25.0
# The layers a `kmm map` process spends its time in besides start-up
# and output (`cli.rest_ms`).
PIPELINE = ("bwt.open", "dna.parse", "core.search")

# Every workload maps or serves 100 bp wgsim-style reads, drawn from
# both strands with the seed, of the 2.9 Mbp rat-chr1 stand-in.
WORKLOADS = {
    # The paper's top k (Table 2). Rank-block visits dominate and bidir
    # still falls back to pigeonhole seeding past k = 3. Reads are spread
    # over the genome and share little, so search-scheme work shows here
    # and prefix-sharing tricks do not.
    "map-bidir-k5": dict(mode="map", method="bidir", k=5, bidir=True, reads=30000,
                         rates=(100, 400)),
    # The paper's own Algorithm A: R-arrays, the pair hash table and
    # M-tree derivation do the work; bidir and the mirror are bypassed.
    # A Bidir change should not move it, nor an A(.) change map-bidir-k5.
    "map-a-k3": dict(mode="map", method="a", k=3, bidir=False, reads=1200,
                     rates=(40, 120)),
    # A search takes ~0.1 ms here, so parse, queue handoff, event-loop
    # wakeup, serialisation and write dominate. The only workload that
    # opens the index through mmap. `lo` (200/s) rarely overlaps two
    # requests. The backlog of one pipelined connection started to grow
    # at ~750/s on a 2-vCPU VM; `hi` is 400/s, not two-thirds of that,
    # because at 500/s a slow spell of the shared host left a backlog
    # that doubled the p50 in 2 of 10 runs.
    "serve-bidir-k2": dict(mode="serve", method="bidir", k=2, bidir=True, reads=2000,
                           rates=(200, 400)),
}

# Name -> unit, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s",
    "reads_per_s": "1/s",
    "latency_p50_ms": "ms",
    "index_mb": "MB",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "suffix.sa_ms": "ms",
    "bwt.build_ms": "ms",
    "bwt.mirror_ms": "ms",
    "bwt.save_ms": "ms",
    "bwt.open_ms": "ms",
    "bwt.open_io_bytes": "bytes",
    "dna.parse_ms": "ms",
    "core.search_ms": "ms",
    "core.read_p50_us": "us",
    "core.read_p99_us": "us",
    "core.rank_blocks_per_read": "count",
    "core.rank_bytes_per_read": "bytes",
    "core.nodes_per_read": "count",
    "core.leaves_per_read": "count",
    "core.occurrences_per_read": "count",
    "core.hit_per_leaf": "ratio",
    "core.preprocess_us": "us",
    "core.materialized_per_visited": "ratio",
    "core.mtree_reuse_frac": "ratio",
    "core.resumes_per_read": "count",
    "core.rarray_probes_per_read": "count",
    "bwt.occ_pair_fused_frac": "ratio",
    "par.speedup": "ratio",
    "telemetry.metrics_overhead_frac": "ratio",
    "cli.rest_ms": "ms",
    "serve.ready_ms": "ms",
    "serve.server_search_us": "us",
    "serve.outside_search_ms": "ms",
    "serve.ttfb_ms": "ms",
    "serve.body_ms": "ms",
    "serve.resp_bytes": "bytes",
    "serve.keepalive_reuse_frac": "ratio",
    "serve.reconnects": "count",
    "serve.rank_blocks_per_req": "count",
    "serve.shed": "count",
    "serve.gen_late_ms": "ms",
    "serve.latency_p50_ms.hi": "ms",
    "serve.latency_p99_ms.lo": "ms",
    "serve.latency_p99_ms.hi": "ms",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """A run that cannot produce a result (build, process or check failure)."""


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------- statistics

def percentile(samples, q):
    """The q-quantile of `samples` by nearest rank, or None when fewer
    than ten samples lie beyond it (a tail estimate from fewer is noise)."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < 10:
        return None
    return xs[rank - 1]


def tail(samples, qs=(0.99, 0.95, 0.9, 0.5)):
    """The highest of `qs` that `percentile` will report, with its value."""
    for q in qs:
        v = percentile(samples, q)
        if v is not None:
            return q, v
    raise BenchError(f"too few samples ({len(samples)}) for any percentile")


def window_p50(phase):
    """The client's median latency (ms) in a quiet second of one rate: the
    lower quartile of the per-second p50s, in send order. On a shared
    2-vCPU host, slow spells of a few seconds move the p50 of whole
    seconds by up to 2x; this figure moves with the daemon, not with them."""
    per_s = max(20, int(phase["rate"]))
    lat = phase["latency_us"]
    windows = [lat[i:i + per_s] for i in range(0, len(lat) - per_s + 1, per_s)]
    p50s = [percentile(w, 0.5) for w in windows]
    return statistics.quantiles(p50s, n=4)[0] / 1e3 if len(p50s) > 1 else p50s[0] / 1e3


def self_times(spans):
    """Self time of each span: its duration minus the part of it that its
    children cover. Spans are [name, start_ns, end_ns, parent, id]. A span
    that ends before it starts or a child that overruns its parent fails."""
    children = {}
    for name, start, end, parent, _ in spans:
        if end < start:
            raise BenchError(f"span {name} ends before it starts")
        if parent is not None:
            pname, pstart, pend = spans[parent][:3]
            if start < pstart or end > pend:
                raise BenchError(
                    f"span {name} [{start}, {end}] overruns its parent {pname} [{pstart}, {pend}]")
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0, start
        for s, e in sorted(children.get(i, [])):
            s = max(s, reach)
            if e > s:
                covered += e - s
                reach = e
        out.append(end - start - covered)
    return out


def layer_totals(spans):
    """Summed self time (ns) and duration (ns) per span name."""
    selfs, durs = {}, {}
    for span, own in zip(spans, self_times(spans)):
        selfs[span[0]] = selfs.get(span[0], 0) + own
        durs[span[0]] = durs.get(span[0], 0) + span[2] - span[1]
    return selfs, durs


def check_layer_sum(pipelines_ns, walls_ns):
    """Fail if the layer sums exceed the `kmm map` wall time. One 3 s job
    of either varies by ~±10 % on a shared host, more than the start-up
    and output `kmm map` adds on map-a-k3, so one pair can cross: the run
    fails only if the fastest pipeline is slower than the slowest `kmm map`,
    that is if every layer sum exceeds every wall time measured. A nested
    span counted twice (the `--stats` double count) adds the whole search
    again and trips it."""
    if min(pipelines_ns) > max(walls_ns):
        raise BenchError(f"layer sum above the wall time: the fastest pipeline "
                         f"{min(pipelines_ns) / 1e6:.1f} ms exceeds the slowest kmm map "
                         f"{max(walls_ns) / 1e6:.1f} ms")


def ratio(num, den):
    return num / den if den else 0.0


# ------------------------------------------------------------------ processes

class Tools:
    def __init__(self, target):
        self.kmm = os.path.join(target, "release", "kmm")
        self.helper = os.path.join(target, "release", "perfbench")


def build():
    """Build `kmm` from the checkout and the benchmark helper."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        raise BenchError(f"no Cargo.toml at {ROOT}: not a checkout of the repository")
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    for cmd in (["cargo", "build", "--release", "--offline", "--bin", "kmm"],
                ["cargo", "build", "--release", "--offline",
                 "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")]):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return Tools(target)


def timed(cmd, stdout=subprocess.DEVNULL):
    """Run to completion; return (wall seconds, peak RSS in MB). The
    command's stderr is shown only if it fails."""
    with tempfile.TemporaryFile(dir=WORK_ROOT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=stdout, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            raise BenchError(f"{' '.join(cmd)} exited with {proc.returncode}: "
                             f"{err.read().decode(errors='replace')[-2000:]}")
    return wall, usage.ru_maxrss / 1024.0


def helper(tools, *args):
    out = subprocess.run([tools.helper, *map(str, args)], stdout=subprocess.PIPE, check=False)
    if out.returncode != 0:
        raise BenchError(f"perfbench {args[0]} exited with {out.returncode}")
    return json.loads(out.stdout.decode().strip().splitlines()[-1])


def request(port, method, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request(method, path, body=b"" if method == "POST" else None)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


class Daemon:
    """One `kmm serve --mmap` process, started and stopped as a user would."""

    def __init__(self, tools, index, work, tag):
        self.port_file = os.path.join(work, f"port-{tag}")
        self.log = open(os.path.join(work, f"serve-{tag}.log"), "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [tools.kmm, "serve", "--index", index, "--mmap", "--threads", str(THREADS),
             "--addr", "127.0.0.1:0", "--port-file", self.port_file],
            stdout=subprocess.DEVNULL, stderr=self.log)
        self.port = None
        deadline = start + 60
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"kmm serve exited with {self.proc.returncode} at start-up")
            if self.port is None:
                try:
                    with open(self.port_file) as f:
                        text = f.read()
                    if text.endswith("\n"):
                        self.port = int(text)
                except (FileNotFoundError, ValueError):
                    pass
            if self.port is not None:
                try:
                    if request(self.port, "GET", "/healthz")[0] == 200:
                        self.ready_s = time.perf_counter() - start
                        return
                except OSError:
                    pass
            time.sleep(0.0005)
        self.kill()
        raise BenchError("kmm serve was not healthy within 60 s")

    def stop(self):
        """POST /shutdown and reap; return the daemon's peak RSS in MB."""
        try:
            status = request(self.port, "POST", "/shutdown")[0]
        except OSError as e:
            self.kill()
            raise BenchError(f"/shutdown failed: {e}")
        deadline = time.perf_counter() + 30
        while time.perf_counter() < deadline:
            pid, wstatus, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(wstatus)
                self.log.close()
                if status != 200 or self.proc.returncode != 0:
                    raise BenchError(f"kmm serve shut down with {self.proc.returncode}")
                return usage.ru_maxrss / 1024.0
            time.sleep(0.01)
        self.kill()
        raise BenchError("kmm serve did not exit within 30 s of /shutdown")

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
        self.log.close()


# ------------------------------------------------------------------ workloads

class Run:
    def __init__(self, tools, name, seed, seconds, work):
        self.tools, self.name, self.seed, self.seconds, self.work = tools, name, seed, seconds, work
        self.w = WORKLOADS[name]
        self.ref = os.path.join(work, "ref.fa")
        self.reads = os.path.join(work, "reads.fq")
        self.index = os.path.join(work, "ref.idx")
        self.daemons = []

    def generate(self):
        helper(self.tools, "gen", "--seed", self.seed, "--reads", self.w["reads"], "--out", self.work)

    def index_cmd(self):
        cmd = [self.tools.kmm, "index", "--reference", self.ref, "-o", self.index,
               "--threads", str(THREADS)]
        return cmd + (["--bidir"] if self.w["bidir"] else [])

    def map_cmd(self):
        return [self.tools.kmm, "map", "--index", self.index, "--reads", self.reads,
                "-k", str(self.w["k"]), "--method", self.w["method"], "--both-strands", "true",
                "--threads", str(THREADS)]

    def check_map(self, tsv):
        v = helper(self.tools, "check-map", "--dir", self.work, "--tsv", tsv,
                   "-k", self.w["k"], "--seed", self.seed)
        log(f"map check: {v}")
        return v["failed_reads"]

    def start_daemon(self, tag):
        d = Daemon(self.tools, self.index, self.work, tag)
        self.daemons.append(d)
        return d

    def stop_all(self):
        for d in self.daemons:
            if d.proc.returncode is None:
                d.kill()

    def client(self, port, trace):
        lo, hi = self.w["rates"]
        return helper(self.tools, "client", "--port", port, "--index", self.index,
                      "--reads", self.reads, "-k", self.w["k"], "--method", self.w["method"],
                      "--rates", f"{lo},{hi}", "--phase-seconds", self.seconds / 2,
                      "--trace", int(trace))

    # -- tracing off: the end-to-end metrics

    def setup(self):
        walls = [timed(self.index_cmd())[0] for _ in range(SETUP_REPEATS)]
        log(f"kmm index walls (s): {[round(w, 3) for w in walls]}")
        return statistics.median(walls)

    def map_e2e(self, setup_s):
        out = os.path.join(self.work, "map.tsv")
        jobs, verdicts, failed = [], {}, 0
        start = time.perf_counter()
        while len(jobs) < MIN_MAP_JOBS or time.perf_counter() - start < self.seconds:
            with open(out, "wb") as f:
                wall, rss = timed(self.map_cmd(), stdout=f)
            with open(out, "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()
            # Each distinct output is checked in full once.
            if digest not in verdicts:
                verdicts[digest] = self.check_map(out)
            failed += verdicts[digest]
            jobs.append((wall, rss))
        n = self.w["reads"]
        walls = [w for w, _ in jobs]
        log(f"kmm map walls (s): {[round(w, 3) for w in walls]}")
        # A read's answer is ready when its job has written the output, so
        # each read's latency is its job's wall time: every job holds the
        # same reads, and their p50 is the median job.
        p50 = statistics.median(walls) * 1e3
        attempted = n * len(jobs)
        metrics = {
            "setup_s": setup_s,
            "reads_per_s": statistics.median(n / w for w in walls),
            "latency_p50_ms": p50,
            "index_mb": os.path.getsize(self.index) / 1e6,
            "peak_rss_mb": statistics.median(r for _, r in jobs),
        }
        return attempted, failed, metrics

    def serve_e2e(self, setup_s):
        ready = []
        for i in range(SETUP_REPEATS):
            d = self.start_daemon(f"e2e{i}")
            ready.append(d.ready_s)
            if i + 1 < SETUP_REPEATS:
                d.stop()
        log(f"daemon ready (s): {[round(r, 4) for r in ready]}")
        result = self.client(d.port, trace=False)
        rss = d.stop()
        lo, hi = result["phases"]
        check_generator(lo, hi)
        attempted = lo["attempted"] + hi["attempted"]
        failed = attempted - lo["ok"] - hi["ok"]
        good = sum(1 for ok, lat in zip(hi["ok_flags"], hi["latency_us"])
                   if ok and lat <= LATENCY_LIMIT_MS * 1e3)
        for p in (lo, hi):
            q, v = tail(p["latency_us"])
            log(f"rate {p['rate']}/s: {p['attempted']} sent, {p['ok']} ok, "
                f"{p['reconnects']} reconnects, p50 {window_p50(p):.3f} ms, "
                f"p{q * 100:.0f} {v / 1e3:.3f} ms")
        metrics = {
            "setup_s": setup_s + statistics.median(ready),
            # The served reads' goodput at the high rate.
            "reads_per_s": good / hi["wall_s"],
            "latency_p50_ms": window_p50(lo),
            "index_mb": os.path.getsize(self.index) / 1e6,
            "peak_rss_mb": rss,
        }
        return attempted, failed, metrics

    def end_to_end(self):
        self.generate()
        setup_s = self.setup()
        if self.w["mode"] == "map":
            return self.map_e2e(setup_s)
        return self.serve_e2e(setup_s)

    # -- tracing on: the per-layer metrics

    def traced(self):
        self.generate()
        # The helper builds and saves the index itself (as `kmm index`
        # would) and pairs each in-process map pipeline with a `kmm map`.
        layers = helper(self.tools, "layers", "--dir", self.work, "-k", self.w["k"],
                        "--method", self.w["method"], "--threads", THREADS,
                        "--bidir", int(self.w["bidir"]), "--mmap", int(self.w["mode"] == "serve"),
                        "--kmm", self.tools.kmm)
        failed = self.check_map(os.path.join(self.work, "map.tsv"))
        spans = layers["spans"]
        own = self_times(spans)
        selfs, durs = layer_totals(spans)
        ms = lambda name: selfs.get(name, 0) / 1e6

        # The layer sum: in-process pipelines (open + parse + search self
        # times), each paired with a `kmm map` on the same files.
        def rep_ns(name, rep, table=own):
            return sum(v for s, v in zip(spans, table) if s[0] == name and s[4] == rep)
        pipes = sorted((sum(rep_ns(n, r) for n in PIPELINE), r)
                       for r in {s[4] for s in spans if s[0] == "map"})
        pipeline_ns, rep = pipes[len(pipes) // 2]
        map_walls = sorted(s[2] - s[1] for s in spans if s[0] == "cli.kmm_map")
        map_ns = statistics.median(map_walls)
        search_ns = rep_ns("core.search", rep)
        log("layer sum: " + " + ".join(f"{n} {rep_ns(n, rep) / 1e6:.1f}" for n in PIPELINE)
            + f" = {pipeline_ns / 1e6:.1f} ms of kmm map {map_ns / 1e6:.1f} ms (medians); "
            + f"pipelines {[round(p / 1e6) for p, _ in pipes]} ms, "
            + f"kmm map {[round(w / 1e6) for w in map_walls]} ms")
        check_layer_sum([p for p, _ in pipes], map_walls)

        d = self.start_daemon("trace")
        result = self.client(d.port, trace=True)
        d.stop()
        lo, hi = result["phases"]
        check_generator(lo, hi)
        client_spans = result["spans"]
        cselfs, _ = layer_totals(client_spans)
        write_trace(self, {"layers": spans, "client": client_spans})

        c = layers["counters"]
        reads = layers["reads"]
        per_read = lambda key: ratio(c[key], reads)
        read_us = [(s[2] - s[1]) / 1e3 for s in spans if s[0] == "core.read"]
        ld, hd = lo["metrics_delta"], hi["metrics_delta"]
        both = lambda key: ld[key] + hd[key]
        queries = both("kmm_search_queries_total")
        server_us = ratio(ld['kmm_phase_seconds_total{phase="search.query"}'],
                          ld["kmm_search_queries_total"]) * 1e6
        lo_p50_ms = window_p50(lo)
        metrics = {
            "suffix.sa_ms": ms("suffix.sa"),
            "bwt.build_ms": ms("bwt.build"),
            "bwt.mirror_ms": ms("bwt.mirror"),
            "bwt.save_ms": ms("bwt.save"),
            "bwt.open_ms": rep_ns("bwt.open", rep) / 1e6,
            "bwt.open_io_bytes": layers["open_io_bytes"],
            "dna.parse_ms": rep_ns("dna.parse", rep) / 1e6,
            "core.search_ms": search_ns / 1e6,
            "core.read_p50_us": percentile(read_us, 0.5),
            "core.read_p99_us": percentile(read_us, 0.99),
            "core.rank_blocks_per_read": per_read("search.rank_blocks_touched"),
            "core.rank_bytes_per_read": per_read("search.rank_bytes_scanned"),
            "core.nodes_per_read": per_read("search.nodes_visited"),
            "core.leaves_per_read": per_read("search.leaves"),
            "core.occurrences_per_read": per_read("search.occurrences"),
            "core.hit_per_leaf": ratio(c["search.occurrences"], c["search.leaves"]),
            "core.preprocess_us": ms("core.preprocess") * 1e3 / reads,
            "core.materialized_per_visited": ratio(c["search.nodes_materialized"],
                                                   c["search.nodes_visited"]),
            "core.mtree_reuse_frac": ratio(c["search.mtree_nodes_reused"],
                                           c["search.mtree_nodes_built"] + c["search.mtree_nodes_reused"]),
            "core.resumes_per_read": per_read("search.resumes"),
            "core.rarray_probes_per_read": per_read("search.rarray_probes"),
            "bwt.occ_pair_fused_frac": ratio(c["search.occ_pair_fused"], c["search.occ_fused"]),
            "par.speedup": ratio(statistics.mean(read_us) * 1e3 * reads, search_ns),
            "telemetry.metrics_overhead_frac": ratio(durs["core.search_recorded"] - search_ns,
                                                     search_ns),
            "cli.rest_ms": (map_ns - pipeline_ns) / 1e6,
            "serve.ready_ms": d.ready_s * 1e3,
            "serve.server_search_us": server_us,
            "serve.outside_search_ms": lo_p50_ms - server_us / 1e3,
            "serve.ttfb_ms": percentile(lo["ttfb_us"], 0.5) / 1e3,
            "serve.body_ms": percentile(lo["body_us"], 0.5) / 1e3,
            "serve.resp_bytes": statistics.median(lo["resp_bytes"]),
            "serve.keepalive_reuse_frac": ratio(both("kmm_serve_keepalive_reuses_total"), queries),
            "serve.reconnects": lo["reconnects"] + hi["reconnects"],
            "serve.rank_blocks_per_req": ratio(both("kmm_search_rank_blocks_touched_total"), queries),
            "serve.shed": sum(both(f"kmm_serve_shed{s}_total") for s in ("", "_tenant", "_stall", "_conns")),
            "serve.gen_late_ms": tail(lo["late_us"] + hi["late_us"])[1] / 1e3,
            "serve.latency_p50_ms.hi": window_p50(hi),
            "serve.latency_p99_ms.lo": tail(lo["latency_us"])[1] / 1e3,
            "serve.latency_p99_ms.hi": tail(hi["latency_us"])[1] / 1e3,
            # The tracer's own share of the traced in-process pass.
            "trace.overhead_frac": ratio(len(spans) * layers["span_cost_ns"], durs["layers"]),
        }
        if metrics["core.read_p99_us"] is None:
            raise BenchError(f"{len(read_us)} serial reads are too few for a p99")
        log(f"client self time (ms): { {k: round(v / 1e6, 1) for k, v in cselfs.items()} }")
        attempted = reads + lo["attempted"] + hi["attempted"]
        failed += lo["attempted"] + hi["attempted"] - lo["ok"] - hi["ok"]
        return attempted, failed, metrics


def check_generator(*phases):
    late = [x for p in phases for x in p["late_us"]]
    q, v = tail(late, qs=(0.9, 0.5))
    log(f"generator lateness p{q * 100:.0f}: {v / 1e3:.3f} ms over {len(late)} requests")
    if v / 1e3 > GEN_LATE_LIMIT_MS:
        raise BenchError(f"invalid run: the load generator fell behind "
                         f"(p{q * 100:.0f} lateness {v / 1e3:.1f} ms > {GEN_LATE_LIMIT_MS} ms)")


def write_trace(run, spans):
    path = os.path.join(WORK_ROOT, "traces", f"{run.name}-seed{run.seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"workload": run.name, "seed": run.seed,
                   "format": "[name, start_ns, end_ns, parent index, read/request id]",
                   "spans": spans}, f)
    log(f"spans written to {os.path.relpath(path, ROOT)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    work = os.path.join(WORK_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    run = None
    try:
        tools = build()
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        run = Run(tools, args.workload, args.seed, args.seconds, work)
        attempted, failed, metrics = run.traced() if args.trace else run.end_to_end()
    except BenchError as e:
        log(f"error: {e}")
        return 1
    finally:
        if run is not None:
            run.stop_all()
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    log(f"{args.workload} seed {args.seed}: failed {failed}/{attempted} "
        f"(failed_frac {ratio(failed, attempted):.6f})")
    for name, unit in units.items():
        log(f"  {name:34} {metrics[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
