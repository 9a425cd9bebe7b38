#!/usr/bin/env python3
"""The RID benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (recorded with their rationale in BENCHMARK.json):

- kernel-cold      `rid analyze --json --threads 2` over the seeded
                   evaluation corpus, no cache.
- kernel-warm-edit the same with `--cache`; before each run a seeded ~1%
                   of modules is edited, alternating two variants.
- branchy-refute   `rid analyze --json` over diamond-chained path-explosion
                   functions plus seeded-spurious idioms.
- daemon-mixed     a resident `rid serve --state-dir`, driven by an open
                   loop of 80% `patch` / 20% `diff` requests.

The script builds `rid` and the helper `perfbench/layers` from source
(into `$CARGO_TARGET_DIR`, default `.bench_build`), generates the
workload's inputs from `--seed` with the helper, sets up several times
and measures for `--seconds` seconds. Every output is checked against the
ground truth the corpus generator recorded. The last stdout line is one
JSON object: `correct`, `attempted`, `failed` and `metrics` — the
end-to-end metrics of BENCHMARK.json with `--trace 0`, its per-layer
metrics with `--trace 1`. Anything that keeps the benchmark from
measuring (a failed build, a daemon that does not start) exits non-zero
without a result line.
"""

import argparse
import json
import math
import os
import random
import re
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("kernel-cold", "kernel-warm-edit", "branchy-refute", "daemon-mixed")
BATCH = WORKLOADS[:3]
THREADS = min(2, os.cpu_count() or 1)
SETUP_REPS = 5
LIMIT_MS = 100.0
REGISTER_CHUNK = 32_000
PATCH_SHARE = 0.8
# The end-to-end rate: half the daemon's patch capacity on a 2-core host,
# so latency measures service rather than a saturated queue.
E2E_RATE = 50
FIXED_RATES = (50, 100)
RATE_REQUESTS = 1000
LADDER = (40, 50, 60, 70, 80, 90, 100, 120, 150, 200)
LADDER_STEP_S = 3.0
# A traced daemon run stops climbing the ladder after this long, so that
# on a slow host it still ends within its time limit.
TRACE_LADDER_UNTIL_S = 100.0
TRACE_CLI_RUNS = 11
PROJECT = "bench"
PROBE = "__bench_probe"
NAME_RULE = re.compile(r"[A-Za-z0-9_.-]+")

# The per-layer blocks and the workloads that load them. A traced run
# measures the blocks of its workload; the metrics of the other blocks
# read 0, the work that layer does on that workload.
LAYER_BLOCKS = (
    (WORKLOADS, ("frontend.parse_s", "frontend.mb_per_s", "frontend.parse_module_ms",
                 "ir.resident_mb")),
    (BATCH, ("callgraph.build_s", "callgraph.sccs", "classify.s", "classify.analyzed_share",
             "paths.enumerate_s", "paths.paths", "paths.capped_functions", "exec.s",
             "exec.states", "exec.blocks_executed", "exec.blocks_saved_share", "solver.s",
             "solver.queries", "solver.memo_hit_share", "solver.unsat_share", "ipp.s",
             "ipp.reports_stage1", "refute.s", "refute.refuted_share", "refute.inconclusive",
             "driver.analyze_s", "driver.steals", "driver.idle_ms", "trace.overhead_ratio",
             "process.unaccounted_share")),
    (("kernel-warm-edit",), ("store.open_s", "store.save_s", "store.mb", "cache.hit_share",
                             "cache.invalidated")),
    (("daemon-mixed",), ("incremental.affected", "incremental.reanalyze_ms", "triage.hash_s",
                         "serve.patch_service_ms.p50", "serve.patch_service_ms.p99",
                         "serve.diff_service_ms.p50", "serve.journal_append_ms.p50",
                         "serve.journal_append_ms.p99", "serve.queue_ms.p99", "serve.coalesced",
                         "serve.backpressure", "loadgen.lag_ms.max", "daemon.p50_ms.50rps",
                         "daemon.p99_ms.50rps", "daemon.p50_ms.100rps", "daemon.p99_ms.100rps",
                         "daemon.max_rps")),
)


class BenchError(Exception):
    """Something kept the benchmark from measuring; no result is printed."""


def quantile(values, q):
    """Nearest-rank quantile: the smallest value with at least a share
    `q` of the sample at or below it."""
    if not values:
        raise ValueError("quantile of an empty sample")
    ordered = sorted(values)
    rank = min(max(math.ceil(len(ordered) * q), 1), len(ordered))
    return ordered[rank - 1]


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def layer_metrics(workload):
    """Every per-layer metric, split into those `workload` measures and
    those that read 0 on it."""
    measured, idle = [], []
    for workloads, names in LAYER_BLOCKS:
        (measured if workload in workloads else idle).extend(names)
    return measured, idle


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build


def build():
    """Builds `rid` and the helper; returns their paths and the target dir."""
    if not (ROOT / "Cargo.toml").is_file():
        raise BenchError(f"no Cargo.toml at {ROOT}: nothing to build")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    target = target if target.is_absolute() else ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for manifest, package in (("Cargo.toml", ["-p", "rid-cli"]),
                              ("perfbench/layers/Cargo.toml", [])):
        cmd = ["cargo", "build", "--release", "--quiet", "--manifest-path",
               str(ROOT / manifest), *package]
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    release = target / "release"
    return release / "rid", release / "rid-perfbench", target


# ---------------------------------------------------------------- inputs


class Inputs:
    """A generated workload directory: `src/*.ril` plus `truth.json`."""

    def __init__(self, helper, workload, seed, directory):
        shutil.rmtree(directory, ignore_errors=True)
        cmd = [str(helper), "gen", "--workload", workload, "--seed", str(seed),
               "--out", str(directory)]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError(f"input generation failed: {' '.join(cmd)}")
        self.dir = directory
        self.src = directory / "src"
        self.truth = json.loads((directory / "truth.json").read_text())
        self.files = sorted(p.name for p in self.src.glob("*.ril"))
        self.base = {name: (self.src / name).read_text() for name in self.files}

    def with_function(self, name, function):
        return f"{self.base[name]}\n{function}\n"

    def apply_edits(self, variant):
        """Writes every seeded edit's `variant` ("a" or "b") into its file."""
        for edit in self.truth["edits"]:
            (self.src / edit["file"]).write_text(self.with_function(edit["file"], edit[variant]))


def report_failures(truth, functions):
    """Oracle for one report set, from the corpus's ground truth: every
    detectable bug reported, nothing reported beyond the detectable bugs
    and the expected false positives, no seeded-spurious report left."""
    detectable = set(truth["detectable"])
    allowed = detectable | set(truth["expected_fp"])
    found = set(functions)
    problems = [f"missed {sorted(detectable - found)}"] if detectable - found else []
    if found - allowed:
        problems.append(f"unexpected {sorted(found - allowed)}")
    if found & set(truth["spurious"]):
        problems.append(f"seeded-spurious not refuted {sorted(found & set(truth['spurious']))}")
    return problems


# ---------------------------------------------------------------- batch


class Analyze:
    """One `rid analyze` process over a workload's files."""

    def __init__(self, rid, inputs, cache=None):
        self.cmd = [str(rid), "analyze", "--json", "--threads", str(THREADS)]
        if cache is not None:
            self.cmd += ["--cache", str(cache)]
        self.cmd += inputs.files
        self.inputs = inputs
        self.stdout = b""
        self.err = inputs.dir / "analyze.err"

    def run(self):
        """Returns (wall s, cpu s, peak RSS MB, failure or None). The
        report JSON is read from a pipe, not written to disk: a run's
        ~1 MB, times every run, would load the disk the next set-up uses."""
        with open(self.err, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(self.cmd, cwd=self.inputs.src, stdout=subprocess.PIPE,
                                    stderr=err)
            self.stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        failure = self.check(proc.returncode)
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, failure

    def check(self, code):
        # Exit 1 when the truth has reports to make; otherwise 0 (clean)
        # or 2 (degraded: the adversarial functions hit the path cap).
        truth = self.inputs.truth
        expected = (1,) if truth["detectable"] or truth["expected_fp"] else (0, 2)
        if code not in expected:
            return f"exit code {code}: {self.err.read_text()[-300:]}"
        try:
            reports = json.loads(self.stdout)
        except ValueError as e:
            return f"unparsable --json output: {e}"
        problems = report_failures(self.inputs.truth, [r["function"] for r in reports])
        return "; ".join(problems) or None


def setup_batch(rid, helper, workload, seed, directory):
    """Generates the inputs and runs `rid analyze` once before the timed
    runs: on kernel-warm-edit the cache prime on edit variant A, on the
    others the warm-up that loads the binary and the inputs into the page
    cache. Returns (inputs, analyze command)."""
    inputs = Inputs(helper, workload, seed, directory / "inputs")
    cache = inputs.dir / "summaries.cache" if workload == "kernel-warm-edit" else None
    analyze = Analyze(rid, inputs, cache=cache)
    if cache is not None:
        inputs.apply_edits("a")
    failure = analyze.run()[3]
    if failure:
        raise BenchError(f"set-up run failed: {failure}")
    return inputs, analyze


def measure_batch(inputs, analyze, workload, runs=None, seconds=None):
    """Runs `rid analyze` back to back, `runs` times or for `seconds`;
    warm-edit runs alternate the edit variant before each run."""
    walls, cpus, rss, failures = [], [], [], []
    deadline = time.perf_counter() + (seconds or 0)
    while (len(walls) < runs) if runs else (time.perf_counter() < deadline or len(walls) < 1):
        if workload == "kernel-warm-edit":
            inputs.apply_edits("b" if len(walls) % 2 == 0 else "a")
        wall, cpu, peak, failure = analyze.run()
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
        if failure:
            failures.append(failure)
    return walls, cpus, rss, failures


# ---------------------------------------------------------------- daemon


class Conn:
    """One NDJSON connection to the daemon's Unix socket."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.buf = b""
        self.out = b""

    def send(self, request):
        self.sock.sendall(json.dumps(request).encode() + b"\n")

    def queue(self, request):
        """Non-blocking send: buffers what the socket does not take now."""
        self.out += json.dumps(request).encode() + b"\n"
        self.flush()

    def flush(self):
        try:
            self.out = self.out[self.sock.send(self.out):]
        except BlockingIOError:
            pass

    def read_lines(self):
        try:
            data = self.sock.recv(1 << 20)
        except BlockingIOError:
            return []
        if not data:
            raise BenchError("daemon closed the connection")
        self.buf += data
        *lines, self.buf = self.buf.split(b"\n")
        return [json.loads(line) for line in lines if line.strip()]

    def call(self, request, timeout=120.0):
        self.sock.settimeout(timeout)
        self.send(request)
        while True:
            for reply in self.read_lines():
                if reply.get("id") == request["id"]:
                    self.sock.settimeout(None)
                    if not reply.get("ok"):
                        raise BenchError(f"{request['op']} failed: {reply}")
                    return reply["result"]

    def close(self):
        self.sock.close()


def source_chunks(inputs):
    """The workload's modules in groups of at most REGISTER_CHUNK bytes.
    The daemon's request parser takes time quadratic in the length of a
    request line (the whole corpus in one `register` line costs ~25 s),
    so the corpus is registered as one `register` plus `patch`es that add
    the remaining modules: an editor opening a project module by module."""
    chunks, size = [{}], 0
    for name in inputs.files:
        text = inputs.base[name]
        if chunks[-1] and size + len(text) > REGISTER_CHUNK:
            chunks.append({})
            size = 0
        chunks[-1][name] = text
        size += len(text)
    return chunks


class Daemon:
    """A `rid serve --state-dir` process with the workload registered and
    analyzed, and the report hashes of that first analysis."""

    def __init__(self, rid, inputs, directory):
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        self.inputs = inputs
        # Relative to ROOT, the working directory: Unix socket paths are short.
        self.socket = os.path.relpath(directory / "rid.sock", ROOT)
        with open(directory / "serve.err", "wb") as err:
            self.proc = subprocess.Popen(
                [str(rid), "serve", "--socket", self.socket, "--state-dir",
                 str(directory / "state")],
                cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
        try:
            deadline = time.perf_counter() + 30
            while not os.path.exists(self.socket):
                if self.proc.poll() is not None or time.perf_counter() > deadline:
                    raise BenchError("daemon did not start")
                time.sleep(0.005)
            control = Conn(self.socket)
            chunks = source_chunks(inputs)
            control.call({"id": 1, "op": "register", "project": PROJECT, "sources": chunks[0],
                          "options": {"threads": THREADS}})
            for i, chunk in enumerate(chunks[1:]):
                control.call({"id": 10 + i, "op": "patch", "project": PROJECT, "sources": chunk})
            result = control.call({"id": 2, "op": "analyze", "project": PROJECT})
            problems = report_failures(inputs.truth, [r["function"] for r in result["reports"]])
            if problems:
                raise BenchError(f"daemon's first analysis is wrong: {problems}")
            diff = control.call({"id": 3, "op": "diff", "project": PROJECT, "baseline": []})
            self.baseline = sorted(entry["hash"] for entry in diff["new"])
            self.control = control
        except BaseException:
            self.stop()
            raise

    def stats(self):
        return self.control.call({"id": 4, "op": "stats"})

    def cpu_s(self):
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the daemon")

    def stop(self):
        if getattr(self, "control", None):
            self.control.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class Traffic:
    """The seeded request stream: 80% probe patches, 20% baseline diffs."""

    def __init__(self, daemon, seed):
        self.rng = random.Random(seed)
        self.daemon = daemon
        self.probe = daemon.inputs.truth["probe"]
        self.patches = 0
        self.next_id = 1000

    def request(self):
        self.next_id += 1
        if self.rng.random() >= PATCH_SHARE:
            return {"id": self.next_id, "op": "diff", "project": PROJECT,
                    "baseline": self.daemon.baseline}
        # Alternate the probe's two shapes and vary its constant, so every
        # patch really changes the probe function.
        self.patches += 1
        body = self.probe["a" if self.patches % 2 else "b"].replace("@K@", str(self.patches))
        module = self.daemon.inputs.with_function(self.probe["file"], body)
        return {"id": self.next_id, "op": "patch", "project": PROJECT,
                "sources": {self.probe["file"]: module}}


def reply_failure(request, reply):
    """Daemon oracle: every reply ok; a patch changes exactly the probe; a
    diff against the first analysis finds nothing new or resolved (both
    probe shapes are clean)."""
    if not reply.get("ok"):
        return f"{request['op']} not ok: {reply.get('error')}"
    result = reply["result"]
    if request["op"] == "patch" and result.get("changed") != [PROBE]:
        return f"patch changed {result.get('changed')}, not [{PROBE}]"
    if request["op"] == "diff" and (result.get("new_count") != 0 or result.get("resolved")):
        return f"diff found new {result.get('new_count')} / resolved {result.get('resolved')}"
    return None


def open_loop(daemon, traffic, rate, count, conns):
    """Sends `count` requests at `rate` per second on a fixed schedule over
    `conns` connections, whatever the replies do. Returns one record per
    request: op, scheduled time, send lag and latency from the scheduled
    time (s), and the failure if any.

    The sockets are non-blocking. The daemon writes each reply while
    holding a lock all connections share, so a client blocked sending on
    one connection while replies fill the other would deadlock it."""
    links = [Conn(daemon.socket) for _ in range(conns)]
    selector = selectors.DefaultSelector()
    for link in links:
        link.sock.setblocking(False)
        selector.register(link.sock, selectors.EVENT_READ, link)

    def watch(link):
        writing = selectors.EVENT_WRITE if link.out else 0
        selector.modify(link.sock, selectors.EVENT_READ | writing, link)

    pending, records = {}, []
    epoch = time.perf_counter() + 0.01
    sent = 0
    try:
        while sent < count or pending:
            now = time.perf_counter()
            due = epoch + sent / rate
            if sent < count and now >= due:
                request = traffic.request()
                pending[request["id"]] = (request, due, len(records), now - due)
                records.append(None)
                link = links[sent % conns]
                link.queue(request)
                watch(link)
                sent += 1
                continue
            timeout = due - now if sent < count else 30.0
            events = selector.select(timeout)
            if not events and sent >= count:
                raise BenchError(f"{len(pending)} requests unanswered after 30 s")
            for key, mask in events:
                if mask & selectors.EVENT_WRITE:
                    key.data.flush()
                    watch(key.data)
                if not mask & selectors.EVENT_READ:
                    continue
                done = time.perf_counter()
                for reply in key.data.read_lines():
                    request, due_at, slot, lag = pending.pop(reply.get("id"))
                    records[slot] = (request["op"], due_at, lag, done - due_at,
                                     reply_failure(request, reply))
    finally:
        selector.close()
        for link in links:
            link.close()
    return records


def step_summary(records):
    """Latency quantiles (ms), failures, and backlog growth of one rate
    step: lateness in its last tenth against its first."""
    latency = [r[3] * 1e3 for r in records]
    tenth = max(len(records) // 10, 1)
    growth = statistics.median(latency[-tenth:]) - statistics.median(latency[:tenth])
    return {
        "p50": quantile(latency, 0.5),
        "p90": quantile(latency, 0.9),
        "p99": quantile(latency, 0.99),
        "failures": [r[4] for r in records if r[4]],
        "backlog": growth > LIMIT_MS / 2,
        "lag_ms": max(r[2] for r in records) * 1e3,
    }


def op_means_ms(before, after):
    """Mean server-side time per op (ms) between two `stats` replies."""
    means = {}
    for op in ("patch", "diff"):
        key = f"serve.op.{op}.us"
        h0 = before["telemetry"]["histograms"].get(key, {"count": 0, "sum": 0})
        h1 = after["telemetry"]["histograms"][key]
        means[op] = (h1["sum"] - h0["sum"]) / max(h1["count"] - h0["count"], 1) / 1e3
    return means


# ---------------------------------------------------------------- runs


def timed_setups(make, work, reps):
    """Sets up `reps` times, each in a fresh directory under `work`; keeps
    the last, returns it with the median set-up time.

    Nothing is deleted while set-up is timed. The disk discards freed
    blocks on delete, which slows file writes for seconds afterwards, so
    the other set-ups and a previous run's directories are deleted only
    once timing is over, while the measurement runs."""
    times, kept = [], None
    for i in range(reps):
        if kept is not None and hasattr(kept, "stop"):
            kept.stop()
        directory = work / f"{os.getpid()}-{i}"
        start = time.perf_counter()
        kept = make(directory)
        times.append(time.perf_counter() - start)
    for stale in work.iterdir():
        if stale != directory:
            shutil.rmtree(stale, ignore_errors=True)
    return kept, statistics.median(times)


def e2e_batch(rid, helper, args, work):
    (inputs, analyze), setup_s = timed_setups(
        lambda d: setup_batch(rid, helper, args.workload, args.seed, d), work, SETUP_REPS)
    walls, cpus, rss, failures = measure_batch(inputs, analyze, args.workload,
                                               seconds=args.seconds)
    metrics = {
        "setup_s": setup_s,
        "latency_ms.p50": quantile(walls, 0.5) * 1e3,
        "latency_ms.p90": quantile(walls, 0.9) * 1e3,
        "cpu_ms": statistics.median(cpus) * 1e3,
        "peak_rss_mb": statistics.median(rss),
    }
    log(f"{len(walls)} rid analyze runs")
    return metrics, len(walls), failures


def e2e_daemon(rid, helper, args, work):
    daemon, setup_s = timed_setups(
        lambda d: Daemon(rid, Inputs(helper, args.workload, args.seed, d / "inputs"), d / "daemon"),
        work, SETUP_REPS)
    try:
        traffic = Traffic(daemon, args.seed)
        cpu0 = daemon.cpu_s()
        records = open_loop(daemon, traffic, E2E_RATE, int(E2E_RATE * args.seconds), THREADS)
        cpu = daemon.cpu_s() - cpu0
        step = step_summary(records)
        metrics = {
            "setup_s": setup_s,
            "latency_ms.p50": step["p50"],
            "latency_ms.p90": step["p90"],
            "cpu_ms": cpu / len(records) * 1e3,
            "peak_rss_mb": daemon.peak_rss_mb(),
        }
    finally:
        daemon.stop()
    log(f"{len(records)} requests at {E2E_RATE} rps; generator lag max {step['lag_ms']:.2f} ms")
    return metrics, len(records), step["failures"]


def run_layers(helper, inputs, analyze):
    """The helper's layer replay of `inputs`, checked against the reports
    of `analyze`'s last run."""
    cli_json = inputs.dir / "analyze.json"
    cli_json.write_bytes(analyze.stdout)
    cmd = [str(helper), "layers", "--dir", str(inputs.dir), "--threads", str(THREADS),
           "--cli-json", str(cli_json)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise BenchError(f"layer replay failed: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced_batch(rid, helper, args, work):
    (inputs, analyze), _ = timed_setups(
        lambda d: setup_batch(rid, helper, args.workload, args.seed, d), work, 1)
    walls, _, _, failures = measure_batch(inputs, analyze, args.workload, runs=TRACE_CLI_RUNS)
    replay = run_layers(helper, inputs, analyze)
    wall_s = statistics.median(walls)
    metrics = replay["metrics"]
    # The replay's own pass fails on layer times above its wall clock;
    # against the CLI, two separately timed medians, the share may dip
    # below 0 by the noise between them.
    metrics["process.unaccounted_share"] = 1.0 - replay["blocking_s"] / wall_s
    return metrics, len(walls), failures + replay["failures"]


def traced_daemon(rid, helper, args, work):
    started = time.perf_counter()
    daemon, _ = timed_setups(
        lambda d: Daemon(rid, Inputs(helper, args.workload, args.seed, d / "inputs"), d / "daemon"),
        work, 1)
    inputs = daemon.inputs
    metrics, failures, attempted, lags = {}, [], 0, []
    try:
        traffic = Traffic(daemon, args.seed)
        for rate in FIXED_RATES:
            before = daemon.stats()
            records = open_loop(daemon, traffic, rate, RATE_REQUESTS, THREADS)
            after = daemon.stats()
            step = step_summary(records)
            attempted += len(records)
            failures += step["failures"]
            lags.append(step["lag_ms"])
            log(f"{rate} rps: p50 {step['p50']:.1f} ms, p99 {step['p99']:.1f} ms")
            metrics[f"daemon.p50_ms.{rate}rps"] = step["p50"]
            metrics[f"daemon.p99_ms.{rate}rps"] = step["p99"]
        # Client latency minus the server's mean time for that op during
        # the step, at the higher fixed rate.
        means = op_means_ms(before, after)
        queue = [r[3] * 1e3 - means[r[0]] for r in records]
        metrics["serve.queue_ms.p99"] = quantile(queue, 0.99)
        max_rps = 0
        for rate in LADDER:
            if time.perf_counter() - started > TRACE_LADDER_UNTIL_S:
                log(f"ladder stopped below {rate} rps: out of time")
                break
            step = step_summary(open_loop(daemon, traffic, rate, int(rate * LADDER_STEP_S),
                                          THREADS))
            attempted += int(rate * LADDER_STEP_S)
            failures += step["failures"]
            lags.append(step["lag_ms"])
            log(f"ladder {rate} rps: p99 {step['p99']:.1f} ms, backlog {step['backlog']}")
            if step["failures"] or step["backlog"] or step["p99"] > LIMIT_MS:
                break
            max_rps = rate
        server = daemon.stats()["server"]
        metrics["daemon.max_rps"] = max_rps
        metrics["serve.coalesced"] = server["coalesced"]
        metrics["serve.backpressure"] = server["backpressure"]
        metrics["loadgen.lag_ms.max"] = max(lags)
    finally:
        daemon.stop()
    cli = Analyze(rid, inputs)
    failure = cli.run()[3]
    failures += [failure] if failure else []
    replay = run_layers(helper, inputs, cli)
    metrics.update(replay["metrics"])
    return metrics, attempted + 1, failures + replay["failures"]


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    os.chdir(ROOT)
    try:
        spec = benchmark_spec()
        rid, helper, target = build()
        # What a run leaves here, the next run deletes after its set-up.
        work = target / "perfbench" / args.workload
        work.mkdir(parents=True, exist_ok=True)
        daemon = args.workload == "daemon-mixed"
        if args.trace:
            run = traced_daemon if daemon else traced_batch
            declared = spec["per_layer"]
        else:
            run = e2e_daemon if daemon else e2e_batch
            declared = spec["end_to_end"]
        metrics, attempted, failures = run(rid, helper, args, work)
    except (BenchError, OSError, KeyError, ValueError) as e:
        log(f"error: {e}")
        return 1
    if args.trace:
        measured, idle = layer_metrics(args.workload)
        missing = set(measured) - set(metrics)
        if missing:
            log(f"error: layer metrics not measured: {sorted(missing)}")
            return 1
        metrics.update({name: 0.0 for name in idle})
    names = [m["name"] for m in declared]
    if set(names) != set(metrics):
        log(f"error: printed metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(names)}")
        return 1
    for failure in failures[:5]:
        log(f"check failed: {failure}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
