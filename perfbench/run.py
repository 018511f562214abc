#!/usr/bin/env python3
"""The gpulitmus benchmark: three workloads, end-to-end and per-layer.

Run from the repository root:

    python3 perfbench/run.py --workload validate-cold --seed 1 \\
        --seconds 15 --trace 0

Workloads (BENCHMARK.json holds the why of each; perfbench/layers.json
maps every per-layer metric to the end-to-end metric it should move):

  validate-cold      gpulitmus validate over the corpus, no store
  explore-scenarios  gpulitmus explore over the 14 scenario variants,
                     then over the corpus x all 8 chips
  serve-mixed        a gpulitmus serve daemon over a pre-filled store,
                     driven by a closed-loop load generator

With --trace 0 the real binary is timed the way a user runs it
(tracing off, telemetry counters at their default) for --seconds, and
the end-to-end metrics are printed. With --trace 1 one untraced and
one traced run of the same work give the tracing overhead, and the
probe (perfbench/probe.cc) times every layer's public functions on the
same inputs. Either way every output is checked; the last line of
stdout is the JSON result. The first run in a checkout builds the CLI
and the probe into .bench_build/ with perfbench/CMakeLists.txt.

Other modes:
    --write-reference   recompute perfbench/reference.json
    --size toy          small inputs (perfbench/test_bench.py)
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
CLI = BUILD / "gpulitmus" / "gpulitmus"
PROBE = BUILD / "perfbench_probe"
CORPUS = ROOT / "litmus-tests"
REFERENCE = BENCH / "reference.json"

WORKLOADS = ("validate-cold", "explore-scenarios", "serve-mixed")
# One CPU is left to the driver, the load generator and the rest of the
# machine, so a busy neighbour does not stall an engine worker.
WORKERS = max(1, min(4, (os.cpu_count() or 1) - 1))
CLIENTS = WORKERS
DEFAULT_SEED = 0x6C69  # the CLI's --seed default
NVIDIA_CHIPS = ["GTX280", "GTX5", "TesC", "GTX6", "Titan"]
ALL_CHIPS = NVIDIA_CHIPS + ["GTX7", "HD6570", "HD7970"]
SCENARIOS = ["cas_spinlock", "spinlock_dot_product", "work_stealing_deque",
             "ticket_lock", "producer_consumer_ring", "flag_barrier",
             "seqlock"]
SCENARIO_CHIPS = ["TesC", "Titan", "GTX7"]
RUN_TIMEOUT_S = 150  # a run stops starting new repetitions past this

SIZES = {
    # iterations: validate sim cells; budget: mc replay budget;
    # cold: serve-mixed cold requests of each kind per repetition.
    "full": dict(iterations=100000, budget=1 << 20, cold=160,
                 warm_iterations=10000, cold_iterations=2000,
                 min_reps=3, setup_reps=31, sample=40),
    "toy": dict(iterations=2000, budget=4096, cold=8,
                warm_iterations=500, cold_iterations=200,
                min_reps=1, setup_reps=2, sample=12),
}


class BenchError(Exception):
    """Set-up failed: no result can be printed."""


# ---- helpers ------------------------------------------------------------


def child_env():
    # The GPULITMUS_* knobs change iteration counts, worker counts and
    # search strategies; the benchmark fixes all of them itself.
    return {k: v for k, v in os.environ.items()
            if not k.startswith("GPULITMUS_")}


def pct(values, q):
    """Linear-interpolated quantile, q in [0, 1]."""
    s = sorted(values)
    if not s:
        return 0.0
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def median(values):
    return pct(values, 0.5)


def tail(values):
    """The highest percentile with at least ten samples beyond it, as
    (label, value); the maximum when there are too few samples."""
    n = len(values)
    if n <= 10:
        return "max", max(values) if values else 0.0
    q = 1.0 - 10.0 / n
    return "p%.4g" % (100 * q), pct(values, q)


def timing(values, scale=1.0):
    """Median, tail percentile and sample count of one timing."""
    label, hi = tail(values)
    return {"median": median(values) * scale, label: hi * scale,
            "samples": len(values)}


def wait_process(proc, timeout):
    """Wait for `proc`, killing it after `timeout` seconds; returns
    (exit code, peak RSS in MB)."""
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_cli(args, log_path, timeout=120):
    """Run the gpulitmus CLI; returns (exit code, wall s, peak RSS MB)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([str(CLI)] + args, cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT, env=child_env())
        code, rss = wait_process(proc, timeout)
        wall = time.perf_counter() - start
    return code, wall, rss


def run_probe(args, timeout=150):
    """Run the probe; returns its stdout. Raises BenchError on failure."""
    try:
        proc = subprocess.run([str(PROBE)] + args, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=timeout, env=child_env())
    except subprocess.TimeoutExpired as e:
        raise BenchError("probe %s timed out" % args[0]) from e
    if proc.returncode != 0:
        raise BenchError("probe %s failed: %s" % (args[0],
                                                  proc.stderr.strip()))
    return proc.stdout


def steal_seconds():
    """CPU time the hypervisor gave to other guests, from /proc/stat;
    recorded so a noisy run can be told from a slow program."""
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def write_requests(path, requests):
    with open(path, "w") as f:
        for r in requests:
            f.write(json.dumps(r, separators=(",", ":")) + "\n")


def canonical_cell(cell):
    """A result cell without its provenance and timing fields."""
    return json.dumps({k: v for k, v in cell.items()
                       if k not in ("cached", "millis", "from_store")},
                      sort_keys=True)


# ---- build and inputs -----------------------------------------------------


def build():
    """Configure (once) and build the CLI and the probe."""
    if not (ROOT / "CMakeLists.txt").exists() or not (ROOT / "src").is_dir():
        raise BenchError("no gpulitmus sources next to perfbench/")
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD)])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count()),
                  "--target", "gpulitmus_cli", "perfbench_probe"])
    with open(log, "wb") as out:
        for step in steps:
            if subprocess.run(step, cwd=ROOT, stdout=out,
                              stderr=subprocess.STDOUT).returncode != 0:
                raise BenchError("build failed; see %s" % log)


def corpus():
    """Corpus file paths (relative to the root) and their sources."""
    files = sorted(CORPUS.glob("*.litmus"))
    if not files:
        raise BenchError("no corpus in %s" % CORPUS)
    return [(str(f.relative_to(ROOT)), f.read_text()) for f in files]


def test_name(source):
    for line in source.splitlines():
        if line.startswith("GPU_PTX "):
            return line[len("GPU_PTX "):].strip()
    raise BenchError("corpus test without a GPU_PTX header")


def scenario_specs():
    return ["scenario:%s,fenced=%d" % (name, fenced)
            for name in SCENARIOS for fenced in (0, 1)]


def load_reference(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        raise BenchError("cannot read reference %s: %s" % (path, e)) from e


def stamp(args, probe_stamp):
    git_sha = None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            git_sha = out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "litmus-tests", "CMakeLists.txt"):
        base = ROOT / top
        for f in sorted(base.rglob("*")) if base.is_dir() else [base]:
            if f.is_file():
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    return dict(workload=args.workload, seed=args.seed, trace=args.trace,
                size=args.size, seconds=args.seconds,
                nproc=os.cpu_count(), workers=WORKERS, clients=CLIENTS,
                build_type=probe_stamp["build_type"],
                compiler=probe_stamp["compiler"], abi=probe_stamp["abi"],
                git_sha=git_sha, source_sha256=digest.hexdigest())


# ---- the outcome of a run ---------------------------------------------------


class Tally:
    """Operations attempted and failed (failed, refused or wrong)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


# ---- validate-cold ----------------------------------------------------------


class ValidateCold:
    name = "validate-cold"

    def __init__(self, ctx):
        self.ctx = ctx
        self.files = [path for path, _ in ctx.corpus]
        self.first_cells = None

    def invocations(self, zero=False):
        iterations = 0 if zero else self.ctx.size["iterations"]
        args = ["validate"] + self.files + [
            "--models", "ptx", "--seed", str(self.ctx.seed),
            "--iterations", str(iterations), "--jobs", str(WORKERS)]
        return [args]

    def requests(self, seed=None):
        return [{"cmd": "validate", "id": self.name,
                 "tests": [{"source": src} for _, src in self.ctx.corpus],
                 "models": ["ptx"],
                 "seed": self.ctx.seed if seed is None else seed,
                 "iterations": self.ctx.size["iterations"]}]

    def check_rep(self, outputs, tally):
        """outputs: [(exit code, stdout text, json cells)] per invocation."""
        ref = self.ctx.reference["validate-cold"]
        code, _, cells = outputs[0]
        ok = code == 0 and cells is not None
        if ok:
            got = sorted([c["test"], c["chip"], c["model"]] for c in cells)
            ok = (got == ref["cells"]
                  and all(c["kind"] in ("sound", "imprecise") for c in cells)
                  and not any(c["inconsistent"] for c in cells))
            if ok and self.first_cells is not None:
                # Same seed, same inputs: every repetition must agree.
                ok = cells == self.first_cells
            if ok and self.first_cells is None:
                self.first_cells = cells
        tally.record(ok, "validate: exit %s or cells differ from the "
                         "reference" % code)

    def verify(self, tally):
        """The histogram of every cell at the default seed, pinned."""
        path = self.ctx.run_dir / "default-seed.req"
        write_requests(path, self.requests(seed=DEFAULT_SEED))
        out = run_probe(["cells", "--requests", str(path),
                         "--threads", str(WORKERS)])
        digest = histogram_digest(out)
        want = self.ctx.reference["validate-cold"]["hist_digest"]
        tally.record(digest == want, "histogram digest at the default "
                                     "seed %s != %s" % (digest, want))


def histogram_digest(cells_output):
    lines = []
    for line in cells_output.splitlines():
        cell = json.loads(line)["cell"]
        if cell["backend"] == "sim":
            lines.append(json.dumps([cell["test"], cell["chip"],
                                     cell["column"], cell["iterations"],
                                     cell["seed"], cell["counts"]],
                                    sort_keys=True))
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


# ---- explore-scenarios ------------------------------------------------------

HEADER = re.compile(r"^(?P<label>.+)@(?P<chip>\S+) \(column \d+\): \d+ "
                    r"reachable states, (?P<status>complete \(fair "
                    r"schedules\)|complete|BOUNDED), ")
VERDICTS = [("  FORBIDDEN-REACHABLE", "forbidden-reachable"),
            ("  forbidden condition exact-unreachable", "unreachable"),
            ("  forbidden condition not reached", "unreached")]


def explore_cells(stdout, cells):
    """Per mc cell: status, verdict and reachable outcome keys, joined
    from the CLI's report (verdicts) and its --json cells (sets)."""
    out = {}
    key = None
    for line in stdout.splitlines():
        m = HEADER.match(line)
        if m:
            key = "%s@%s" % (m["label"], m["chip"])
            status = {"complete": "exact", "BOUNDED": "bounded"}.get(
                m["status"], "exact")
            out[key] = {"status": status, "verdict": "n/a"}
            continue
        for prefix, verdict in VERDICTS:
            if key and line.startswith(prefix):
                out[key]["verdict"] = verdict
    for cell in cells:
        if cell["backend"] != "mc":
            continue
        entry = out.get("%s@%s" % (cell["label"], cell["chip"]))
        if entry is None:
            return None
        entry["reachable"] = sorted(cell["reachable"])
    if any("reachable" not in e for e in out.values()):
        return None
    return out


def explore_cell_ok(ref, got):
    """A bounded reference is a lower bound: a later, faster explorer
    may finish the cell, but must keep every state and a reached
    forbidden condition. An exact reference must match exactly."""
    if got is None:
        return False
    if ref["status"] == "exact":
        return (got["status"] == "exact" and got["verdict"] == ref["verdict"]
                and got["reachable"] == ref["reachable"])
    if not set(ref["reachable"]) <= set(got["reachable"]):
        return False
    return (ref["verdict"] != "forbidden-reachable"
            or got["verdict"] == "forbidden-reachable")


class ExploreScenarios:
    name = "explore-scenarios"

    def __init__(self, ctx):
        self.ctx = ctx
        self.files = [path for path, _ in ctx.corpus]

    def invocations(self, zero=False):
        budget = "0" if zero else str(self.ctx.size["budget"])
        common = ["--budget", budget, "--jobs", str(WORKERS)]
        return [["explore"] + scenario_specs() +
                ["--chips", ",".join(SCENARIO_CHIPS)] + common,
                ["explore"] + self.files + ["--chips", "all"] + common]

    def requests(self):
        budget = self.ctx.size["budget"]
        return [{"cmd": "explore", "id": "scenarios",
                 "tests": [{"spec": s} for s in scenario_specs()],
                 "chips": SCENARIO_CHIPS, "budget": budget},
                {"cmd": "explore", "id": "corpus",
                 "tests": [{"source": src} for _, src in self.ctx.corpus],
                 "chips": ["all"], "budget": budget}]

    def check_rep(self, outputs, tally):
        ref = self.ctx.reference["explore-scenarios"]
        for part, (code, stdout, cells) in zip(("scenarios", "corpus"),
                                               outputs):
            want = ref[part]
            got = explore_cells(stdout, cells or [])
            ok = (code == want["exit"] and got is not None
                  and set(got) == set(want["cells"]))
            bad = []
            if ok:
                bad = [k for k, r in want["cells"].items()
                       if not explore_cell_ok(r, got[k])]
            tally.record(ok and not bad,
                         "explore %s: exit %s, cells %s" %
                         (part, code, bad[:3] or "missing"))

    def verify(self, tally):
        pass  # every repetition is checked against the reference


# ---- batch runs -------------------------------------------------------------


def run_batch_rep(ctx, workload, tally, trace_path=None):
    """One repetition of a batch workload through the CLI; returns
    (wall s, peak RSS MB, cells delivered)."""
    wall, rss, ncells, outputs = 0.0, 0.0, 0, []
    for k, args in enumerate(workload.invocations()):
        out_json = ctx.run_dir / ("cells-%d.json" % k)
        log = ctx.run_dir / ("cli-%d.log" % k)
        if out_json.exists():
            out_json.unlink()
        extra = ["--json", str(out_json.relative_to(ROOT))]
        if trace_path is not None:
            extra += ["--trace", "%s-%d.json" % (
                Path(trace_path).relative_to(ROOT), k)]
        code, w, r = run_cli(args + extra, log)
        wall += w
        rss = max(rss, r)
        cells = None
        try:
            cells = json.loads(out_json.read_text())
            ncells += len(cells)
        except (OSError, ValueError):
            pass
        outputs.append((code, log.read_text(errors="replace"), cells))
    workload.check_rep(outputs, tally)
    return wall, rss, ncells


def batch_setup_s(ctx, workload):
    """CLI start, load and plan: the workload's invocations with the
    sampling and exploration sized to zero, median of several."""
    samples = []
    for rep in range(ctx.size["setup_reps"] + 1):
        total = 0.0
        for k, args in enumerate(workload.invocations(zero=True)):
            _, w, _ = run_cli(args, ctx.run_dir / ("setup-%d.log" % k))
            total += w
        if rep > 0:  # the first one warms the page cache
            samples.append(total)
    return samples


def run_batch(ctx, workload, tally):
    setup = batch_setup_s(ctx, workload)
    walls, rss, rates = [], [], []
    start = time.perf_counter()
    while True:
        w, r, n = run_batch_rep(ctx, workload, tally)
        walls.append(w)
        rss.append(r)
        rates.append(n / w)
        elapsed = time.perf_counter() - start
        if (elapsed >= ctx.seconds and len(walls) >= ctx.size["min_reps"]) \
                or elapsed > RUN_TIMEOUT_S:
            break
    workload.verify(tally)
    return {
        "wall_s": median(walls), "cells_per_s": median(rates),
        # A batch workload is one request: the whole command sequence.
        "req_p50_ms": median(walls) * 1e3, "req_p99_ms": pct(walls, 0.99) * 1e3,
        "setup_s": median(setup), "peak_rss_mb": median(rss),
    }, {"wall_s": timing(walls), "setup_s": timing(setup),
        "peak_rss_mb": timing(rss), "cells_per_s": timing(rates),
        "reps": {"wall_s": walls, "setup_s": setup}}


def run_batch_traced(ctx, workload, tally):
    wall_u, _, _ = run_batch_rep(ctx, workload, tally)
    wall_t, _, _ = run_batch_rep(ctx, workload, tally,
                                 trace_path=ctx.run_dir / "cli-trace")
    req_path = ctx.run_dir / "workload.req"
    write_requests(req_path, workload.requests())
    engine = json.loads(run_probe(["engine", "--requests", str(req_path),
                                   "--threads", str(WORKERS),
                                   "--clients", "1"]))
    layers = json.loads(run_probe(
        ["layers", "--requests", str(req_path), "--threads", str(WORKERS),
         "--trace-out", str(ctx.run_dir / "layers-trace.json")]))
    workload.verify(tally)
    return layer_metrics(layers, engine, wall_u, wall_t, serve_p50=0.0), \
        {"engine": engine}


def layer_metrics(layers, engine, wall_u, wall_t, serve_p50):
    m = {k: v for k, v in layers.items() if "." in k}
    m.update({
        "eval.queue_wait_ms_p50": engine["queue_wait_us_p50"] / 1e3,
        "eval.worker_util": engine["worker_util"],
        "eval.cache_hit_ratio": engine["cache_hit_ratio"],
        "store.hit_ratio": engine["store_hit_ratio"],
        "serve.request_ms_p50": serve_p50,
        "trace.overhead_ratio": wall_t / wall_u,
        # Layer self time against the worker time of the traced run.
        "trace.coverage": layers["self_ms"] / (WORKERS * wall_t * 1e3),
    })
    return m


# ---- serve-mixed ------------------------------------------------------------


def daemon_call(sock_path, request, timeout=60):
    """One request over a fresh connection; returns the events."""
    with socket.socket(socket.AF_UNIX) as s:
        s.settimeout(timeout)
        s.connect(sock_path)
        f = s.makefile("rb")
        json.loads(f.readline())  # hello
        s.sendall((json.dumps(request) + "\n").encode())
        events = []
        while True:
            line = f.readline()
            if not line:
                return events
            events.append(json.loads(line))
            if events[-1]["event"] in ("done", "error"):
                return events


class Daemon:
    """A gpulitmus serve process on a Unix socket, stopped on exit."""

    def __init__(self, ctx, store, trace_path=None):
        self.sock = str((ctx.run_dir / "d.sock").relative_to(ROOT))
        args = [str(CLI), "serve", "--socket", self.sock,
                "--store", str(Path(store).relative_to(ROOT)),
                "--jobs", str(WORKERS)]
        if trace_path is not None:
            args += ["--trace", str(Path(trace_path).relative_to(ROOT))]
        self.log = open(ctx.run_dir / "daemon.log", "ab")
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(args, cwd=ROOT, stdout=self.log,
                                     stderr=subprocess.STDOUT,
                                     env=child_env())
        self.rss_mb = 0.0

    def hello(self, timeout=30):
        """Seconds from spawn to the first answered hello."""
        deadline = self.start + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise BenchError("daemon exited at start-up")
            try:
                with socket.socket(socket.AF_UNIX) as s:
                    s.connect(self.sock)
                    line = s.makefile("rb").readline()
                    if json.loads(line)["event"] == "hello":
                        return time.perf_counter() - self.start
            except (OSError, ValueError):
                time.sleep(0.0005)
        raise BenchError("daemon did not answer hello")

    def stop(self):
        """Clean shutdown request; returns True when the daemon exited
        0 on its own. Kills it otherwise."""
        clean = False
        if self.proc.returncode is None:
            try:
                events = daemon_call(self.sock, {"cmd": "shutdown",
                                                 "id": "bye"}, timeout=30)
                clean = bool(events) and events[-1]["event"] == "done"
            except (OSError, ValueError):
                pass
            code, self.rss_mb = wait_process(self.proc, 30)
            clean = clean and code == 0
        self.log.close()
        return clean

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if not self.log.closed:
            self.log.close()


class ServeMixed:
    name = "serve-mixed"

    def __init__(self, ctx):
        self.ctx = ctx
        size = ctx.size
        in_scope = set(t for t, _, _ in ctx.reference["validate-cold"]["cells"])
        sources = [src for _, src in ctx.corpus]
        scoped = [src for src in sources if test_name(src) in in_scope]
        rnd = random.Random("serve-mixed:%d" % ctx.seed)
        self.prefill = [
            {"cmd": "validate", "id": "prefill-validate",
             "tests": [{"source": s} for s in scoped], "models": ["ptx"],
             "iterations": size["warm_iterations"], "seed": ctx.seed},
            {"cmd": "explore", "id": "prefill-explore",
             "tests": [{"source": s} for s in sources], "chips": ["all"],
             "budget": size["budget"]}]
        # The mix is stratified so that every seed asks for the same
        # amount of work: `cold` cold explores (one per (test, chip)
        # pair, each at an unseen column), `cold` cold validates
        # cycling through the 1-2 tests x 1-2 chips shapes with fresh
        # seeds, and nine warm requests per cold one, half validate,
        # half explore. The seed picks tests, chips, columns and order.
        cold = size["cold"]
        pairs = [(t, c) for t in range(len(sources)) for c in ALL_CHIPS]
        rnd.shuffle(pairs)
        self.requests = []
        for t, chip in pairs[:cold]:
            self.requests.append({
                "cmd": "explore", "tests": [sources[t]], "chips": [chip],
                "column": rnd.randint(1, 15), "budget": size["budget"]})
        for i in range(cold):
            self.requests.append({
                "cmd": "validate", "tests": rnd.sample(scoped, 1 + i % 2),
                "chips": rnd.sample(NVIDIA_CHIPS, 1 + i // 2 % 2),
                "models": ["ptx"], "iterations": size["cold_iterations"],
                "seed": (1 << 32) + rnd.getrandbits(40)})
        for i in range(18 * cold):
            if i % 2 == 0:
                self.requests.append({
                    "cmd": "validate",
                    "tests": rnd.sample(scoped, rnd.randint(1, 4)),
                    "chips": rnd.sample(NVIDIA_CHIPS, rnd.randint(1, 3)),
                    "models": ["ptx"],
                    "iterations": size["warm_iterations"], "seed": ctx.seed})
            else:
                self.requests.append({
                    "cmd": "explore",
                    "tests": rnd.sample(sources, rnd.randint(1, 4)),
                    "chips": rnd.sample(ALL_CHIPS, rnd.randint(1, 3)),
                    "column": 16, "budget": size["budget"]})
        rnd.shuffle(self.requests)
        for i, req in enumerate(self.requests):
            req["tests"] = [{"source": src} for src in req["tests"]]
            req["id"] = "r%d" % i
        self.keep = sorted(rnd.sample(range(len(self.requests)),
                                      size["sample"]))
        self.req_path = ctx.run_dir / "load.req"
        write_requests(self.req_path, self.requests)
        self.pristine = ctx.run_dir / "store-prefilled"
        self.expected = None

    def prefill_store(self, tally):
        with Daemon(self.ctx, self.pristine) as d:
            d.hello()
            for req in self.prefill:
                events = daemon_call(d.sock, req, timeout=120)
                summary = [e for e in events if e["event"] == "summary"]
                tally.record(bool(summary) and summary[0]["unsound"] == 0,
                             "prefill %s failed" % req["id"])
            if not d.stop():
                raise BenchError("daemon did not shut down cleanly")

    def rep(self, tally, trace_path=None, metrics_out=None):
        """One repetition: a fresh daemon over a copy of the pre-filled
        store, the whole request list, a clean shutdown. Returns
        (setup s, wall s, latencies s, cells, peak RSS MB)."""
        store = self.ctx.run_dir / "store"
        shutil.rmtree(store, ignore_errors=True)
        shutil.copytree(self.pristine, store)
        out = self.ctx.run_dir / "load.out"
        with Daemon(self.ctx, store, trace_path) as d:
            setup = d.hello()
            run_probe(["load", "--socket", d.sock,
                       "--requests", str(self.req_path),
                       "--clients", str(CLIENTS), "--out", str(out),
                       "--keep", ",".join(map(str, self.keep))])
            if metrics_out is not None:
                events = daemon_call(d.sock, {"cmd": "metrics", "id": "m"})
                metrics_out.update(events[0].get("metrics", {}))
            clean = d.stop()
            tally.record(clean, "daemon shutdown was not clean")
            rss = d.rss_mb
        lines = out.read_text().splitlines()
        head = json.loads(lines[0])
        latencies, cells = [], 0
        for line in lines[1:]:
            r = json.loads(line)
            req = self.requests[r["i"]]
            s = r["summary"]
            ok = r["exit"] in (0, 2) and not r["error"] and s is not None
            if ok:
                cells += s["results"]
                latencies.append(r["us"] / 1e6)
                want = 2 if (s["unsound"] or s["inconsistent"] or
                             (req["cmd"] == "explore" and
                              s["forbidden_reachable"])) else 0
                ok = (s["unsound"] == 0 and s["inconsistent"] == 0
                      and r["exit"] == want)
            if ok and r["i"] in self.keep:
                got = [canonical_cell(c["cell"]) for c in r["cells"]]
                ok = got == self.expected[r["i"]]
            tally.record(ok, "request %s: exit %s %s" %
                         (req["id"], r["exit"], r["error"]))
        return setup, head["wall_ms"] / 1e3, latencies, cells, rss

    def compute_expected(self):
        """The sampled requests' cells, computed in-process."""
        path = self.ctx.run_dir / "sample.req"
        write_requests(path, [self.requests[i] for i in self.keep])
        out = run_probe(["cells", "--requests", str(path),
                         "--threads", str(WORKERS)])
        self.expected = {i: [] for i in self.keep}
        for line in out.splitlines():
            rec = json.loads(line)
            self.expected[self.keep[rec["req"]]].append(
                canonical_cell(rec["cell"]))


def run_serve(ctx, tally):
    w = ServeMixed(ctx)
    w.prefill_store(tally)
    w.compute_expected()
    setups, walls, lats, rates, rss = [], [], [], [], []
    start = time.perf_counter()
    while True:
        s, wall, lat, cells, r = w.rep(tally)
        setups.append(s)
        walls.append(wall)
        lats.extend(lat)
        rates.append(cells / wall)
        rss.append(r)
        elapsed = time.perf_counter() - start
        if (elapsed >= ctx.seconds and len(walls) >= ctx.size["min_reps"]) \
                or elapsed > RUN_TIMEOUT_S:
            break
    lats = lats or [0.0]
    return {
        "wall_s": median(walls), "cells_per_s": median(rates),
        "req_p50_ms": median(lats) * 1e3, "req_p99_ms": pct(lats, 0.99) * 1e3,
        "setup_s": median(setups), "peak_rss_mb": median(rss),
    }, {"wall_s": timing(walls), "setup_s": timing(setups),
        "req_ms": timing(lats, 1e3), "peak_rss_mb": timing(rss),
        "cells_per_s": timing(rates), "requests_per_rep": len(w.requests),
        "reps": {"wall_s": walls, "setup_s": setups}}


def request_span_p50_ms(trace_path):
    """Median daemon-side request latency from its Perfetto trace."""
    doc = json.loads(Path(trace_path).read_text())
    durs = [e["dur"] / 1e3 for e in doc["traceEvents"]
            if e.get("cat") == "serve"
            and e.get("name") in ("request validate", "request explore")]
    return median(durs)


def run_serve_traced(ctx, tally):
    w = ServeMixed(ctx)
    w.prefill_store(tally)
    w.compute_expected()
    _, wall_u, _, _, _ = w.rep(tally)
    trace = ctx.run_dir / "daemon-trace.json"
    registry = {}
    _, wall_t, _, _, _ = w.rep(tally, trace_path=trace, metrics_out=registry)
    copy = ctx.run_dir / "store-probe"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(w.pristine, copy)
    engine = json.loads(run_probe(
        ["engine", "--requests", str(w.req_path), "--threads", str(WORKERS),
         "--clients", str(CLIENTS), "--store", str(copy)]))
    shutil.rmtree(copy)
    shutil.copytree(w.pristine, copy)
    layers = json.loads(run_probe(
        ["layers", "--requests", str(w.req_path), "--threads", str(WORKERS),
         "--store", str(copy),
         "--trace-out", str(ctx.run_dir / "layers-trace.json")]))
    return layer_metrics(layers, engine, wall_u, wall_t,
                         serve_p50=request_span_p50_ms(trace)), \
        {"engine": engine, "daemon_registry": registry}


# ---- reference --------------------------------------------------------------


def write_reference(ctx):
    """Recompute the pinned outputs for ctx.size and merge them into
    perfbench/reference.json."""
    ctx.seed = DEFAULT_SEED
    v = ValidateCold(ctx)
    args = v.invocations()[0] + ["--json",
                                 str((ctx.run_dir / "v.json").relative_to(ROOT))]
    code, _, _ = run_cli(args, ctx.run_dir / "v.log")
    if code != 0:
        raise BenchError("validate exited %d" % code)
    cells = json.loads((ctx.run_dir / "v.json").read_text())
    path = ctx.run_dir / "default-seed.req"
    write_requests(path, v.requests(seed=DEFAULT_SEED))
    ref = {"validate-cold": {
        "cells": sorted([c["test"], c["chip"], c["model"]] for c in cells),
        "hist_digest": histogram_digest(run_probe(
            ["cells", "--requests", str(path), "--threads", str(WORKERS)]))}}
    e = ExploreScenarios(ctx)
    ref["explore-scenarios"] = {}
    for part, args in zip(("scenarios", "corpus"), e.invocations()):
        out = ctx.run_dir / ("e-%s.json" % part)
        log = ctx.run_dir / ("e-%s.log" % part)
        code, _, _ = run_cli(args + ["--json", str(out.relative_to(ROOT))], log)
        got = explore_cells(log.read_text(), json.loads(out.read_text()))
        if got is None:
            raise BenchError("cannot read the explore output")
        ref["explore-scenarios"][part] = {"exit": code, "cells": got}
    full = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    full[ctx.size_name] = ref
    REFERENCE.write_text(json.dumps(full, indent=1, sort_keys=True) + "\n")
    print("wrote %s [%s]" % (REFERENCE.relative_to(ROOT), ctx.size_name))


# ---- main -------------------------------------------------------------------


class Context:
    def __init__(self, args):
        self.seed = args.seed
        self.seconds = args.seconds
        self.size_name = args.size
        self.size = SIZES[args.size]
        self.corpus = corpus()
        tag = "%s-s%d-t%d-%s" % (args.workload, args.seed, args.trace,
                                 args.size)
        self.run_dir = BUILD / "runs" / tag
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.run_dir.mkdir(parents=True)
        self.reference = None
        if not args.write_reference:
            self.reference = load_reference(args.reference)[args.size]


def catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        default="validate-cold")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--reference", default=str(REFERENCE))
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    os.chdir(ROOT)

    try:
        end_to_end, per_layer = catalogue()
        build()
        ctx = Context(args)
        if args.write_reference:
            write_reference(ctx)
            return 0
        probe_stamp = json.loads(run_probe(["stamp"]))
        tally = Tally()
        steal = steal_seconds()
        workload = {"validate-cold": ValidateCold,
                    "explore-scenarios": ExploreScenarios}.get(args.workload)
        if args.trace == 0:
            if workload:
                values, detail = run_batch(ctx, workload(ctx), tally)
            else:
                values, detail = run_serve(ctx, tally)
            values["ok_ratio"] = 1.0 - tally.failed / max(1, tally.attempted)
            wanted = end_to_end
        else:
            if workload:
                values, detail = run_batch_traced(ctx, workload(ctx), tally)
            else:
                values, detail = run_serve_traced(ctx, tally)
            wanted = per_layer
        steal = steal_seconds() - steal
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2

    record = {
        "stamp": stamp(args, probe_stamp),
        "error_ratio": tally.failed / max(1, tally.attempted),
        "steal_s": steal,
        "problems": tally.problems,
        "timings": detail,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    (ctx.run_dir / "record.json").write_text(json.dumps(record, indent=1))
    print("stamp " + json.dumps(record["stamp"], sort_keys=True))
    print("error_ratio %.6g (%d of %d operations failed)" %
          (record["error_ratio"], tally.failed, tally.attempted))
    print("steal_s %.3f" % steal)
    for problem in tally.problems:
        print("FAILED: " + problem)
    for name, t in sorted(detail.items()):
        if isinstance(t, dict) and "samples" in t:
            print("%s %s" % (name, json.dumps(t, sort_keys=True)))
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": record["metrics"]}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
