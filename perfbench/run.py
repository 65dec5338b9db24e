#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the dynex simulator.

    python3 perfbench/run.py --workload suite|campaign|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout. The script builds `dynex` and
`dynex_serve` into .bench_build, generates the workload's traces from
the seed under .bench_work, sets the program up several times, then
runs the workload's operation for S seconds. Every operation's output is
checked against a reference: the object-model (`per-leg`) engine, a
direct-mapped model written in Python, and the identities every leg must
satisfy. The last line of stdout is one JSON object:

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
program writes its own reports and the metrics are per layer. See
perfbench/README.md for what each workload and metric means.
"""

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import programs  # noqa: E402

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
SIZES = [1024 << i for i in range(8)]  # the paper's 1KB..128KB axis
LINES = (4, 16)
SETUP_REPEATS = 9
MIN_OPS = 100  # so ten or more samples lie beyond the 90th percentile
DECODE_REPEATS = 9
IMPORT_PAIRS = 15
OP_TIMEOUT_S = 60
MODELS = ("dm", "de", "opt")
SOURCE_EXT = {"text": ".txt", "lackey": ".lk"}  # generated input files

LAYER_UNITS = {
    "import_ms": "ms",
    "decode_ms": "ms",
    "index_build_ms": "ms",
    "replay_ms": "ms",
    "dm_ns_per_ref": "ns",
    "de_ns_per_ref": "ns",
    "opt_ns_per_ref": "ns",
    "store_hits": "count",
    "dm_miss_pct": "%",
    "de_miss_pct": "%",
    "opt_miss_pct": "%",
    "gen_delay_max_ms": "ms",
}


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


class CheckFailed(Exception):
    """An output of the program disagrees with its reference."""


def check(condition, what):
    if not condition:
        raise CheckFailed(what)


# ---------------------------------------------------------------- build

def build():
    """Configure once, then (re)build the two binaries the workloads use."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("perfbench: no CMakeLists.txt here; run from the "
                 "repository root")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", ROOT, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j4",
                    "--target", "dynex", "dynex_serve"],
                   stdout=sys.stderr, check=True)
    tools = os.path.join(BUILD, "tools")
    return os.path.join(tools, "dynex"), os.path.join(tools, "dynex_serve")


# ------------------------------------------------------------ processes

class Ran:
    """One finished child process: exit code, output and its cost."""

    def __init__(self, rc, out, err, wall, rss_mb):
        self.rc, self.out, self.err = rc, out, err
        self.wall, self.rss_mb = wall, rss_mb


_capture_ids = iter(range(1 << 62))


def run(args):
    """Run @p args in WORK; reap it with its own resource usage."""
    tag = next(_capture_ids)
    paths = [os.path.join(WORK, f".out{tag}"),
             os.path.join(WORK, f".err{tag}")]
    with open(paths[0], "wb") as out, open(paths[1], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err, cwd=WORK)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    texts = []
    for path in paths:
        with open(path, encoding="utf-8", errors="replace") as f:
            texts.append(f.read())
        os.remove(path)
    return Ran(proc.returncode, texts[0], texts[1], wall,
               usage.ru_maxrss / 1024.0)


def run_ok(args):
    ran = run(args)
    check(ran.rc == 0, f"{' '.join(args[1:3])} exited {ran.rc}: "
                       f"{ran.err.strip()[-300:]}")
    return ran


def table_body(text):
    """A sweep table without its header line, which names the source."""
    return text.split("\n", 1)[1] if "\n" in text else ""


def read_json(path):
    with open(path) as f:
        return json.load(f)


# ---------------------------------------------------------------- spans

class Spans:
    """Benchmark-side spans around each call into a layer, written as
    Chrome trace events to .bench_work/spans.json by a --trace 1 run."""

    def __init__(self):
        self.events = []
        self.origin = time.perf_counter()

    def add(self, name, start, seconds, **args):
        self.events.append({"name": name, "ph": "X", "pid": 1, "tid": 1,
                            "ts": (start - self.origin) * 1e6,
                            "dur": seconds * 1e6, "args": args})

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"traceEvents": self.events}, f)


# ----------------------------------------------------------- reference

def check_legs(legs, trace, line, rng):
    """Identities every sweep leg must satisfy, plus the exact
    direct-mapped miss count of one seeded leg from the Python model.

    @p legs are the dynex-metrics-v1 legs of @p trace at @p line bytes,
    in size order.
    """
    label = f"{trace.name}/{line}B"
    previous = None
    for leg in legs:
        where = f"{label} {leg['sizeBytes']}B"
        check(leg["ok"], f"{where}: leg failed")
        cold = leg["dm"]["coldMisses"]
        for model in MODELS:
            s = leg[model]
            check(s["accesses"] == trace.refs, f"{where} {model}: accesses")
            check(s["hits"] + s["misses"] == s["accesses"],
                  f"{where} {model}: hits + misses != accesses")
            check(s["fills"] + s["bypasses"] == s["misses"],
                  f"{where} {model}: fills + bypasses != misses")
            check(s["evictions"] == s["fills"] - s["coldMisses"],
                  f"{where} {model}: evictions != fills - cold")
            check(s["coldMisses"] == cold, f"{where} {model}: cold misses")
        check(leg["opt"]["misses"] <= min(leg["de"]["misses"],
                                          leg["dm"]["misses"]),
              f"{where}: optimal is not the lowest")
        if previous:
            for model in ("dm", "opt"):
                check(leg[model]["misses"] <= previous[model]["misses"],
                      f"{where}: {model} misses rose with size")
        previous = leg
    leg = rng.choice(legs)
    want = programs.direct_mapped_misses(trace.addresses(), leg["sizeBytes"],
                                         line)
    check(leg["dm"]["misses"] == want,
          f"{label} {leg['sizeBytes']}B: dm misses {leg['dm']['misses']} "
          f"!= reference {want}")


def reference_sweep(dynex, path, line, trace, rng):
    """The object-model engine's checked sweep of @p path: (table, legs)."""
    report = os.path.join(WORK, "reference.json")
    ran = run_ok([dynex, "sweep", path, "--line", str(line),
                  "--replay", "per-leg", "--metrics-out", report])
    legs = read_json(report)["legs"]
    check([leg["sizeBytes"] for leg in legs] == SIZES,
          f"{trace.name}: unexpected size axis")
    check_legs(legs, trace, line, rng)
    return table_body(ran.out), legs


def replay_layers(reports):
    """Mean index build and replay time per sweep, and replay ns per
    reference and leg for each model, from dynex-metrics-v1 reports."""
    model_ns = dict.fromkeys(MODELS, 0)
    ref_legs = 0
    for report in reports:
        for leg in report["legs"]:
            ref_legs += leg["refs"]
            for m in MODELS:
                model_ns[m] += leg["timing"][m + "ReplayNs"]
    got = {
        "index_build_ms": statistics.fmean(
            r["counters"]["index-build-ns"] for r in reports) / 1e6,
        "replay_ms": statistics.fmean(
            sum(leg["timing"]["replayNs"] for leg in r["legs"])
            for r in reports) / 1e6,
    }
    for m in MODELS:
        got[m + "_ns_per_ref"] = model_ns[m] / ref_legs
    return got


# ------------------------------------------------------------ workloads

class Op:
    """One timed operation's outcome."""

    def __init__(self, wall, rss_mb, ok):
        self.wall, self.rss_mb, self.ok = wall, rss_mb, ok


class Workload:
    """Prepare inputs and references, set up, measure, report layers.

    A subclass names its TRACES as (name, refs, code_kb, source format),
    the EXT its inputs are imported into and the ENGINE its operations
    replay with."""

    ENGINE = "batched"

    def __init__(self, dynex, serve, seed, traced, spans):
        self.dynex, self.serve = dynex, serve
        self.seed, self.traced, self.spans = seed, traced, spans
        self.rng = random.Random(f"{seed}/check")
        self.imports = []  # wall seconds of each `dynex import`

    def prepare(self):
        """Generate the traces, import each into EXT, and keep the object
        model's checked sweep of each (trace, line) as the reference."""
        self.traces = []
        for name, refs, code_kb, fmt in self.TRACES:
            trace = programs.generate(self.seed, name, refs, code_kb)
            trace.fmt = fmt
            path = os.path.join(WORK, name)
            with open(path + SOURCE_EXT["lackey"], "wb") as f:
                f.write(trace.lackey)
            with open(path + SOURCE_EXT["text"], "w") as f:
                f.write(trace.text)
            self.traces.append(trace)
        self.golden, self.sweeps = {}, {}
        for trace in self.traces:
            self.import_trace(trace)
            for line in LINES:
                key = (trace.name, line)
                self.golden[key], self.sweeps[key] = reference_sweep(
                    self.dynex, trace.name + self.EXT, line, trace, self.rng)
        self.plan = sorted(self.golden)

    def import_trace(self, trace):
        source = trace.name + SOURCE_EXT[trace.fmt]
        start = time.perf_counter()
        ran = run_ok([self.dynex, "import", source, trace.name + self.EXT,
                      "--format", trace.fmt, "--force"])
        self.imports.append(ran.wall)
        self.spans.add("import", start, ran.wall, source=source)
        return ran.wall

    def miss_pcts(self):
        """Mean modelled miss rate per model over the reference legs."""
        legs = [leg for legs in self.sweeps.values() for leg in legs]
        return {m + "_miss_pct": statistics.fmean(
                    100.0 * leg[m]["misses"] / leg[m]["accesses"]
                    for leg in legs)
                for m in MODELS}

    def sweep_reports(self):
        """One metrics-reporting local sweep per (trace, line)."""
        reports = []
        path = os.path.join(WORK, "layer.json")
        for name, line in self.plan:
            start = time.perf_counter()
            ran = run_ok([self.dynex, "sweep", name + self.EXT, "--line",
                          str(line), "--replay", self.ENGINE,
                          "--metrics-out", path])
            self.spans.add("sweep", start, ran.wall, trace=name, line=line)
            reports.append(read_json(path))
        return reports

    def layers(self):
        got = replay_layers(self.sweep_reports())
        got["store_hits"] = 0
        got["import_ms"] = statistics.median(self.imports) * 1e3
        return got

    def decode_ms(self):
        """One stored input's load: the median wall time of `dynex info`
        (load and summarize) on each input, averaged, less that on a
        64-reference file of the same format, which is process start-up."""
        tiny = programs.generate(self.seed, "tiny", 64, 32)
        with open(os.path.join(WORK, "tiny.txt"), "w") as f:
            f.write(tiny.text)
        run_ok([self.dynex, "import", "tiny.txt", "tiny" + self.EXT,
                "--format", "text", "--force"])

        def median_info(name):
            walls = []
            for _ in range(DECODE_REPEATS):
                start = time.perf_counter()
                ran = run_ok([self.dynex, "info", name + self.EXT])
                walls.append(ran.wall)
                self.spans.add("decode", start, walls[-1], trace=name)
            return statistics.median(walls)

        startup = median_info("tiny")
        return (statistics.fmean(median_info(t.name) for t in self.traces)
                - startup) * 1e3

    def measure(self, seconds):
        """Closed loop: one operation after another for @p seconds, and
        for at least MIN_OPS operations. The generator's delay is the
        benchmark's own time between one operation's process ending and
        the next one starting (its output checks)."""
        ops, start = [], time.perf_counter()
        self.gen_delays = []
        while len(ops) < MIN_OPS or time.perf_counter() - start < seconds:
            began = time.perf_counter()
            ops.append(self.op(len(ops)))
            self.gen_delays.append(time.perf_counter() - began - ops[-1].wall)
        return ops

    def teardown(self):
        pass


class Suite(Workload):
    """`dynex sweep --replay kernel` over a suite of seeded program
    traces stored as DXT3: decode, next-use index build and the SoA
    kernel's DM/DE/optimal replay over the paper's size axis at 4B and
    16B lines."""

    TRACES = [("s32k", 240_000, 32, "text"), ("s64k", 240_000, 64, "text"),
              ("s128k", 240_000, 128, "text"),
              ("s256k", 240_000, 256, "text")]
    EXT = ".dxt3"
    ENGINE = "kernel"

    def prepare(self):
        super().prepare()
        self.rng.shuffle(self.plan)

    def setup(self):
        """Import the whole suite from the text format into DXT3."""
        return sum(self.import_trace(t) for t in self.traces)

    def op(self, k):
        name, line = self.plan[k % len(self.plan)]
        ran = run([self.dynex, "sweep", name + self.EXT, "--line", str(line),
                   "--replay", self.ENGINE])
        ok = ran.rc == 0 and table_body(ran.out) == self.golden[(name, line)]
        return Op(ran.wall, ran.rss_mb, ok)


class Campaign(Workload):
    """`dynex campaign run` of a .dxc spec that imports one text and one
    lackey trace and reads one DXT2 file, sweeping three models over the
    paper's size axis at two line sizes: import, leg lowering, replay and
    report merge."""

    # Short traces keep an operation well under the host's contention
    # spells (see end_to_end), so its 90th percentile stays put.
    TRACES = [("ctext", 30_000, 64, "text"),
              ("clackey", 30_000, 128, "lackey"),
              ("cfile", 30_000, 32, "text")]
    EXT = ".dxt2"
    REPORT_KEYS = {"dm": "dmMissPct", "de": "dynexMissPct",
                   "opt": "optMissPct"}

    def spec(self, out, engine=None, imports=True):
        """Write the spec @p out.dxc; without @p imports it reads the two
        imported traces from their pre-imported DXT2 files instead."""
        path = os.path.join(WORK, out + ".dxc")
        if imports:
            sources = [f'  trace import "{WORK}/ctext.txt" format text'
                       ' as ctext;',
                       f'  trace import "{WORK}/clackey.lk" format lackey'
                       ' as clackey;']
        else:
            sources = [f'  trace file "{WORK}/{name}.dxt2" as {name};'
                       for name in ("ctext", "clackey")]
        lines = ['campaign "perfbench" {', *sources,
                 f'  trace file "{WORK}/cfile.dxt2" as cfile;',
                 "  models dm, dynex, opt;",
                 "  lines 4, 16;",
                 f'  output json "{WORK}/{out}.json";',
                 f'  output csv "{WORK}/{out}.csv";']
        if engine:
            lines.append(f"  engine {engine};")
        with open(path, "w") as f:
            f.write("\n".join(lines + ["}", ""]))
        return path

    def prepare(self):
        """The object-model engine's campaign reports are the golden
        ones; every leg must carry the miss rates of the checked
        reference sweep of the same (trace, line, size)."""
        super().prepare()
        run_ok([self.dynex, "campaign", "run", self.spec("golden", "per-leg")])
        with open(os.path.join(WORK, "golden.csv")) as f:
            self.golden_csv = f.read()
        self.golden_legs = read_json(os.path.join(WORK, "golden.json"))["legs"]
        check(len(self.golden_legs) == len(self.sweeps) * len(SIZES),
              "campaign: wrong leg count")
        for leg in self.golden_legs:
            want = self.sweeps[(leg["trace"], leg["lineBytes"])][
                SIZES.index(leg["sizeBytes"])]
            for model, key in self.REPORT_KEYS.items():
                pct = 100.0 * want[model]["misses"] / want[model]["accesses"]
                check(abs(leg[key] - pct) < 1e-9,
                      f"campaign {leg['trace']} {leg['lineBytes']}B "
                      f"{leg['sizeBytes']}B {model}: {leg[key]}% != {pct}%")
        self.op_spec = self.spec("op")
        self.file_spec = self.spec("file", imports=False)
        run_ok([self.dynex, "campaign", "run", self.file_spec])
        with open(os.path.join(WORK, "file.csv")) as f:
            check(f.read() == self.golden_csv,
                  "campaign from DXT2 files differs from the golden one")

    def setup(self):
        """Validate the spec and import each of its sources into DXT2."""
        start = time.perf_counter()
        run_ok([self.dynex, "campaign", "check", self.op_spec])
        for trace in self.traces:
            self.import_trace(trace)
        return time.perf_counter() - start

    def op(self, k):
        ran = run([self.dynex, "campaign", "run", self.op_spec])
        ok = ran.rc == 0
        if ok:
            with open(os.path.join(WORK, "op.csv")) as f:
                ok = f.read() == self.golden_csv
            ok = ok and read_json(os.path.join(WORK, "op.json"))["legs"] == \
                self.golden_legs
        return Op(ran.wall, ran.rss_mb, ok)

    def layers(self):
        """The importers as the campaign executor calls them, by
        difference: paired runs of the op spec and of the same spec
        reading the two imported traces from DXT2 files; the median pair
        difference per imported source. The campaign report carries no
        timings, so index build and replay come from `dynex sweep` of the
        same DXT2 files with the campaign's (batched) engine."""
        got = super().layers()
        diffs = []
        for _ in range(IMPORT_PAIRS):
            start = time.perf_counter()
            imported = run_ok([self.dynex, "campaign", "run", self.op_spec])
            from_files = run_ok([self.dynex, "campaign", "run",
                                 self.file_spec])
            self.spans.add("campaign-import-pair", start,
                           time.perf_counter() - start,
                           imported_ms=imported.wall * 1e3,
                           from_files_ms=from_files.wall * 1e3)
            diffs.append(imported.wall - from_files.wall)
        got["import_ms"] = statistics.median(diffs) / 2 * 1e3
        return got


class Serve(Workload):
    """A live `dynex_serve` answering `dynex remote-sweep` requests that
    arrive open-loop at a fixed pace from four simulated users over a
    warm TraceStore: framing, admission, store hits and replay."""

    TRACES = [("v64k", 120_000, 64, "lackey"),
              ("v128k", 120_000, 128, "lackey")]
    EXT = ".dxt2"
    # A sixth of the warm daemon's capacity: perfbench/capacity.py
    # measured 70 sweeps/s at 4 and 8 closed-loop clients (README). The
    # 83 ms between arrivals exceeds a sweep's contended 90th-percentile
    # latency, so requests seldom overlap and none queues behind another.
    RATE_PER_S = 12.0
    USERS = 4
    MAX_IN_FLIGHT = 4
    daemon = None

    def start_daemon(self):
        port_file = os.path.join(WORK, "port")
        if os.path.exists(port_file):
            os.remove(port_file)
        args = [self.serve, "--workers", "2", "--port-file", port_file]
        for trace in self.traces:
            args += ["--trace", trace.name + self.EXT]
        if self.traced:
            args += ["--metrics-out", os.path.join(WORK, "server.json")]
        self.daemon_log = open(os.path.join(WORK, "serve.log"), "wb")
        self.daemon = subprocess.Popen(args, cwd=WORK, stdout=self.daemon_log,
                                       stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            check(self.daemon.poll() is None, "dynex_serve exited early")
            if os.path.exists(port_file):
                with open(port_file) as f:
                    self.port = f.read().strip()
                if self.port:
                    return
            time.sleep(0.002)
        raise CheckFailed("dynex_serve never published its port")

    def stop_daemon(self):
        if not self.daemon:
            return
        self.daemon.send_signal(signal.SIGTERM)
        try:
            self.daemon.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.daemon.kill()
            self.daemon.wait()
        self.daemon_log.close()
        self.daemon = None

    def remote_sweep(self, name, line, user):
        return run([self.dynex, "remote-sweep", name, "--port", self.port,
                    "--line", str(line), "--client-id", f"user{user}",
                    "--retries", "3", "--backoff-ms", "20"])

    def setup(self):
        """Start the daemon and warm its store: one cold remote sweep per
        (trace, line), each checked against the reference."""
        self.stop_daemon()
        start = time.perf_counter()
        self.start_daemon()
        for name, line in self.plan:
            ran = self.remote_sweep(name, line, 0)
            check(ran.rc == 0 and
                  table_body(ran.out) == self.golden[(name, line)],
                  f"cold remote sweep of {name}/{line}B is wrong")
        return time.perf_counter() - start

    def server_stats(self):
        """The daemon's STATS rows, by their Prometheus gauge names."""
        ran = run_ok([self.dynex, "remote-stats", "--port", self.port,
                      "--prom"])
        stats = {}
        for row in ran.out.splitlines():
            if row and not row.startswith("#") and "{" not in row:
                name, value = row.split()
                stats[name] = float(value)
        return stats

    def server_rss_mb(self):
        with open(f"/proc/{self.daemon.pid}/status") as f:
            for row in f:
                if row.startswith("VmHWM:"):
                    return int(row.split()[1]) / 1024.0
        raise CheckFailed("no VmHWM for dynex_serve")

    def measure(self, seconds):
        """Open loop: requests are due at evenly spaced times, and each
        request's latency runs from when it was due, so a stall also
        counts against the requests queued behind it.

        Every (trace, line) is requested equally often in a seeded order,
        so every seed offers the same load. Poisson arrivals made the
        90th percentile depend on each seed's bursts, not the program.
        """
        arrivals = random.Random(f"{self.seed}/arrivals")
        count = max(MIN_OPS, round(self.RATE_PER_S * seconds))
        mix = self.plan * (count // len(self.plan) + 1)
        arrivals.shuffle(mix)
        schedule = [(k / self.RATE_PER_S, mix[k], k % self.USERS)
                    for k in range(count)]
        self.before = self.server_stats()
        ops = [None] * len(schedule)
        self.gen_delays = [0.0] * len(schedule)
        slots = threading.Semaphore(self.MAX_IN_FLIGHT)

        def request(k, due, name, line, user):
            try:
                self.gen_delays[k] = time.perf_counter() - origin - due
                ran = self.remote_sweep(name, line, user)
                ok = (ran.rc == 0 and
                      table_body(ran.out) == self.golden[(name, line)])
                ops[k] = Op(time.perf_counter() - origin - due, ran.rss_mb,
                            ok)
            finally:
                slots.release()

        threads = []
        origin = time.perf_counter()
        for k, (due, (name, line), user) in enumerate(schedule):
            delay = origin + due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            slots.acquire()
            thread = threading.Thread(target=request,
                                      args=(k, due, name, line, user))
            thread.start()
            threads.append(thread)
        for thread in threads:
            thread.join()
        self.after = self.server_stats()
        # The resident set that matters is the daemon's.
        rss = self.server_rss_mb()
        return [Op(op.wall, rss, op.ok) if op else Op(OP_TIMEOUT_S, rss, False)
                for op in ops]

    def delta(self, name):
        return self.after[name] - self.before[name]

    def layers(self):
        """Served replay time and store hits from the daemon's STATS
        over the measured interval; index build from its lifetime report
        (only the cold set-up sweeps build); per-model replay cost from
        local sweeps of the served traces, which run the same engine."""
        sweeps = self.delta("dynex_lat_e2e_sweep_count")
        replay_ms = self.delta("dynex_lat_replay_sum_us") / sweeps / 1e3
        store_hits = self.delta("dynex_store_trace_hits")
        self.stop_daemon()
        counters = read_json(os.path.join(WORK, "server.json"))["counters"]
        got = super().layers()
        got["index_build_ms"] = (counters["index-build-ns"] /
                                 max(counters["index-builds"], 1) / 1e6)
        got["replay_ms"] = replay_ms
        got["store_hits"] = store_hits
        return got

    def teardown(self):
        self.stop_daemon()


WORKLOADS = {"suite": Suite, "campaign": Campaign, "serve": Serve}


# ----------------------------------------------------------------- main

def end_to_end(ops, setups):
    """On a shared host an operation's time is bimodal: the CPU runs at
    full speed or about 1.6x slower while a neighbour is busy, and both
    the share of slow time and the full speed drift over minutes. The
    median jumps between the modes and low percentiles follow the drift;
    the 90th percentile, in the contended mode, is what repeats from run
    to run, and a regression in the program moves it too."""
    walls = sorted(op.wall for op in ops)
    beyond = len(walls) // 10  # samples above the 90th percentile
    return {
        "p90_ms": (walls[-1 - beyond] * 1e3, "ms"),
        "peak_rss_mb": (max(op.rss_mb for op in ops), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def per_layer(workload):
    values = workload.layers()
    values.update(workload.miss_pcts())
    values["decode_ms"] = workload.decode_ms()
    values["gen_delay_max_ms"] = max(workload.gen_delays) * 1e3
    return {name: (values[name], unit) for name, unit in LAYER_UNITS.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # A terminated run still unwinds through teardown, stopping the daemon.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    dynex, serve = build()
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)

    spans = Spans()
    workload = WORKLOADS[args.workload](dynex, serve, args.seed,
                                        args.trace == 1, spans)
    ops, metrics, correct = [], {}, False
    try:
        workload.prepare()
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            setups.append(workload.setup())
            spans.add("setup", start, setups[-1])
        start = time.perf_counter()
        ops = workload.measure(args.seconds)
        spans.add("measure", start, time.perf_counter() - start,
                  ops=len(ops))
        correct = bool(ops) and all(op.ok for op in ops)
        log(f"{len(ops)} operations, generator delay at most "
            f"{max(workload.gen_delays) * 1e3:.2f} ms")
        if correct:
            metrics = per_layer(workload) if args.trace else \
                end_to_end(ops, setups)
        if args.trace:
            spans.write(os.path.join(WORK, "spans.json"))
    except CheckFailed as failure:
        log("check failed:", failure)
        correct = False
    finally:
        workload.teardown()

    failed = sum(1 for op in ops if not op.ok)
    if not correct:
        failed = max(failed, 1)
    print(json.dumps({
        "correct": correct,
        "attempted": max(len(ops), 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
