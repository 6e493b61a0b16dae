#!/usr/bin/env python3
"""End-to-end benchmark of the shipped spider front-ends (see README.md).

Run from the root of a source checkout:

    python3 e2ebench/run.py --workload pdb-paper --seed 1 --seconds 20 --trace 0

The first run configures and builds `spider_cli`, `spiderd` and
`e2ebench/e2e_tool` (Release) under `.bench_build/` ($CARGO_TARGET_DIR when
set); later runs only re-check the build. Inputs are generated from the
seed with src/datagen. Every operation of the timed phase is a real child
process (or a real spiderd job), and every result is checked. The last
stdout line is one JSON object: correct, attempted, failed and metrics —
the end-to-end metrics with --trace 0, the per-layer metrics of the traced
run with --trace 1.
"""

import argparse
import csv
import hashlib
import http.client
import itertools
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Per-process wall-clock cap; the whole run must end well inside 180 s.
RUN_DEADLINE_S = 165.0
BUILD_DEADLINE_S = 850.0

# Metric name -> unit. BENCHMARK.json lists the same names.
END_TO_END = {
    "setup_s": "s",
    "profile_cold_s": "s",
    "profile_warm_s": "s",
    "append_s": "s",
    "reprofile_s": "s",
    "job_p50_ms": "ms",
    "job_p99_ms": "ms",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "stored_bytes_ratio": "ratio",
}
PER_LAYER = {
    "storage.import_s": "s",
    "storage.import_mb_per_s": "MB/s",
    "storage.append_s": "s",
    "storage.open_s": "s",
    "storage.workspace_bytes": "bytes",
    "candgen.generate_s": "s",
    "candgen.candidates": "count",
    "candgen.pretest_pruned": "count",
    "extsort.extract_s": "s",
    "extsort.sets_extracted": "count",
    "extsort.sets_reused": "count",
    "extsort.set_bytes": "bytes",
    "profile.load_s": "s",
    "profile.save_s": "s",
    "profile.manifest_bytes": "bytes",
    "profile.verdicts_reused": "count",
    "profile.candidates_revalidated": "count",
    "profile.reuse_ratio": "ratio",
    "merge.verify_s": "s",
    "merge.tuples_read": "count",
    "merge.comparisons": "count",
    "merge.blocks_skipped": "count",
    "merge.candidates_tested": "count",
    "merge.satisfied_ratio": "ratio",
    "session.run_s": "s",
    "session.overhead_s": "s",
    "session.partitions": "count",
    "session.threads_used": "count",
    "report.serialize_s": "s",
    "report.bytes": "bytes",
    "job.ind_ms": "ms",
    "job.nary_ms": "ms",
    "job.ucc_ms": "ms",
    "job.fd_ms": "ms",
    "job.append_ms": "ms",
    "server.healthz_rtt_ms": "ms",
    "server.queue_wait_ms": "ms",
    "server.run_ms": "ms",
    "server.report_fetch_ms": "ms",
    "server.http_errors": "count",
    "rss.import_mb": "MB",
    "rss.profile_cold_mb": "MB",
    "rss.profile_warm_mb": "MB",
    "trace.overhead_ratio": "ratio",
    "ops_failed_ratio": "ratio",
}

# Dataset = (generator, scale, category tables for pdb or 0).
WORKLOADS = {
    # PaperScale(120) shape (16 columns per category table, the atom-site
    # table) over 40 of the paper's 163 category tables: ~660 attributes,
    # ~210k candidates, ~2.8k satisfied INDs.
    "pdb-paper": {
        "mode": "files", "dataset": ("pdb", 120, 40), "threads": 1,
        "setup_reps": 9, "warm_reps": 2, "rounds": 1, "appends": 4,
        "delta_fraction": 0.02,
    },
    # ~40k bioentries: ~85 attributes, ~1.3k candidates, 27 MB of CSV.
    "uniprot-rows": {
        "mode": "files", "dataset": ("uniprot", 40000, 0), "threads": 4,
        "setup_reps": 5, "warm_reps": 16, "rounds": 3, "appends": 1,
        "delta_fraction": 0.02,
    },
    "spiderd-mix": {
        "mode": "daemon", "threads": 2, "max_sessions": 4, "clients": 2,
        "workspaces": [
            ("scop-a", ("scop", 300, 0)), ("scop-b", ("scop", 500, 0)),
            ("uniprot-a", ("uniprot", 200, 0)),
            ("uniprot-b", ("uniprot", 400, 0)),
            ("pdb-a", ("pdb", 15, 1)), ("pdb-b", ("pdb", 25, 2)),
        ],
        # The traced run's CLI cycle and in-process layer run use this one.
        "trace_workspace": "pdb-b",
        "deltas_per_workspace": 8, "delta_fraction": 0.05,
        # Jobs per workspace in one shuffled block of a client's sequence;
        # an append (then its reprofile) follows every `append_blocks`-th
        # block until the workspace's deltas run out.
        "mix": (("ind", 4), ("nary", 1), ("ucc", 1), ("fd", 1)),
        "append_blocks": 5,
    },
}
# --smoke: the same steps at a scale that runs in seconds.
SMOKE_DATASETS = {
    "pdb-paper": ("pdb", 20, 4),
    "uniprot-rows": ("uniprot", 600, 0),
}
DAEMON_SETUP_REPS = 9  # six small imports + daemon start: cheap to repeat
# Fixed interval between a client's job status polls.
POLL_S = 0.0005


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class BenchError(Exception):
    """Aborts the run without a result line (exit code 1)."""


# ------------------------------------------------------------ processes --

class Proc:
    """Outcome of one child process: wall seconds, peak RSS, exit code."""

    def __init__(self, seconds, rss_mb, returncode):
        self.seconds = seconds
        self.rss_mb = rss_mb
        self.returncode = returncode


_LAUNCHER = {}  # "tool": path of e2e_tool, set once the build is done
_PROC_IDS = itertools.count(1)


def run_proc(argv, env, stdout_path=None):
    """Runs argv to completion through `e2e_tool exec`, which measures the
    child's wall time and peak RSS (wait4 rusage) from a small process."""
    stats = Path(env["TMPDIR"]) / f"proc-{next(_PROC_IDS)}.stats"
    launcher = [_LAUNCHER["tool"], "exec", stats, stdout_path or os.devnull]
    proc = subprocess.Popen([str(a) for a in launcher + list(argv)], env=env,
                            start_new_session=True)
    timer = threading.Timer(remaining(), os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        launcher_code = proc.wait()
    finally:
        timer.cancel()
    try:
        seconds, rss_kb, code = stats.read_text().split()
        stats.unlink()
    except (OSError, ValueError):
        return Proc(0.0, 0.0, launcher_code or -1)
    return Proc(float(seconds), int(rss_kb) / 1024.0, int(code))


_DEADLINE = [time.monotonic() + RUN_DEADLINE_S]


def remaining():
    left = _DEADLINE[0] - time.monotonic()
    if left <= 0:
        raise BenchError("run deadline exceeded")
    return left


# ---------------------------------------------------------------- build --

def build(build_dir):
    cmake_dir = build_dir / "cmake"
    cache = cmake_dir / "CMakeCache.txt"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not cache.exists():
        _DEADLINE[0] = time.monotonic() + BUILD_DEADLINE_S
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs, "--target",
                  "spider_cli", "spiderd", "e2e_tool"])
    for step in steps:
        done = subprocess.run([str(a) for a in step], capture_output=True,
                              text=True, timeout=remaining())
        if done.returncode != 0:
            log(done.stdout + done.stderr)
            raise BenchError("build failed: " + " ".join(map(str, step)))
    _DEADLINE[0] = time.monotonic() + RUN_DEADLINE_S
    build_type = ""
    compiler = ""
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
        elif line.startswith("CMAKE_CXX_COMPILER:"):
            compiler = line.split("=", 1)[1]
    if build_type != "Release":
        raise BenchError(f"refusing to report numbers from a {build_type!r} "
                         "build; the benchmark needs CMAKE_BUILD_TYPE=Release")
    bins = {
        "cli": cmake_dir / "spider" / "tools" / "spider_cli",
        "spiderd": cmake_dir / "spider" / "tools" / "spiderd",
        "tool": cmake_dir / "e2e_tool",
    }
    _LAUNCHER["tool"] = bins["tool"]
    version = subprocess.run([str(bins["cli"]), "version"],
                             capture_output=True, text=True).stdout.strip()
    if "(Release build)" not in version:
        raise BenchError(f"spider_cli reports {version!r}, not a Release build")
    compiler_version = subprocess.run(
        [compiler or "c++", "--version"], capture_output=True,
        text=True).stdout.splitlines()[:1]
    return bins, {"build_type": build_type, "spider_version": version,
                  "compiler": (compiler_version or ["unknown"])[0]}


def provenance(build_info, args, workload):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
            capture_output=True, text=True).stdout.strip() or "unknown"
    except OSError:
        describe = "unknown"
    config = WORKLOADS[args.workload]
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "nproc": os.cpu_count(), "cpu": cpu, "kernel": platform.release(),
        "git_describe": describe, **build_info,
        "threads": config["threads"], "clients": config.get("clients", 0),
        "dataset": workload.describe(),
    }


# ----------------------------------------------------------------- data --

def gen(bins, env, kind, out_dir, scale, seed, tables):
    argv = [bins["tool"], "gen", kind, out_dir, scale, seed]
    if tables:
        argv.append(tables)
    if run_proc(argv, env).returncode != 0:
        raise BenchError(f"data generation failed for {out_dir}")


def tree_bytes(path):
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


def largest_table(csv_dir):
    """The table CSV with the most lines (ties: name order)."""
    best = None
    for path in sorted(Path(csv_dir).glob("*.csv")):
        with open(path, "rb") as f:
            lines = sum(1 for _ in f)
        if best is None or lines > best[0]:
            best = (lines, path)
    return best[1]


def make_deltas(table_csv, out_root, count, fraction, seed):
    """Seeded deltas for one table: sampled rows with fresh ids in the first
    integer column, and in a few rows a fresh value in one more integer
    column, so appends both grow columns and move IND verdicts."""
    with open(table_csv, newline="") as f:
        header = f.readline()
        types_line = f.readline()
        rows = list(csv.reader(f))
    types = types_line.strip()[len("#types:"):].split(",")
    ints = [i for i, t in enumerate(types) if t == "integer"]
    if not ints or not rows:
        raise BenchError(f"cannot derive a delta from {table_csv}")
    maxima = {}
    for i in ints:
        values = [int(r[i]) for r in rows if r[i] != ""]
        maxima[i] = max(values) if values else 0
    rng = random.Random(seed)
    k = max(1, int(len(rows) * fraction))
    deltas = []
    for n in range(count):
        sample = [list(r) for r in rng.sample(rows, min(k, len(rows)))]
        key = ints[0]
        for j, row in enumerate(sample):
            row[key] = str(maxima[key] + 1 + n * k + j)
        others = [i for i in ints if i != key]
        if others:
            col = rng.choice(others)
            for j, row in enumerate(sample[: max(1, k // 50)]):
                row[col] = str(maxima[col] + 1 + n * k + j)
        out_dir = Path(out_root) / f"delta-{n}"
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / Path(table_csv).name, "w", newline="") as f:
            f.write(header)
            f.write(types_line)
            csv.writer(f, lineterminator="\n").writerows(sample)
        deltas.append(out_dir)
    return deltas


def job_file(path, threads, small):
    lines = [
        f"ind approach=spider-merge threads={threads}",
        f"nary approach=nary max-arity={3 if small else 2} threads={threads}",
        f"ucc kind=ucc max-arity=2 threads={threads}",
        f"fd kind=fd max-lhs=1 threads={threads}",
    ]
    Path(path).write_text("\n".join(lines) + "\n")
    jobs = {}
    for line in lines:
        name, *pairs = line.split()
        jobs[name] = dict(p.split("=", 1) for p in pairs)
    return jobs


# ---------------------------------------------------------- correctness --

def result_digest(report):
    """Order-free digest of a report's dependencies (INDs, n-ary INDs,
    UCCs, FDs), plus the count of satisfied unary INDs."""
    items = []
    for key in ("satisfied_inds", "nary_inds", "uccs", "fds"):
        for item in report.get(key, []):
            items.append(key + ":" + json.dumps(item, sort_keys=True))
    items.sort()
    digest = hashlib.sha256("\n".join(items).encode()).hexdigest()
    return digest, len(report.get("satisfied_inds", []))


def read_report(path):
    try:
        report = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None
    return report if report.get("finished") is True else None


class Ledger:
    """Counts attempted operations and failures (failed runs, refused
    requests, results that do not match their reference)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok

    def check(self, ok, what, failures=1):
        if not ok:
            self.failed += failures
            self.notes.append(what)
        return ok


# -------------------------------------------------------------- metrics --

def median(values):
    return statistics.median(values) if values else None


def p99(values):
    """Nearest-rank 99th percentile (the maximum below 100 samples)."""
    ordered = sorted(values)
    rank = max(1, -(-99 * len(ordered) // 100))
    return ordered[rank - 1]


def metric_block(values, units):
    missing = [name for name in units if values.get(name) is None]
    if missing:
        raise BenchError("metrics not measured: " + ", ".join(missing))
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def span_table(spans):
    """Per span name: count, total seconds and self seconds (duration minus
    the part its children cover)."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    table = {}
    for span in spans:
        duration = span["end"] - span["start"]
        covered = sum(c["end"] - c["start"] for c in children.get(span["id"], []))
        row = table.setdefault(span["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += duration
        row[2] += duration - covered
    return table


# ------------------------------------------------------ file workloads --

STEPS = ("import", "cold", "warm", "append", "reprofile")


class FileWorkload:
    """pdb-paper and uniprot-rows: CLI import, cold profile, restarted warm
    profiles, append + reprofile rounds, each a new process."""

    def __init__(self, name, args, bins, env, run_dir, config=None):
        self.name = name
        self.config = config or WORKLOADS[name]
        self.args = args
        self.bins = bins
        self.env = env
        self.run_dir = run_dir
        self.ledger = Ledger()
        self.span_rows = {}

    def describe(self):
        kind, scale, tables = self.dataset()
        return {"generator": kind, "scale": scale, "tables": tables,
                "rounds": self.config["rounds"],
                "appends_per_round": self.config["appends"],
                "warm_reps": self.config["warm_reps"]}

    def dataset(self):
        if self.args.smoke:
            return SMOKE_DATASETS[self.name]
        return self.config["dataset"]

    def prepare(self):
        kind, scale, tables = self.dataset()
        csv_dir = self.run_dir / "csv" / kind
        gen(self.bins, self.env, kind, csv_dir, scale, self.args.seed, tables)
        deltas = make_deltas(largest_table(csv_dir), self.run_dir / "deltas",
                             self.config["rounds"] * self.config["appends"],
                             self.config["delta_fraction"], self.args.seed)
        self.use_data(csv_dir, deltas, self.config["threads"], small=False)

    def use_data(self, csv_dir, deltas, threads, small):
        self.csv_dir = csv_dir
        self.csv_bytes = tree_bytes(csv_dir)
        self.deltas = deltas
        self.jobs = job_file(self.run_dir / "jobs.txt", threads, small)
        self.profile_flags = ["--json"] + [
            f"--{k}={v}" for k, v in self.jobs["ind"].items()]

    # One CLI operation; returns (Proc, report-or-None).
    def cli(self, what, argv, report_path=None):
        proc = run_proc([self.bins["cli"]] + argv, self.env, report_path)
        report = read_report(report_path) if report_path else None
        ok = proc.returncode == 0 and (report_path is None or report is not None)
        self.ledger.op(ok, f"{what} exited {proc.returncode}")
        return proc, report

    def import_ws(self, ws):
        return self.cli("import", ["import", self.csv_dir, "--backend=disk",
                                   f"--workspace={ws}"])[0]

    def append_ws(self, ws, delta):
        return self.cli("append", ["import", delta, "--backend=disk",
                                   f"--workspace={ws}", "--append"])[0]

    def profile_ws(self, ws, tag):
        out = self.run_dir / f"report-{tag}.json"
        return self.cli(f"profile {tag}", ["profile", ws] + self.profile_flags,
                        out)

    def reference(self, ws, tag):
        """Digest of a fresh in-process profile of the workspace's
        current data."""
        out = self.run_dir / f"reference-{tag}.json"
        proc = run_proc([self.bins["tool"], "profile", ws,
                         self.run_dir / "ref-sets", out,
                         self.run_dir / "jobs.txt", "ind"], self.env)
        report = read_report(out) if proc.returncode == 0 else None
        if not self.ledger.check(report is not None, f"reference {tag} failed"):
            return None
        return result_digest(report)

    def cycle(self, ws, record, refs):
        """cold -> warm x N -> (append x K -> reprofile) x rounds on a
        freshly imported workspace. Every report must match the fresh
        reference of the same data; `refs` caches those per state."""
        if "base" not in refs:
            refs["base"] = self.reference(ws, "base")
        proc, report = self.profile_ws(ws, "cold")
        record["cold"].append(proc)
        self.expect(report, refs["base"], "cold profile")
        for rep in range(self.config["warm_reps"]):
            proc, report = self.profile_ws(ws, f"warm{rep}")
            record["warm"].append(proc)
            self.expect(report, refs["base"], "warm profile")
            self.ledger.check(report is None or report["profile_reused"],
                              "warm profile did not reuse the profile")
        per = self.config["appends"]
        for r in range(self.config["rounds"]):
            for delta in self.deltas[r * per:(r + 1) * per]:
                record["append"].append(self.append_ws(ws, delta))
            proc, report = self.profile_ws(ws, f"reprofile{r}")
            record["reprofile"].append(proc)
            if r not in refs:
                refs[r] = self.reference(ws, f"round{r}")
            self.expect(report, refs[r], f"reprofile round {r}")

    def expect(self, report, reference, what):
        self.ledger.check(
            report is not None and reference is not None and
            result_digest(report) == reference,
            f"{what}: satisfied set differs from the fresh profile")

    def run(self):
        record = {k: [] for k in STEPS}
        refs = {}
        workspaces = []
        for i in range(self.config["setup_reps"]):
            workspaces.append(self.run_dir / f"ws{i}")
            record["import"].append(self.import_ws(workspaces[-1]))
        start = time.perf_counter()
        cycles = 0
        while cycles == 0 or time.perf_counter() - start < self.args.seconds:
            if cycles >= len(workspaces):
                # Past the set-up imports: an untimed import of a fresh one.
                workspaces.append(self.run_dir / f"ws{cycles}")
                self.import_ws(workspaces[-1])
            self.cycle(workspaces[cycles], record, refs)
            if cycles > 0:
                shutil.rmtree(workspaces[cycles], ignore_errors=True)
            cycles += 1
        wall = time.perf_counter() - start
        measured = [p for k in STEPS[1:] for p in record[k]]
        stored = tree_bytes(workspaces[0])
        appended = sum(tree_bytes(d) for d in self.deltas)
        values = {
            "setup_s": median([p.seconds for p in record["import"]]),
            "profile_cold_s": median([p.seconds for p in record["cold"]]),
            "profile_warm_s": median([p.seconds for p in record["warm"]]),
            "append_s": median([p.seconds for p in record["append"]]),
            "reprofile_s": median([p.seconds for p in record["reprofile"]]),
            "job_p50_ms": median([p.seconds * 1e3 for p in measured]),
            "job_p99_ms": p99([p.seconds * 1e3 for p in measured]),
            "jobs_per_s": len(measured) / sum(p.seconds for p in measured),
            "peak_rss_mb": max(p.rss_mb for v in record.values() for p in v),
            "stored_bytes_ratio": stored / (self.csv_bytes + appended),
        }
        log(f"{self.name}: {cycles} cycles, {len(measured)} timed operations "
            f"in {wall:.1f}s")
        for step in STEPS:
            times = sorted(p.seconds for p in record[step])
            log(f"  {step:<9} n={len(times):<3} min {times[0]:.4f}  "
                f"median {median(times):.4f}  max {times[-1]:.4f} s")
        return values

    # ---------------------------------------------------- traced run --

    def traced_layers(self):
        """One untraced CLI cycle and the traced in-process run of the same
        steps on the same data. Returns (layer values, traced/untraced
        total ratio, the CLI cycle's workspace)."""
        record = {k: [] for k in STEPS}
        refs = {}
        ws = self.run_dir / "ws-cli"
        record["import"].append(self.import_ws(ws))
        self.cycle(ws, record, refs)
        untraced = sum(p.seconds for k in STEPS for p in record[k])
        expected = {"cold": refs["base"], "warm": refs["base"]}
        expected.update({f"reprofile-{r}": refs[r]
                         for r in range(self.config["rounds"])})
        values, traced = run_traced_tool(self, expected)
        values.update({
            "rss.import_mb": record["import"][0].rss_mb,
            "rss.profile_cold_mb": record["cold"][0].rss_mb,
            "rss.profile_warm_mb": record["warm"][0].rss_mb,
        })
        return values, traced / untraced, ws

    def traced(self):
        values, ratio, ws = self.traced_layers()
        values["trace.overhead_ratio"] = ratio
        # spiderd over the same workspace, after the CLI cycle.
        root = self.run_dir / "probe-root"
        root.mkdir()
        os.rename(ws, root / "ws")
        daemon = Daemon(self.bins, self.env, root, 1, 4,
                        self.run_dir / "probe.log")
        try:
            values.update(probe_server(self, daemon.wait_ready(), "ws"))
        finally:
            self.ledger.check(daemon.stop() == 0, "spiderd exit status")
        return values


def run_traced_tool(workload, expected):
    """Runs `e2e_tool trace` over the workload's data, checks its satisfied
    sets against the untraced run's, and turns spans + counters into layer
    metrics. Returns (values, traced seconds of the steps the CLI cycle
    also runs)."""
    work = workload.run_dir / "trace"
    out = workload.run_dir / "trace-counters.json"
    proc = run_proc([workload.bins["tool"], "trace", work,
                     workload.run_dir / "jobs.txt", workload.csv_dir,
                     workload.config["appends"]] + list(workload.deltas),
                    workload.env, out)
    if not workload.ledger.op(proc.returncode == 0, "traced run failed"):
        raise BenchError("traced run failed")
    counters = json.loads(out.read_text())
    spans = json.loads((work / "spans.json").read_text())
    for tag, digest in expected.items():
        report = read_report(work / f"{tag}.json")
        workload.ledger.check(
            report is not None and result_digest(report) == digest,
            f"traced {tag}: satisfied set differs from the untraced run")
    workload.span_rows = span_table(spans)

    def durations(name):
        return [s["end"] - s["start"] for s in spans if s["name"] == name]

    def first(name):
        return durations(name)[0]

    cold_run = first("session.run")  # the first session run is the cold one
    layers = sum(first(n) for n in ("candgen.generate", "extsort.extract",
                                    "merge.verify", "profile.save"))
    tested = counters["merge.candidates_tested"]
    revalidated = counters.get("profile.reprofile_candidates", 0)
    reused_sets = 0
    for r in range(workload.config["rounds"]):
        report = read_report(work / f"reprofile-{r}.json")
        reused_sets += report["sets_reused"] if report else 0
    appends = durations("storage.append")
    values = {
        "storage.import_s": first("storage.import"),
        "storage.import_mb_per_s":
            counters["storage.csv_bytes"] / 1e6 / first("storage.import"),
        "storage.append_s": median(appends),
        "storage.open_s": median(durations("storage.open")),
        "storage.workspace_bytes": counters["storage.workspace_bytes"],
        "candgen.generate_s": first("candgen.generate"),
        "candgen.candidates": counters["candgen.candidates"],
        "candgen.pretest_pruned": counters["candgen.pretest_pruned"],
        "extsort.extract_s": first("extsort.extract"),
        "extsort.sets_extracted": counters["extsort.sets_extracted"],
        "extsort.sets_reused": reused_sets,
        "extsort.set_bytes": counters["extsort.set_bytes"],
        "profile.load_s": first("profile.load"),
        "profile.save_s": first("profile.save"),
        "profile.manifest_bytes": counters["profile.manifest_bytes"],
        "profile.verdicts_reused": counters.get("profile.verdicts_reused", 0),
        "profile.candidates_revalidated":
            counters.get("profile.candidates_revalidated", 0),
        "profile.reuse_ratio": (counters.get("profile.verdicts_reused", 0) /
                                revalidated if revalidated else 0.0),
        "merge.verify_s": first("merge.verify"),
        "merge.tuples_read": counters["merge.tuples_read"],
        "merge.comparisons": counters["merge.comparisons"],
        "merge.blocks_skipped": counters["merge.blocks_skipped"],
        "merge.candidates_tested": tested,
        "merge.satisfied_ratio":
            counters["merge.satisfied"] / tested if tested else 0.0,
        "session.run_s": cold_run,
        "session.overhead_s": cold_run - layers,
        "session.partitions": counters["session.partitions"],
        "session.threads_used": counters["session.threads_used"],
        "report.serialize_s": counters["report.serialize_s"],
        "report.bytes": counters["report.bytes"],
        "job.append_ms": median(appends) * 1e3,
    }
    for job in ("ind", "nary", "ucc", "fd"):
        values[f"job.{job}_ms"] = median(durations(f"job.{job}")) * 1e3
    traced = sum(sum(durations(n)) for n in (
        "storage.import", "profile.cold", "profile.warm", "storage.append",
        "profile.reprofile"))
    return values, traced


# ---------------------------------------------------------------- daemon --

class Daemon:
    """One spiderd child over a workspace root. Every daemon started is
    also stopped when the run ends, whatever happened (stop_all)."""

    started = []

    def __init__(self, bins, env, root, threads, max_sessions, log_path):
        self.log_path = log_path
        self.log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [str(bins["spiderd"]), f"--root={root}", "--port=0",
             f"--threads={threads}", f"--max-sessions={max_sessions}"],
            stdout=subprocess.DEVNULL, stderr=self.log, env=env)
        self.port = None
        Daemon.started.append(self)

    @classmethod
    def stop_all(cls):
        for daemon in cls.started:
            daemon.stop()

    def wait_ready(self):
        """Blocks until /healthz answers; returns the port."""
        pattern = re.compile(rb" on [^ ]+:(\d+)")
        while self.port is None:
            remaining()
            if self.proc.poll() is not None:
                raise BenchError("spiderd exited during start-up")
            match = pattern.search(Path(self.log_path).read_bytes())
            if match:
                self.port = int(match.group(1))
            else:
                time.sleep(0.001)
        while True:
            remaining()
            try:
                client = Client(self.port)
                status, _ = client.request("GET", "/healthz")
                client.close()
                if status == 200:
                    return self.port
            except OSError:
                pass
            time.sleep(0.001)

    def peak_rss_mb(self):
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def stop(self):
        """SIGTERM (graceful drain), then wait; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        return self.proc.returncode


class Client:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, port):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def request(self, method, path, body=None):
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        return response.status, response.read()

    def close(self):
        self.conn.close()


_SPAN_IDS = itertools.count(1)


def run_daemon_job(client, body, spans=None, trace=0):
    """Submit, poll at a fixed interval, fetch the report. Returns
    (timings in seconds, report), or (None, None) on a refused request or
    a job that did not finish."""
    t0 = time.perf_counter()
    status, data = client.request("POST", "/jobs", body)
    if status != 202:
        return None, None
    job_id = json.loads(data)["id"]
    t_running = None
    while True:
        status, data = client.request("GET", f"/jobs/{job_id}")
        if status != 200:
            return None, None
        state = json.loads(data)["state"]
        if state != "queued" and t_running is None:
            t_running = time.perf_counter()
        if state in ("finished", "failed", "cancelled"):
            break
        time.sleep(POLL_S)
    t_done = time.perf_counter()
    if state != "finished":
        return None, None
    status, data = client.request("GET", f"/jobs/{job_id}/report")
    t_end = time.perf_counter()
    if status != 200:
        return None, None
    if spans is not None:
        # Client-side spans of one job: the job span and its three parts,
        # sharing the job's trace id.
        job = next(_SPAN_IDS)
        spans.append({"id": job, "parent": 0, "trace": trace, "name": "job",
                      "start": t0, "end": t_end})
        for name, start, end in (("server.queue_wait", t0, t_running),
                                 ("server.run", t_running, t_done),
                                 ("server.report_fetch", t_done, t_end)):
            spans.append({"id": next(_SPAN_IDS), "parent": job,
                          "trace": trace, "name": name, "start": start,
                          "end": end})
    timings = {"latency": t_end - t0, "queue_wait": t_running - t0,
               "run": t_done - t_running, "fetch": t_end - t_done}
    return timings, json.loads(data)


def probe_server(workload, port, workspace):
    """/healthz round trips and three IND profile jobs on one workspace."""
    client = Client(port)
    rtts = []
    errors = 0
    for _ in range(20):
        t0 = time.perf_counter()
        status, _ = client.request("GET", "/healthz")
        rtts.append(time.perf_counter() - t0)
        errors += not workload.ledger.op(status == 200, "healthz failed")
    body = {"workspace": workspace, **workload.jobs["ind"]}
    timings = []
    for _ in range(3):
        t, _ = run_daemon_job(client, body)
        errors += not workload.ledger.op(t is not None, "probe job failed")
        if t:
            timings.append(t)
    client.close()
    return {
        "server.healthz_rtt_ms": median(rtts) * 1e3,
        "server.queue_wait_ms": median([t["queue_wait"] for t in timings]) * 1e3,
        "server.run_ms": median([t["run"] for t in timings]) * 1e3,
        "server.report_fetch_ms": median([t["fetch"] for t in timings]) * 1e3,
        "server.http_errors": errors,
    }


class DaemonWorkload:
    """spiderd-mix: one spiderd, six small workspaces, 2 keep-alive clients
    in a closed loop over a seeded job mix."""

    def __init__(self, name, args, bins, env, run_dir):
        self.name = name
        self.config = WORKLOADS[name]
        self.args = args
        self.bins = bins
        self.env = env
        self.run_dir = run_dir
        self.ledger = Ledger()
        self.span_rows = {}

    def describe(self):
        c = self.config
        return {"workspaces": {n: list(d) for n, d in c["workspaces"]},
                "daemon_threads": c["threads"],
                "max_sessions": c["max_sessions"], "mix": dict(c["mix"]),
                "append_blocks": c["append_blocks"], "poll_s": POLL_S}

    def prepare(self):
        c = self.config
        self.csv = {}
        self.deltas = {}
        for index, (name, (kind, scale, tables)) in enumerate(c["workspaces"]):
            seed = self.args.seed * 100 + index
            self.csv[name] = self.run_dir / "csv" / name
            gen(self.bins, self.env, kind, self.csv[name], scale, seed, tables)
            self.deltas[name] = make_deltas(
                largest_table(self.csv[name]), self.run_dir / "deltas" / name,
                c["deltas_per_workspace"], c["delta_fraction"], seed)
        # One worker thread per job: the daemon runs `threads` jobs at once.
        self.jobs = job_file(self.run_dir / "jobs.txt", 1, small=True)

    def setup(self, root):
        """Imports every workspace and starts spiderd; returns (seconds until
        /healthz answers, daemon, import procs)."""
        start = time.perf_counter()
        procs = []
        for name, csv_dir in self.csv.items():
            proc = run_proc([self.bins["cli"], "import", csv_dir,
                             "--backend=disk", f"--workspace={root / name}"],
                            self.env)
            self.ledger.op(proc.returncode == 0, f"import {name} failed")
            procs.append(proc)
        imported = time.perf_counter()
        daemon = Daemon(self.bins, self.env, root, self.config["threads"],
                        self.config["max_sessions"],
                        root.parent / (root.name + ".log"))
        daemon.wait_ready()
        seconds = time.perf_counter() - start
        log(f"set-up: imports {imported - start:.3f}s, spiderd ready "
            f"{seconds - (imported - start):.3f}s")
        return seconds, daemon, procs

    def sequence(self, client_index, names):
        """The seeded job sequence of one client over its own workspaces,
        so each workspace's appends and profiles stay ordered. Blocks hold
        every (workspace, job type) pair in the mix's exact proportions,
        shuffled, so the mix does not drift from seed to seed."""
        c = self.config
        rng = random.Random(self.args.seed * 1000 + client_index)
        block = [(name, kind) for name in names for kind, count in c["mix"]
                 for _ in range(count)]
        blocks = 0
        while True:
            rng.shuffle(block)
            yield from block
            blocks += 1
            if blocks % c["append_blocks"] == 0:
                name = names[(blocks // c["append_blocks"] - 1) % len(names)]
                yield name, "append"
                yield name, "ind"  # the reprofile

    def load(self, port, seconds, spans=None):
        """Both clients in a closed loop for `seconds`. Returns the log of
        completed jobs, the wall time and the number of failed jobs."""
        names = [n for n, _ in self.config["workspaces"]]
        clients = self.config["clients"]
        logs = [[] for _ in range(clients)]
        stop_at = time.perf_counter() + seconds

        def client_loop(index):
            client = Client(port)
            own = names[index::clients]
            state = {n: 0 for n in own}  # appends applied so far
            # No IND profile since the last append (cold_pass profiled all).
            fresh = {n: False for n in own}
            try:
                for name, kind in self.sequence(index, own):
                    if time.perf_counter() >= stop_at:
                        break
                    if kind == "append":
                        if state[name] >= len(self.deltas[name]):
                            continue
                        body = {"op": "import", "workspace": name,
                                "source": str(self.deltas[name][state[name]]),
                                "append": True}
                    else:
                        body = {"workspace": name, **self.jobs[kind]}
                    job_spans = [] if spans is not None else None
                    try:
                        timings, report = run_daemon_job(
                            client, body, job_spans,
                            index * 1_000_000 + len(logs[index]))
                    except (OSError, http.client.HTTPException, ValueError):
                        timings, report = None, None
                        client.close()
                        client = Client(port)
                    entry = {"kind": kind, "ws": name, "timings": timings,
                             "fresh": fresh[name]}
                    if timings is not None and kind == "append":
                        state[name] += 1
                        fresh[name] = True
                    elif timings is not None:
                        entry["report"] = report
                        fresh[name] = fresh[name] and kind != "ind"
                    entry["state"] = state[name]
                    logs[index].append(entry)
                    if job_spans:
                        spans.extend(job_spans)
            finally:
                client.close()

        threads = [threading.Thread(target=client_loop, args=(i,))
                   for i in range(clients)]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - start
        entries = [e for log_ in logs for e in log_]
        for e in entries:
            self.ledger.op(e["timings"] is not None,
                           f"{e['kind']} job on {e['ws']} failed")
        done = [e for e in entries if e["timings"] is not None]
        return done, wall, len(entries) - len(done)

    def verify(self, entries):
        """Each report's result equals the in-process fresh session
        on the same workspace state (replayed: base + the same deltas)."""
        needs = {}
        for e in entries:
            if e["kind"] != "append":
                needs.setdefault(e["ws"], set()).add((e["state"], e["kind"]))
        pending = []
        for name, pairs in needs.items():
            needs_file = self.run_dir / f"replay-{name}.needs"
            needs_file.write_text("".join(f"{s} {k}\n" for s, k in pairs))
            states = max(s for s, _ in pairs)
            pending.append((name, [
                self.bins["tool"], "replay", self.run_dir / f"replay-{name}",
                self.run_dir / f"replay-{name}.jsonl", self.run_dir / "jobs.txt",
                needs_file, self.csv[name]] + self.deltas[name][:states]))
        refs = {}
        lock = threading.Lock()

        def worker():  # two replays at a time, after the timed phase
            while True:
                with lock:
                    if not pending:
                        return
                    name, argv = pending.pop()
                ok = run_proc(argv, self.env).returncode == 0
                if not self.ledger.check(ok, f"replay of {name} failed"):
                    continue
                for line in Path(argv[3]).read_text().splitlines():
                    row = json.loads(line)
                    with lock:
                        refs[(name, row["state"], row["job"])] = \
                            result_digest(row["report"])

        workers = [threading.Thread(target=worker) for _ in range(2)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        bad = sum(1 for e in entries if e["kind"] != "append" and
                  result_digest(e["report"]) !=
                  refs.get((e["ws"], e["state"], e["kind"])))
        self.ledger.check(bad == 0, f"{bad} daemon reports differ from the "
                                    "in-process session results", bad)

    def cold_pass(self, port):
        """The first IND profile of every freshly imported workspace, one
        at a time from one client. Returns the job log entries."""
        client = Client(port)
        entries = []
        try:
            for name in self.csv:
                timings, report = run_daemon_job(
                    client, {"workspace": name, **self.jobs["ind"]})
                self.ledger.op(timings is not None, f"cold ind on {name} failed")
                if timings is not None:
                    entries.append({"kind": "ind", "ws": name, "state": 0,
                                    "timings": timings, "report": report,
                                    "fresh": True})
        finally:
            client.close()
        return entries

    def run(self):
        setups = []
        colds = []
        import_procs = []
        daemon = None
        for i in range(DAEMON_SETUP_REPS):
            if daemon is not None:
                self.ledger.check(daemon.stop() == 0, "spiderd exit status")
            seconds, daemon, procs = self.setup(self.run_dir / f"root{i}")
            setups.append(seconds)
            import_procs.extend(procs)
            cold = self.cold_pass(daemon.port)
            colds.append(statistics.mean(e["timings"]["latency"] for e in cold))
        try:
            entries, wall, _ = self.load(daemon.port, self.args.seconds)
            peak = daemon.peak_rss_mb()
        finally:
            self.ledger.check(daemon.stop() == 0, "spiderd exit status")
        self.verify(cold + entries)

        def latencies(pred):
            return [e["timings"]["latency"] for e in entries if pred(e)]

        all_ms = [e["timings"]["latency"] * 1e3 for e in entries]
        top = {}
        for e in entries:
            top[e["ws"]] = max(top.get(e["ws"], 0), e["state"])
        appended = sum(tree_bytes(d) for name, states in top.items()
                       for d in self.deltas[name][:states])
        csv_bytes = sum(tree_bytes(p) for p in self.csv.values())
        root = self.run_dir / f"root{DAEMON_SETUP_REPS - 1}"
        values = {
            "setup_s": median(setups),
            "profile_cold_s": median(colds),
            "profile_warm_s": median(latencies(
                lambda e: e["kind"] == "ind" and not e["fresh"])),
            "append_s": median(latencies(lambda e: e["kind"] == "append")),
            "reprofile_s": median(latencies(
                lambda e: e["kind"] == "ind" and e["fresh"] and
                e["state"] > 0)),
            "job_p50_ms": median(all_ms),
            "job_p99_ms": p99(all_ms) if all_ms else None,
            "jobs_per_s": len(entries) / wall,
            "peak_rss_mb": max([peak] + [p.rss_mb for p in import_procs]),
            "stored_bytes_ratio": tree_bytes(root) / (csv_bytes + appended),
        }
        log(f"{self.name}: {len(entries)} jobs in {wall:.1f}s, "
            f"{sum(top.values())} appends")
        return values

    def traced(self):
        """Untraced then traced load on fresh daemons (half the time each),
        then a CLI cycle + traced in-process run over one workspace's data."""
        half = max(1.0, self.args.seconds / 2)
        means = {}
        spans = []
        for traced in (False, True):
            root = self.run_dir / ("root-traced" if traced else "root-plain")
            _, daemon, _ = self.setup(root)
            try:
                cold = self.cold_pass(daemon.port)
                entries, _, errors = self.load(
                    daemon.port, half, spans if traced else None)
                if traced:
                    server = probe_server(self, daemon.port,
                                          self.config["trace_workspace"])
            finally:
                self.ledger.check(daemon.stop() == 0, "spiderd exit status")
            self.verify(cold + entries)
            means[traced] = statistics.mean(e["timings"]["latency"]
                                            for e in entries)
        for name in ("server.queue_wait", "server.run", "server.report_fetch"):
            server[name + "_ms"] = median(
                [s["end"] - s["start"] for s in spans if s["name"] == name]) * 1e3
        server["server.http_errors"] += errors

        name = self.config["trace_workspace"]
        cycle = FileWorkload(name, self.args, self.bins, self.env,
                             self.run_dir / "cycle",
                             config={"warm_reps": 1, "rounds": 1,
                                     "appends": 1})
        cycle.ledger = self.ledger
        cycle.run_dir.mkdir()
        cycle.use_data(self.csv[name], self.deltas[name][:1], 1, small=True)
        values, _, _ = cycle.traced_layers()
        self.span_rows = {**cycle.span_rows, **span_table(spans)}
        values.update(server)
        values["trace.overhead_ratio"] = means[True] / means[False]
        return values


# ------------------------------------------------------------------ main --

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: every step in seconds")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    if not (ROOT / "src" / "ind" / "session.h").exists():
        raise BenchError(f"{ROOT} is not a spider source tree")
    bins, build_info = build(build_dir)

    run_dir = build_dir / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "tmp").mkdir(parents=True)
    env = dict(os.environ, TMPDIR=str(run_dir / "tmp"))
    cls = DaemonWorkload if WORKLOADS[args.workload]["mode"] == "daemon" \
        else FileWorkload
    workload = cls(args.workload, args, bins, env, run_dir)
    try:
        workload.prepare()
        ledger = workload.ledger
        if args.trace:
            values = workload.traced()
            values["ops_failed_ratio"] = ledger.failed / max(1, ledger.attempted)
            metrics = metric_block(values, PER_LAYER)
        else:
            values = workload.run()
            metrics = metric_block(values, END_TO_END)
        prov = provenance(build_info, args, workload)
        results = build_dir / "results"
        results.mkdir(exist_ok=True)
        record = {"provenance": prov, "metrics": metrics,
                  "attempted": ledger.attempted, "failed": ledger.failed,
                  "failures": ledger.notes,
                  "spans": {k: {"count": v[0], "total_s": v[1], "self_s": v[2]}
                            for k, v in workload.span_rows.items()}}
        (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
         ).write_text(json.dumps(record, indent=1) + "\n")
        if args.trace:
            log(f"{'span':<22}{'count':>6}{'total_s':>11}{'self_s':>11}")
            for name, (count, total, self_s) in sorted(
                    workload.span_rows.items()):
                log(f"{name:<22}{count:>6}{total:>11.4f}{self_s:>11.4f}")
        for note in ledger.notes:
            log("FAILED:", note)
        print("# provenance " + json.dumps(prov, sort_keys=True))
        print(json.dumps({"correct": ledger.failed == 0,
                          "attempted": ledger.attempted,
                          "failed": ledger.failed, "metrics": metrics}))
    finally:
        Daemon.stop_all()
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as error:
        log("e2ebench:", error)
        sys.exit(1)
