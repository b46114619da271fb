#!/usr/bin/env python3
"""Serving benchmark for tlp_serve: four workloads, per-kind latency,
oracle-checked replies, and a per-layer trace.

One run (what BENCHMARK.json's command does):

    python3 servebench/run.py --workload W --seed N --seconds T --trace 0|1

  1. Builds the repository and the servebench program as an optimized,
     TLP_STATS=OFF tree under .bench_build/ (incremental after the first
     run).
  2. Writes the workload's dataset from the seed (servebench data) and, a
     few times over, builds the served snapshot with `tlp_snapshot save
     --from-csv --kind=2layer` and starts a fresh `tlp_serve --workers=2`
     (plus --live / --wal-dir as the workload says). setup_s is the median
     of these set-ups, each timed from the snapshot build to the published
     port.
  3. Drives the last server for T measured seconds with `servebench load`:
     one thread, 4 connections, closed loop; the client then checks the
     replies it kept against the oracle. The runner reads the server's
     peak RSS and stops it. Throughput is the median over the one-second
     slices of the measured window, and each latency percentile the
     median over groups of slices that hold 1,000 samples each (load.cc).
  4. With --trace 1, also replays the same statements in-process with
     `servebench trace` and prints the per-layer metrics instead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics, or with --trace 1 the per-layer ones).
Exit status: 0 ok; 1 when a reply is wrong, a reported p99 rests on fewer
than 1,000 samples, or a step fails; 2 usage or missing sources.

Every workload, several runs each, with a median summary:

    python3 servebench/run.py --seed N [--runs R] [--trace]

Smoke test (ctest bench_smoke): all four workloads at toy sizes with every
reply checked, then one run against data with one moved box, which must be
caught:

    python3 servebench/run.py --smoke [--build-dir DIR]
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text()) if (
    ROOT / "BENCHMARK.json").is_file() else None

WORKERS = 2          # tlp_serve --workers (servebench load: 4 connections)
# Set-ups per run: at least MIN_SETUPS, then more while they have taken
# under SETUP_BUDGET_S, up to MAX_SETUPS; setup_s reports their median.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 9, 2.0
CHECK_EVERY = 50     # every 50th read of a connection goes to the oracle
MIN_P99_SAMPLES = 1000
LATENCY_KINDS = ("window", "disk", "knn")  # issued by every workload
SMOKE_OBJECTS = 10000


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def server_cpus():
    """On 4+ cores the server keeps off the last one, which `servebench
    load` takes for its client thread while it measures (its oracle checks
    may use every core afterwards)."""
    cpus = sorted(os.sched_getaffinity(0))
    return set(cpus[:-1]) if len(cpus) >= 4 else None


SERVER_CPUS = server_cpus()


def pinned(cpus):
    return (lambda: os.sched_setaffinity(0, cpus)) if cpus else None


def build_root():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build(build_dir):
    """Configures (once) and builds the three programs; returns their paths."""
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / "build.log", "w") as out:
        steps = []
        if not (build_dir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(build_dir), "-j",
                      str(min(4, os.cpu_count() or 1)), "--target",
                      "servebench", "tlp_serve", "tlp_snapshot"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=800).returncode != 0:
                raise BenchError(f"build failed; see {build_dir / 'build.log'}")
    return binaries(build_dir)


def binaries(build_dir):
    """The programs of a build tree, and where runs keep their files."""
    return {"servebench": build_dir / "servebench",
            "serve": build_dir / "tlp" / "tools" / "tlp_serve",
            "snapshot": build_dir / "tlp" / "tools" / "tlp_snapshot",
            "runs": build_dir / "runs"}


def run_json(cmd, timeout, cpus=None):
    """Runs a servebench subcommand; returns (exit code, its JSON line)."""
    proc = subprocess.run([str(c) for c in cmd], capture_output=True,
                          text=True, timeout=timeout, preexec_fn=pinned(cpus))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{cmd[1]} failed (exit {proc.returncode}): "
                         f"{proc.stderr.strip()[-2000:]}")
    if proc.stderr.strip():
        log(proc.stderr.strip()[-2000:])
    return proc.returncode, json.loads(lines[-1])


class Server:
    """One tlp_serve process; start_s is exec-to-published-port time."""

    def __init__(self, bins, snapshot, workdir, workload, tag):
        port_file = workdir / f"port-{tag}"
        cmd = [str(bins["serve"]), f"--snapshot={snapshot}",
               f"--workers={WORKERS}", f"--port-file={port_file}"]
        self.wal_dir = None
        if workload["live"]:
            cmd.append("--live")
        if workload["durable"]:
            self.wal_dir = workdir / f"wal-{tag}"
            cmd.append(f"--wal-dir={self.wal_dir}")
        self.out_path = workdir / f"serve-{tag}.out"
        self.out = open(self.out_path, "w")
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=self.out,
                                     stderr=subprocess.STDOUT,
                                     preexec_fn=pinned(SERVER_CPUS))
        try:
            while not port_file.is_file():
                if self.proc.poll() is not None:
                    raise BenchError("tlp_serve exited during start: " +
                                     self.out_path.read_text()[-2000:])
                if time.perf_counter() - start > 120:
                    raise BenchError("tlp_serve did not publish its port")
                time.sleep(0.0005)
        except BaseException:  # a SIGTERM here must not orphan the server
            self.stop()
            raise
        self.start_s = time.perf_counter() - start
        self.port = int(port_file.read_text())

    def peak_rss_mb(self):
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().split("\n"):
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for tlp_serve")

    def stop(self):
        """SIGTERM (graceful drain), then the exit counters it printed."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.out.close()
        if self.wal_dir is not None:
            shutil.rmtree(self.wal_dir, ignore_errors=True)
        for line in self.out_path.read_text().splitlines():
            if line.startswith("TLP_SERVE_COUNTERS "):
                return json.loads(line.split(" ", 1)[1])
        return {}


def describe(bins):
    return run_json([bins["servebench"], "describe"], 60)[1]


def one_run(bins, workloads, name, seed, seconds, trace, workdir,
            objects=None, check_every=CHECK_EVERY, moved=False, mix=None):
    """One fresh-server run; returns (correct, attempted, failed, metrics,
    summary lines)."""
    workload = workloads[name]
    workdir.mkdir(parents=True)
    csv = workdir / "base.csv"
    # The statement stream; data, load and trace must all see the same one.
    stream = [f"--workload={name}", f"--seed={seed}"]
    if mix:
        stream.append(f"--mix={mix}")
    data = [bins["servebench"], "data", *stream, f"--out={csv}"]
    if objects:
        data.append(f"--objects={objects}")
    if moved:
        data.append(f"--moved-out={workdir / 'moved.csv'}")
    if run_json(data, 170)[0] != 0:
        raise BenchError("servebench data failed")
    served_csv = workdir / "moved.csv" if moved else csv
    snapshot = workdir / "index.tlps"

    setups, builds, starts = [], [], []
    server = None
    try:
        for tag in range(MAX_SETUPS):
            if tag >= MIN_SETUPS and sum(setups) >= SETUP_BUDGET_S:
                break
            if server is not None:
                server.stop()
                server = None
            start = time.perf_counter()
            subprocess.run([str(bins["snapshot"]), "save", str(snapshot),
                            f"--from-csv={served_csv}", "--kind=2layer"],
                           check=True, capture_output=True, timeout=170,
                           preexec_fn=pinned(SERVER_CPUS))
            builds.append(time.perf_counter() - start)
            server = Server(bins, snapshot, workdir, workload, tag)
            starts.append(server.start_s)
            setups.append(builds[-1] + server.start_s)
        code, load = run_json(
            [bins["servebench"], "load", *stream, f"--port={server.port}",
             f"--seconds={seconds}", f"--check-every={check_every}",
             f"--csv={csv}"], seconds + 150)
        rss_mb = server.peak_rss_mb()
        counters = server.stop()
        server = None
    finally:
        if server is not None:
            server.stop()

    kinds = load["kinds"]
    correct = load["mismatches"] == 0 and load["checked"] > 0
    lines = [f"{name} seed={seed}: {load['throughput_ops']:.1f} ops/s "
             f"(slice median {load['slice_throughput_ops']:.1f}), "
             f"setup {statistics.median(setups):.4f} s of {len(setups)} (build "
             f"{statistics.median(builds):.4f} + start "
             f"{statistics.median(starts):.4f}), peak RSS {rss_mb:.1f} MB, "
             f"{load['attempted']} attempted, {load['failed']} failed, "
             f"{load['checked']} checked, {load['mismatches']} mismatched",
             "  whole window | median over groups of one-second slices:"]
    for kind, k in kinds.items():
        lines.append(f"  {kind:8s} n={k['n']:<8d} p50 {k['p50_us']:10.1f} us"
                     f"  p99 {k['p99_us']:10.1f} us  mean {k['mean_us']:10.1f} us"
                     f" | {k['groups']:3d} groups p50 {k['group_p50_us']:10.1f} us"
                     f"  p99 {k['group_p99_us']:10.1f} us")
    if load["first_problem"]:
        lines.append(f"  first problem: {load['first_problem']}")
    if code != 0 and correct and load["failed"] == 0:
        raise BenchError("servebench load failed")

    if not trace:
        metrics = {"throughput_ops": (load["slice_throughput_ops"], "1/s"),
                   "setup_s": (statistics.median(setups), "s"),
                   "server_rss_mb": (rss_mb, "MB")}
        min_samples = MIN_P99_SAMPLES if objects is None else 1  # smoke: toy
        for kind in LATENCY_KINDS:
            k = kinds.get(kind, {"n": 0})
            if k["n"] < min_samples:
                raise BenchError(f"{kind}: {k['n']} samples, a p99 needs "
                                 f"{min_samples}")
            metrics[f"{kind}_p50_us"] = (k["group_p50_us"], "us")
            metrics[f"{kind}_p99_us"] = (k["group_p99_us"], "us")
        return correct, load["attempted"], load["failed"], metrics, lines

    # The replay runs for half the measured time: per-layer numbers have no
    # regression bound, and the whole trace run must stay well inside 180 s.
    wal_dir = workdir / "trace-wal"
    wal_dir.mkdir()
    code, traced = run_json(
        [bins["servebench"], "trace", *stream, f"--snapshot={snapshot}",
         f"--seconds={seconds / 2}", f"--wal-dir={wal_dir}"],
        seconds + 150, SERVER_CPUS)
    if code != 0:
        raise BenchError("servebench trace failed")
    t = traced["metrics"]
    wal = load["walstats"]
    appends = wal.get("appends", 0)
    derived = {
        "wal.fsyncs_per_update": wal.get("fsync_batches", 0) / appends
        if appends else 0.0,
        "wal.bytes_per_update": wal.get("bytes_logged", 0) / appends
        if appends else 0.0,
        "server.busy_rejected": float(counters.get("busy_rejected", 0)),
        "server.protocol_errors": float(counters.get("protocol_errors", 0)),
    }
    for kind in LATENCY_KINDS:
        derived[f"net.outside_eval_us.{kind}"] = (
            kinds[kind]["group_p50_us"] - t[f"net.eval_us.{kind}.p50"])
    t.update(derived)
    metrics = {}
    for m in per_layer_spec():
        if m["name"] not in t:
            raise BenchError(f"trace did not measure {m['name']}")
        metrics[m["name"]] = (t[m["name"]], m["unit"])
    lines.append(f"  trace: {traced['statements']} statements replayed")
    return correct, load["attempted"], load["failed"], metrics, lines


def per_layer_spec():
    if BENCHMARK is None:
        raise BenchError("BENCHMARK.json not found")
    return BENCHMARK["per_layer"]


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": float(v), "unit": u}
                    for n, (v, u) in metrics.items()}})


def guarded_run(bins, workloads, name, seed, seconds, trace, **kw):
    """one_run in a fresh working directory that is removed afterwards."""
    workdir = bins["runs"] / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        return one_run(bins, workloads, name, seed, seconds, trace, workdir,
                       **kw)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def smoke(bins):
    workloads = describe(bins)
    # Every workload with and without the trace, and a live run of every
    # statement kind (the --mix override; covers the oracle's live SKYLINE
    # and DIVKNN checks, which no workload's own mix reaches).
    cases = [(name, trace, None) for name in workloads for trace in (0, 1)]
    cases.append(("live-1m-u20", 0,
                  "window:1,disk:1,knn:1,skyline:1,divknn:1,update:20"))
    ok = True
    for name, trace, mix in cases:
        correct, _, failed, _, lines = guarded_run(
            bins, workloads, name, 1, 1, trace, objects=SMOKE_OBJECTS,
            check_every=1, mix=mix)
        print("\n".join(lines))
        if not correct or failed:
            print(f"FAIL: {name} (trace={trace}, mix={mix}) did not pass")
            ok = False
    correct, *_ , lines = guarded_run(
        bins, workloads, "read-64k", 1, 1, False, objects=SMOKE_OBJECTS,
        check_every=1, moved=True)
    print("\n".join(lines))
    if correct:
        print("FAIL: the oracle accepted a server with one moved box")
        ok = False
    print("bench_smoke:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def all_workloads(bins, seed, runs, seconds, trace):
    workloads = describe(bins)
    ok = True
    for name in workloads:
        values = {}
        for r in range(runs):
            correct, attempted, failed, metrics, lines = guarded_run(
                bins, workloads, name, seed, seconds, trace)
            print("\n".join(lines))
            print(result_line(correct, attempted, failed, metrics))
            ok = ok and correct and failed == 0
            for m, (v, u) in metrics.items():
                values.setdefault(m, (u, []))[1].append(v)
        print(f"== {name}: median of {runs} run(s)")
        for m, (u, vs) in values.items():
            print(f"  {m:32s} {statistics.median(vs):14.4f} {u:6s} "
                  f"[{min(vs):.4f} .. {max(vs):.4f}]")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   default=BENCHMARK["run_seconds"] if BENCHMARK else 10)
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1))
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--build-dir", type=Path,
                   help="use the programs already built there")
    args = p.parse_args()
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"servebench: no repository sources in {ROOT}")
        return 2
    # SIGTERM unwinds like an error, so the finally blocks stop the servers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        bins = (binaries(args.build_dir.resolve()) if args.build_dir
                else build(build_root() / "servebench"))
        if args.smoke:
            return smoke(bins)
        if args.workload is None:
            return all_workloads(bins, args.seed, args.runs, args.seconds,
                                 args.trace)
        workloads = describe(bins)
        if args.workload not in workloads:
            raise BenchError(f"unknown workload {args.workload}; "
                             f"one of {', '.join(workloads)}")
        correct, attempted, failed, metrics, lines = guarded_run(
            bins, workloads, args.workload, args.seed, args.seconds,
            bool(args.trace))
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        log(f"servebench: {e}")
        return 1
    print("\n".join(lines))
    print(result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
