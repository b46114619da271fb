#!/usr/bin/env python3
"""Summarizes the benchmark outputs into paper-style tables.

Reads the google-benchmark JSON files written by the bench binaries
(--benchmark_out=...) from a results directory and prints one compact table
per experiment, shaped like the paper's Table V / VI and figure series.

Also scans captured stdout logs (*.log / *.txt / *.out) for the prefixed
JSON lines the binaries emit alongside the benchmark numbers:
  TLP_QUERY_STATS {...}   per-run operation counters (docs/BENCHMARKING.md)
  TLP_SNAPSHOT {...}      cold-start timings from bench_snapshot
and prints an aggregated counters table per label.

Usage:
    tools/summarize_results.py [results_dir]
"""

import json
import os
import re
import sys
from collections import defaultdict


def load_benchmarks(results_dir):
    """Yields (name, entry) pairs from every JSON file in the directory."""
    for filename in sorted(os.listdir(results_dir)):
        if not filename.endswith(".json"):
            continue
        path = os.path.join(results_dir, filename)
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as err:
            print(f"warning: skipping {path}: {err}", file=sys.stderr)
            continue
        for entry in doc.get("benchmarks", []):
            yield entry["name"], entry


def strip_suffixes(name):
    """Removes google-benchmark's /min_time: and /iterations: decorations."""
    return re.sub(r"/(min_time|iterations|manual_time|repeats)[:\w.]*", "",
                  name)


def fmt_qps(value):
    if value >= 1e6:
        return f"{value / 1e6:8.2f}M/s"
    if value >= 1e3:
        return f"{value / 1e3:8.1f}k/s"
    return f"{value:8.1f}/s "


def load_prefixed_json(results_dir, prefix):
    """Yields parsed objects from `prefix {json}` lines in captured logs."""
    for filename in sorted(os.listdir(results_dir)):
        if not filename.endswith((".log", ".txt", ".out")):
            continue
        path = os.path.join(results_dir, filename)
        try:
            with open(path, errors="replace") as f:
                lines = f.readlines()
        except OSError as err:
            print(f"warning: skipping {path}: {err}", file=sys.stderr)
            continue
        for lineno, line in enumerate(lines, 1):
            if not line.startswith(prefix + " "):
                continue
            try:
                yield json.loads(line[len(prefix) + 1:])
            except json.JSONDecodeError as err:
                print(f"warning: {path}:{lineno}: bad {prefix} line: {err}",
                      file=sys.stderr)


def summarize_query_stats(results_dir):
    """Aggregates TLP_QUERY_STATS lines: counters summed per label."""
    totals = defaultdict(lambda: defaultdict(float))
    runs = defaultdict(int)
    for stats in load_prefixed_json(results_dir, "TLP_QUERY_STATS"):
        label = stats.get("label", "?")
        runs[label] += 1
        for key, value in stats.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                totals[label][key] += value
            elif key == "scanned" and isinstance(value, dict):
                for cls, count in value.items():
                    totals[label][f"scanned_{cls}"] += count
    if not runs:
        return

    print("\n=== query operation counters (TLP_QUERY_STATS) ===")
    columns = ("queries", "query_seconds", "tiles_visited", "scanned_total",
               "comparisons", "binary_search_probes", "duplicates_avoided",
               "posthoc_dedup", "candidates")
    for label in sorted(runs):
        counters = totals[label]
        parts = [f"runs={runs[label]}"]
        for key in columns:
            if key in counters:
                value = counters[key]
                parts.append(f"{key}={value:.4g}" if key == "query_seconds"
                             else f"{key}={int(value)}")
        print(f"  {label:32s} {'  '.join(parts)}")


def summarize_snapshots(results_dir):
    """Prints the bench_snapshot cold-start lines (one row per run)."""
    rows = list(load_prefixed_json(results_dir, "TLP_SNAPSHOT"))
    if not rows:
        return
    print("\n=== snapshot cold start (TLP_SNAPSHOT) ===")
    for row in rows:
        print(f"  n={row.get('n', 0):>9}  "
              f"build={row.get('build_seconds', 0):7.3f}s  "
              f"load={row.get('load_seconds', 0):7.3f}s  "
              f"mmap={row.get('mmap_seconds', 0):7.4f}s  "
              f"mmap_first_query={row.get('mmap_first_query_seconds', 0):.6f}s  "
              f"speedup={row.get('mmap_cold_start_speedup', 0):6.1f}x")


def main():
    results_dir = sys.argv[1] if len(sys.argv) > 1 else "results"
    groups = defaultdict(list)
    for name, entry in load_benchmarks(results_dir):
        name = strip_suffixes(name)
        experiment = name.split("/", 1)[0]
        groups[experiment].append((name, entry))

    for experiment in sorted(groups):
        print(f"\n=== {experiment} ===")
        rows = groups[experiment]
        for name, entry in rows:
            label = name.split("/", 1)[1] if "/" in name else name
            parts = []
            qps = entry.get("items_per_second")
            if qps is not None:
                parts.append(f"throughput {fmt_qps(qps)}")
            else:
                parts.append(f"time {entry.get('real_time', 0):10.2f} "
                             f"{entry.get('time_unit', '')}")
            for counter in ("size_mb", "avg_results", "speedup", "pairs",
                            "filter_us", "secondary_us", "refine_us",
                            "candidates", "guaranteed", "refined"):
                if counter in entry:
                    parts.append(f"{counter}={entry[counter]:.4g}")
            print(f"  {label:60s} {'  '.join(parts)}")

    summarize_query_stats(results_dir)
    summarize_snapshots(results_dir)


if __name__ == "__main__":
    main()
