#!/usr/bin/env python3
"""Alternating servebench pairs: a parent checkout against a change.

    tools/serve_pairs.py PARENT CHANGE WORKLOAD PAIRS FIRST_SEED \\
        [--records FILE]
    tools/serve_pairs.py --replay FILE

Pair i (seeds FIRST_SEED, FIRST_SEED + 1, ...) runs

    python3 servebench/run.py --workload WORKLOAD --seed S \\
        --seconds <BENCHMARK.json run_seconds> --trace 0

once in each checkout, one after the other, and flips which side goes
first on every pair. Each run's JSON line is printed as one record line
(`{"pair", "seed", "side", "first", "exit", "result"}`) and, with
--records, appended to FILE; --replay summarizes such a file again.

For every end-to-end metric in BENCHMARK.json (its `better` and `bound`)
the summary gives each side's median and quartiles, the change's relative
move and its pair wins (ties count for neither side), and a label:

  gain          the change wins at least 9/10 of the pairs and its median
                beats the parent's by more than the parent's interquartile
                distance;
  regression    the change's median is worse than the parent's by more
                than the bound (a fraction of the parent's median);
  unresolved    neither, and the runs of either side spread (interquartile
                distance over median) wider than the bound, unless every
                change run reads better than every parent run;
  within bound  otherwise.

The failed share of operations is summed per side. Exit status: 0 when
every run was correct, 1 when a run was not correct or gave no result,
2 on usage errors.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
GAIN_SHARE = 0.9      # pairs the change must win to claim a gain
RUN_TIMEOUT_S = 900   # data generation, set-ups, the measured window, checks


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values):
    """(q1, median, q3) of a non-empty list."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def run_once(checkout, workload, seed, seconds):
    """One run.py invocation; returns (exit code, its JSON line or None)."""
    cmd = [sys.executable, "servebench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        print(proc.stderr.strip()[-2000:], file=sys.stderr)
    return proc.returncode, result


def run_pairs(parent, change, workload, pairs, first_seed, records_path):
    seconds = benchmark_spec()["run_seconds"]
    checkouts = {"parent": parent, "change": change}
    records = []
    for i in range(pairs):
        seed = first_seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            code, result = run_once(checkouts[side], workload, seed, seconds)
            record = {"pair": i, "seed": seed, "side": side,
                      "first": side == order[0], "exit": code,
                      "result": result}
            line = json.dumps(record)
            print(line, flush=True)
            if records_path is not None:
                with open(records_path, "a", encoding="utf-8") as f:
                    f.write(line + "\n")
            records.append(record)
    return records


def correct(record):
    result = record["result"]
    return record["exit"] == 0 and result is not None and result["correct"]


def label(better, bound, parent, change, wins, pairs):
    """The verdict for one metric from each side's values (paired order)."""
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    improvement = sign * (p_med - c_med)
    if wins >= GAIN_SHARE * pairs and improvement > p_q3 - p_q1:
        return "gain"
    if p_med != 0 and -improvement / abs(p_med) > bound:
        return "regression"
    spread = max((p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    every_run_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if spread > bound and not every_run_better:
        return "unresolved"
    return "within bound"


def summarize(records):
    """Prints the per-metric table; returns the exit status."""
    bad = [r for r in records if not correct(r)]
    for r in bad:
        print(f"NOT CORRECT: pair {r['pair']} seed {r['seed']} {r['side']} "
              f"(exit {r['exit']})")
    by_pair = {}
    for r in records:
        if correct(r):
            by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]
    complete = [by_pair[i] for i in sorted(by_pair) if len(by_pair[i]) == 2]
    print(f"{len(complete)} complete pairs")
    for side in SIDES:
        attempted = sum(p[side]["attempted"] for p in complete)
        failed = sum(p[side]["failed"] for p in complete)
        share = failed / attempted if attempted else 0.0
        print(f"  {side}: {failed} of {attempted} operations failed "
              f"({share:.2e})")
    if not complete:
        return 1
    print(f"{'metric':16s} {'parent median [q1, q3]':>30s} "
          f"{'change median [q1, q3]':>30s} {'move':>8s} {'wins':>6s}  label")
    for m in benchmark_spec()["end_to_end"]:
        name = m["name"]
        if any(name not in p[s]["metrics"] for p in complete for s in SIDES):
            continue
        vals = {s: [p[s]["metrics"][name]["value"] for p in complete]
                for s in SIDES}
        sign = 1.0 if m["better"] == "lower" else -1.0
        wins = sum(1 for p, c in zip(vals["parent"], vals["change"])
                   if sign * (p - c) > 0)
        verdict = label(m["better"], m["bound"], vals["parent"],
                        vals["change"], wins, len(complete))
        cells = []
        for s in SIDES:
            q1, med, q3 = quartiles(vals[s])
            cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
        p_med = quartiles(vals["parent"])[1]
        c_med = quartiles(vals["change"])[1]
        move = f"{(c_med - p_med) / p_med:+.1%}" if p_med else "n/a"
        print(f"{name:16s} {cells[0]:>30s} {cells[1]:>30s} {move:>8s} "
              f"{wins:>2d}/{len(complete):<3d}  {verdict}")
    return 1 if bad else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", nargs="?", type=Path)
    p.add_argument("change", nargs="?", type=Path)
    p.add_argument("workload", nargs="?")
    p.add_argument("pairs", nargs="?", type=int)
    p.add_argument("first_seed", nargs="?", type=int)
    p.add_argument("--records", type=Path,
                   help="append each run's record line to this file")
    p.add_argument("--replay", type=Path,
                   help="summarize the record lines of this file")
    args = p.parse_args(argv)
    if args.replay is not None:
        lines = args.replay.read_text().splitlines()
        return summarize([json.loads(l) for l in lines if l.strip()])
    if args.first_seed is None or args.pairs < 1:
        p.print_usage(sys.stderr)
        return 2
    for checkout in (args.parent, args.change):
        if not (checkout / "servebench" / "run.py").is_file():
            print(f"serve_pairs: no servebench/run.py in {checkout}",
                  file=sys.stderr)
            return 2
    records = run_pairs(args.parent.resolve(), args.change.resolve(),
                        args.workload, args.pairs, args.first_seed,
                        args.records)
    return summarize(records)


if __name__ == "__main__":
    sys.exit(main())
