#!/usr/bin/env python3
"""Paired A/B benchmark driver: is a candidate revision as fast as its base?

Run from anywhere inside the repository:

    python3 scripts/ab.py BASE CANDIDATE [WORKLOAD ...]

Both revisions are resolved with `git rev-parse`, exported once with
`git archive` into `.bench_ab/<sha>/tree` and built before any run is timed,
each into its own `.bench_ab/<sha>/target`. BASE == CANDIDATE is an A/A run.
Each workload (by default every workload in BENCHMARK.json) then runs PAIRS
times per side through that tree's own `perfbench/run.py --trace 0`, for
BENCHMARK.json's `run_seconds`. Both sides of a pair get the same seed; seeds
differ across pairs and are derived from the two commit ids, so a rerun
reproduces them and each new candidate gets fresh ones. The side that runs
first alternates from pair to pair.

Each workload x end-to-end metric row is judged by the no-regression rule:

- FAIL: the candidate's median is worse than the base's by more than the
  metric's bound;
- UNRESOLVED: otherwise, when the base's own IQR/median exceeds the bound,
  unless every candidate run beats every base run;
- PASS: otherwise. A row is also flagged GAIN when the candidate wins at
  least 9 of 10 pairs (ties count for neither side) and the medians differ by
  more than the base's IQR.

The overall verdict is `fail` when a row fails, a run is not `correct`, or
the candidate's failed-op share on a workload exceeds the base's. It is
`incomplete` when `perfbench/` or BENCHMARK.json differ between the two
revisions, since the runs then measure different benchmarks. The last thing
printed is one TDT-style RSLT record. The exit code is 0 only for `pass`.
"""

import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_ab")
# Ten pairs: the fewest for which "at least nine of ten wins" is a claim.
PAIRS = 10
GAIN_WIN_SHARE = 0.9
BENCHMARK_PATHS = ["perfbench", "BENCHMARK.json"]
USAGE = "usage: python3 scripts/ab.py BASE CANDIDATE [WORKLOAD ...]"


# ---- statistics and verdicts (pure) ----


def quartiles(values):
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def seeds(base, candidate):
    """The pair seeds: a function of the two commit ids, distinct per pair."""
    start = int(hashlib.sha256(f"{base}:{candidate}".encode()).hexdigest()[:8], 16)
    return [(start + pair) % 2**32 for pair in range(PAIRS)]


def judge(base, candidate, better, bound):
    """Judges one metric from paired runs (`base[k]` pairs with `candidate[k]`)."""
    sign = 1.0 if better == "higher" else -1.0
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(candidate)
    ratios = [c / b if b else math.inf for b, c in zip(base, candidate)]
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, candidate))
    losses = sum(sign * (c - b) < 0 for b, c in zip(base, candidate))
    spread = b3 - b1
    every_run_better = min(sign * c for c in candidate) > max(sign * b for b in base)
    if sign * (cm - bm) < -bound * abs(bm):
        verdict = "FAIL"
    elif spread > bound * abs(bm) and not every_run_better:
        verdict = "UNRESOLVED"
    else:
        verdict = "PASS"
    gain = wins >= GAIN_WIN_SHARE * len(base) and sign * (cm - bm) > spread
    return {
        "base": (b1, bm, b3),
        "candidate": (c1, cm, c3),
        "ratio": quartiles(ratios),
        "wins": wins,
        "losses": losses,
        "pairs": len(base),
        "verdict": verdict,
        "gain": gain,
    }


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def evaluate(spec, runs, changed_benchmark):
    """The overall verdict, the rows and the deviations.

    `runs` maps each workload to its pairs, `(base result, candidate result)`,
    each a parsed perfbench result line. `changed_benchmark` lists the
    benchmark paths that differ between the two revisions.
    """
    rows, deviations, failed = [], [], False
    for workload, pairs in runs.items():
        for k, pair in enumerate(pairs):
            for side, result in zip(("base", "candidate"), pair):
                if not result["correct"]:
                    failed = True
                    why = result.get("error", "correct: false")
                    deviations.append(f"{workload} pair {k + 1} {side}: audit failed ({why})")
        shares = [failed_share([pair[side] for pair in pairs]) for side in (0, 1)]
        if shares[1] > shares[0]:
            failed = True
            deviations.append(f"{workload}: failed-op share {shares[1]:.3g} exceeds the base's {shares[0]:.3g}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            complete = [p for p in pairs if all(name in r["metrics"] for r in p)]
            if not complete:
                deviations.append(f"{workload}.{name}: no pair reported it")
                continue
            row = judge(
                [p[0]["metrics"][name]["value"] for p in complete],
                [p[1]["metrics"][name]["value"] for p in complete],
                metric["better"],
                metric["bound"],
            )
            row.update(workload=workload, metric=name, bound=metric["bound"])
            rows.append(row)
            if row["verdict"] == "FAIL":
                failed = True
            if row["verdict"] == "UNRESOLVED":
                b1, bm, b3 = row["base"]
                deviations.append(
                    f"{workload}.{name}: base IQR/median {(b3 - b1) / bm:.3f} exceeds the bound {metric['bound']}"
                )
    if changed_benchmark:
        deviations.append("benchmark code differs between the revisions: " + ", ".join(changed_benchmark))
        return "incomplete", rows, deviations
    return ("fail" if failed else "pass"), rows, deviations


def fmt(q):
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def row_result(row):
    return row["verdict"] + (" GAIN" if row["gain"] else "")


def wins_text(row):
    """Pairs the candidate won and lost, of all pairs; the rest were ties."""
    return f"{row['wins']}-{row['losses']}/{row['pairs']}"


def render_table(rows):
    header = ("workload", "metric", "base median [q1, q3]", "candidate median [q1, q3]", "ratio [q1, q3]", "wins", "")
    lines = [header] + [
        (
            r["workload"],
            r["metric"],
            fmt(r["base"]),
            fmt(r["candidate"]),
            f"{r['ratio'][1]:.3f} [{r['ratio'][0]:.3f}, {r['ratio'][2]:.3f}]",
            wins_text(r),
            row_result(r),
        )
        for r in rows
    ]
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() for line in lines)


def render_rslt(verdict, environment, rows, deviations):
    """One TDT-style result record (YAML)."""
    out = [
        f"id: RSLT-AB-{environment['base'][:12]}-{environment['candidate'][:12]}",
        "test_id: perfbench",
        f"verdict: {verdict}",
        f"executed_date: {time.strftime('%Y-%m-%dT%H:%M:%SZ', time.gmtime())}",
        "environment:",
    ]
    out += [f"  {key}: {json.dumps(value)}" for key, value in environment.items()]
    out.append("step_results:" + ("" if rows else " []"))
    for r in rows:
        out += [
            f"  - step: {r['workload']}.{r['metric']}",
            f"    result: {row_result(r).lower()}",
            f"    base: {json.dumps(fmt(r['base']))}",
            f"    candidate: {json.dumps(fmt(r['candidate']))}",
            f"    ratio: {json.dumps(fmt(r['ratio']))}",
            f"    wins: {json.dumps(wins_text(r))}",
            f"    bound: {r['bound']}",
        ]
    out.append("deviations:" + ("" if deviations else " []"))
    out += [f"  - {json.dumps(d)}" for d in deviations]
    return "\n".join(out)


# ---- revisions, builds and runs ----


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True, text=True).stdout.strip()


def export_and_build(sha):
    """Exports and builds one revision; returns (tree, target dir)."""
    tree, target = os.path.join(WORK, sha, "tree"), os.path.join(WORK, sha, "target")
    if not os.path.isdir(tree):
        partial = tree + ".partial"
        shutil.rmtree(partial, ignore_errors=True)
        os.makedirs(partial)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha], stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", partial], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            sys.exit(f"ab: git archive {sha} failed")
        os.rename(partial, tree)
    manifest = os.path.join(tree, "perfbench", "Cargo.toml")
    print(f"ab: building {sha[:12]}", file=sys.stderr)
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(build, env=dict(os.environ, CARGO_TARGET_DIR=target)).returncode != 0:
        sys.exit(f"ab: the build of {sha} failed")
    return tree, target


def run_once(tree, target, workload, seed, seconds):
    """One untraced perfbench run; its parsed result line."""
    command = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload]
    command += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    run = subprocess.run(
        command, cwd=tree, env=dict(os.environ, CARGO_TARGET_DIR=target), capture_output=True, text=True
    )
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        result["metrics"] = {name: {"value": float(m["value"])} for name, m in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        result["error"] = f"exit {run.returncode}, no result line: {run.stderr.strip()[-200:]!r}"
    if run.returncode != 0 and result["correct"]:
        result["correct"] = False
        result["error"] = f"exit {run.returncode}"
    return result


def environment(base, candidate, run_seconds, pair_seeds):
    cpu = "unknown"
    with open("/proc/cpuinfo") as info:
        for line in info:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    return {
        "cpu": cpu,
        "cpus": os.cpu_count(),
        "kernel": platform.release(),
        "rustc": rustc,
        "base": base,
        "candidate": candidate,
        "run_seconds": run_seconds,
        "pairs": PAIRS,
        "seeds": pair_seeds,
    }


def main(argv):
    if len(argv) < 2 or any(arg.startswith("-") for arg in argv):
        print(USAGE, file=sys.stderr)
        return 2
    try:
        base, candidate = (git("rev-parse", "--verify", f"{rev}^{{commit}}") for rev in argv[:2])
    except subprocess.CalledProcessError as err:
        print(f"ab: {err.stderr.strip()}\n{USAGE}", file=sys.stderr)
        return 2
    changed_benchmark = git("diff", "--name-only", base, candidate, "--", *BENCHMARK_PATHS).split()
    spec = json.loads(git("show", f"{base}:BENCHMARK.json"))
    workloads = argv[2:] or [w["name"] for w in spec["workloads"]]
    unknown = sorted(set(workloads) - {w["name"] for w in spec["workloads"]})
    if unknown:
        print(f"ab: unknown workload(s) {', '.join(unknown)}\n{USAGE}", file=sys.stderr)
        return 2
    sides = [export_and_build(base)]
    sides.append(sides[0] if candidate == base else export_and_build(candidate))
    seconds, pair_seeds = spec["run_seconds"], seeds(base, candidate)
    runs = {}
    for workload in workloads:
        runs[workload] = []
        for k, seed in enumerate(pair_seeds):
            order = (0, 1) if k % 2 == 0 else (1, 0)
            pair = [None, None]
            for side in order:
                pair[side] = run_once(*sides[side], workload, seed, seconds)
                rate = pair[side]["metrics"].get("verdicts_per_s", {}).get("value", float("nan"))
                print(
                    f"ab: {workload} pair {k + 1}/{PAIRS} seed {seed} {('base', 'candidate')[side]}: "
                    f"{rate:.4g} verdicts/s, correct {pair[side]['correct']}",
                    file=sys.stderr,
                )
            runs[workload].append(tuple(pair))
    verdict, rows, deviations = evaluate(spec, runs, changed_benchmark)
    print(render_table(rows))
    print()
    print(render_rslt(verdict, environment(base, candidate, seconds, pair_seeds), rows, deviations))
    return 0 if verdict == "pass" else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
