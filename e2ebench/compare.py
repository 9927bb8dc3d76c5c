#!/usr/bin/env python3
"""Compares two sets of benchmark runs, per workload and per metric.

    python3 e2ebench/compare.py --base .bench_out_parent --change .bench_out
    python3 e2ebench/compare.py --selftest

Each side is one or more result.json files, or directories searched for
them (run.py writes one per run). Runs pair up by (workload, trace, seed).
For every metric the table shows each side's median and quartiles, the
share of pairs the change won (ties count for neither side), and a verdict:

  improved    the change won at least 9 of 10 pairs (and at least 10 pairs
              were run) and the medians differ by more than the distance
              between the base's quartiles;
  worse       the change's median is worse than the base's by more than the
              metric's bound in BENCHMARK.json (per-layer metrics have no
              bound: the base won 9 of 10 pairs and the medians differ by
              more than the base's quartile distance);
  unresolved  neither, and the run-to-run spread is wider than the bound,
              unless every run of the change reads better than every run
              of the base;
  unchanged   otherwise.

A gain does not count when the change fails more: every metric of a
workload is "worse" when a change run failed its checks (correct is false)
or the change's share of failed operations there exceeds the base's.

Runs are refused when their host blocks differ (nproc, ISA, build type,
compiler, ANCHOR_THREADS), when a base run failed its checks, or when one
side holds two runs of the same (workload, trace, seed). Exit status: 0,
3 when any verdict is "worse", 2 when the runs cannot be compared.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOST_KEYS = ("nproc", "isa", "build_type", "compiler", "anchor_threads")
# Metrics that only some workloads report, so BENCHMARK.json cannot list them.
EXTRA = {"topk_recall_at_10": "higher"}


def load_runs(paths):
    runs = []
    for p in map(Path, paths):
        files = [p] if p.is_file() else sorted(p.rglob("result.json"))
        for f in files:
            runs.append(json.loads(f.read_text()))
    return runs


def host_of(run):
    return {k: run["host"].get(k) for k in HOST_KEYS}


def spec_of(bench):
    spec = {}
    for m in bench.get("end_to_end", []):
        spec[m["name"]] = (m["better"], m["bound"])
    for m in bench.get("per_layer", []):
        spec[m["name"]] = (m["better"], None)
    for name, better in EXTRA.items():
        spec.setdefault(name, (better, None))
    return spec


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, pairs, better, bound):
    """base/change: lists of values; pairs: list of (base, change)."""
    sign = 1.0 if better == "higher" else -1.0
    b1, bmed, b3 = quartiles(base)
    c1, cmed, c3 = quartiles(change)
    base_iqr = b3 - b1
    won = sum(1 for a, c in pairs if sign * (c - a) > 0)
    lost = sum(1 for a, c in pairs if sign * (c - a) < 0)
    n = len(pairs)
    gain = sign * (cmed - bmed)
    if n >= 10 and won >= 0.9 * n and gain > base_iqr:
        return "improved", won, n
    scale = abs(bmed) if bmed != 0 else 1.0
    if bound is not None:
        if -gain / scale > bound:
            return "worse", won, n
        spread = max(base_iqr / scale, (c3 - c1) / scale)
        if spread > bound:
            all_better = all(sign * (c - a) > 0 for c in change for a in base)
            return ("unchanged" if all_better else "unresolved"), won, n
        return "unchanged", won, n
    if n >= 10 and lost >= 0.9 * n and -gain > base_iqr:
        return "worse", won, n
    return ("unchanged" if abs(gain) <= base_iqr else "unresolved"), won, n


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def compare(base_runs, change_runs, bench):
    """Returns (rows, error). Each row: workload, trace, metric, unit, base
    quartiles, change quartiles, pairs won, pairs, verdict."""
    for side, runs in (("base", base_runs), ("change", change_runs)):
        if not runs:
            return [], f"no runs on the {side} side"
        sources = {r["host"].get("source") for r in runs}
        if len(sources) > 1:
            return [], f"{side} runs come from different sources: {sorted(sources)}"
        keys = [(r["workload"], r["trace"], r["seed"]) for r in runs]
        dups = sorted({k for k in keys if keys.count(k) > 1})
        if dups:
            return [], f"{side} side has more than one run of (workload, trace, seed) {dups}"
    bad_base = sorted({(r["workload"], r["trace"], r["seed"]) for r in base_runs if not r["correct"]})
    if bad_base:
        return [], f"base runs failed their checks: {bad_base}"
    hosts = {json.dumps(host_of(r), sort_keys=True) for r in base_runs + change_runs}
    if len(hosts) > 1:
        return [], "host blocks differ:\n  " + "\n  ".join(sorted(hosts))
    spec = spec_of(bench)
    rows = []
    groups = sorted({(r["workload"], r["trace"]) for r in base_runs + change_runs})
    for workload, trace in groups:
        b = {r["seed"]: r for r in base_runs if (r["workload"], r["trace"]) == (workload, trace)}
        c = {r["seed"]: r for r in change_runs if (r["workload"], r["trace"]) == (workload, trace)}
        if not b or not c:
            continue
        change_failed = (not all(r["correct"] for r in c.values())
                         or failed_share(c.values()) > failed_share(b.values()))
        names = [n for n in spec if any(n in r["metrics"] for r in list(b.values()) + list(c.values()))]
        for name in names:
            better, bound = spec[name]
            bv = [r["metrics"][name]["value"] for r in b.values() if name in r["metrics"]]
            cv = [r["metrics"][name]["value"] for r in c.values() if name in r["metrics"]]
            if not bv or not cv:
                continue
            pairs = [(b[s]["metrics"][name]["value"], c[s]["metrics"][name]["value"])
                     for s in sorted(set(b) & set(c))
                     if name in b[s]["metrics"] and name in c[s]["metrics"]]
            v, won, n = verdict(bv, cv, pairs, better, bound)
            if change_failed:
                v = "worse"
            unit = next(r["metrics"][name]["unit"] for r in b.values() if name in r["metrics"])
            rows.append((workload, trace, name, unit, quartiles(bv), quartiles(cv), won, n, v))
    return rows, None


def print_rows(rows):
    print(f"{'workload':20} {'t':1} {'metric':30} {'unit':12} "
          f"{'base q1/med/q3':>32} {'change q1/med/q3':>32} {'won':>7}  verdict")
    for w, t, name, unit, bq, cq, won, n, v in rows:
        fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
        print(f"{w:20} {t:1} {name:30} {unit:12} {fmt(bq):>32} {fmt(cq):>32} "
              f"{won:>3}/{n:<3}  {v}")


def selftest():
    bench = {"end_to_end": [{"name": "lat", "unit": "us", "better": "lower", "bound": 0.1}],
             "per_layer": [{"name": "layer", "unit": "us", "better": "lower"}]}
    host = {"nproc": 4, "isa": "avx2", "build_type": "RelWithDebInfo", "compiler": "12",
            "anchor_threads": ""}

    def runs(source, lat, layer):
        return [{"workload": "w", "trace": 0, "seed": s, "host": dict(host, source=source),
                 "correct": True, "attempted": 1000, "failed": 0,
                 "metrics": {"lat": {"value": lat(s), "unit": "us"},
                             "layer": {"value": layer(s), "unit": "us"}}}
                for s in range(10)]

    failures = 0

    def expect(cond, what):
        nonlocal failures
        print(("ok   " if cond else "FAIL ") + what)
        failures += 0 if cond else 1

    base = runs("a", lambda s: 100 + s % 3, lambda s: 50 + s % 2)
    verdicts = lambda rows: {r[2]: r[8] for r in rows}
    rows, err = compare(base, runs("b", lambda s: 80 + s % 3, lambda s: 50 + s % 2), bench)
    expect(err is None and verdicts(rows) == {"lat": "improved", "layer": "unchanged"},
           "a clear gain is improved, an equal layer unchanged")
    rows, _ = compare(base, runs("b", lambda s: 120 + s % 3, lambda s: 60 + s % 2), bench)
    expect(verdicts(rows) == {"lat": "worse", "layer": "worse"}, "a loss beyond the bound is worse")
    rows, _ = compare(base, runs("b", lambda s: 101 + s % 3, lambda s: 50 + s % 2), bench)
    expect(verdicts(rows)["lat"] == "unchanged", "a change within the bound is unchanged")
    noisy = runs("a", lambda s: 100 + 30 * (s % 2), lambda s: 50)
    rows, _ = compare(noisy, runs("b", lambda s: 104 + 30 * (s % 2), lambda s: 50), bench)
    expect(verdicts(rows)["lat"] == "unresolved", "spread wider than the bound is unresolved")
    other = runs("b", lambda s: 100, lambda s: 50)
    for r in other:
        r["host"]["nproc"] = 8
    _, err = compare(base, other, bench)
    expect(err is not None and "host" in err, "different host blocks are refused")
    gain = runs("b", lambda s: 80 + s % 3, lambda s: 40 + s % 2)
    gain[3].update(correct=False, failed=5)
    rows, err = compare(base, gain, bench)
    expect(err is None and set(verdicts(rows).values()) == {"worse"},
           "a gain whose run failed its checks is worse")
    gain = runs("b", lambda s: 80 + s % 3, lambda s: 40 + s % 2)
    failing_base = runs("a", lambda s: 100 + s % 3, lambda s: 50 + s % 2)
    for r in failing_base:
        r["failed"] = 1
    for r in gain:
        r["failed"] = 2
    rows, err = compare(failing_base, gain, bench)
    expect(err is None and set(verdicts(rows).values()) == {"worse"},
           "a gain with more failed operations than the base is worse")
    failing_base[0]["correct"] = False
    _, err = compare(failing_base, gain, bench)
    expect(err is not None and "base runs failed" in err, "a base run that failed its checks is refused")
    _, err = compare(base, gain + gain[:1], bench)
    expect(err is not None and "more than one run" in err, "duplicate runs of one seed are refused")
    print("compare selftests " + ("passed" if failures == 0 else "FAILED"))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", nargs="+", help="result.json files or directories")
    ap.add_argument("--change", nargs="+", help="result.json files or directories")
    ap.add_argument("--bench", default=str(ROOT / "BENCHMARK.json"))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        sys.exit(selftest())
    if not args.base or not args.change:
        ap.error("--base and --change are required")
    bench = json.loads(Path(args.bench).read_text())
    rows, err = compare(load_runs(args.base), load_runs(args.change), bench)
    if err:
        print(f"compare: refused: {err}", file=sys.stderr)
        sys.exit(2)
    print_rows(rows)
    sys.exit(3 if any(r[8] == "worse" for r in rows) else 0)


if __name__ == "__main__":
    main()
