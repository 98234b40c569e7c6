#!/usr/bin/env python3
"""The repository's benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
repository's own CMake project (Release, with the benchmark's targets
attached through perfbench/cmake/attach.cmake) under .bench_build/;
later runs rebuild incrementally. kperf then runs the workload and the
output checks, and this script prints a human report followed, as the
last line of standard output, by one JSON object:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}, ...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The exit code is 0 only when every check
passed.

Other modes:
    --spread N    run N seeds (seed, seed+1, ...) and print each metric's
                  median, quartiles, relative spread and sample counts;
                  --out names the summary document
    --selftest    build and run the harness tests (perfbench/tests)
    --compare PARENT CHANGE
                  pair two --spread documents run by run and apply the
                  9-of-10 rule and the end-to-end bounds per metric

See perfbench/README.md for the workloads and the metric catalog.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(ROOT, "tests", "golden", "fig4_smoke_seed42.json")
# kperf must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def build(targets):
    """Configure (once) and build @p targets; returns the binary dir."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no repository sources next to perfbench/ (%s)" % ROOT)
    base = build_dir()
    cmake_dir = os.path.join(base, "cmake")
    os.makedirs(base, exist_ok=True)
    log_path = os.path.join(base, "build.log")
    with open(os.path.join(base, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "a") as log:
            steps = []
            if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
                steps.append([
                    "cmake", "-S", ROOT, "-B", cmake_dir,
                    "-DCMAKE_BUILD_TYPE=Release",
                    "-DKILLI_CHECK_INVARIANTS=OFF",
                    "-DCMAKE_PROJECT_INCLUDE=" +
                    os.path.join(HERE, "cmake", "attach.cmake")])
            steps.append(["cmake", "--build", cmake_dir, "-j",
                          str(min(os.cpu_count() or 1, 4)), "--target"] +
                         targets)
            for cmd in steps:
                log.write("$ %s\n" % " ".join(cmd))
                log.flush()
                try:
                    rc = subprocess.run(cmd, stdout=log, stderr=log,
                                        timeout=BUILD_TIMEOUT_S).returncode
                except subprocess.TimeoutExpired:
                    rc = -1
                if rc != 0:
                    log.flush()
                    with open(log_path) as fh:
                        sys.stderr.write("".join(fh.readlines()[-30:]))
                    fail("build failed (log: %s)" % log_path)
    return cmake_dir


def source_digest():
    """SHA-256 over the sources the benchmark builds (the build id is
    'unknown' outside a git checkout)."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "bench", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if "__pycache__" not in d)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def canonical_sweep(path):
    """tools/extract_sweep_results.py's canonical form of a report."""
    with open(path) as fh:
        doc = json.load(fh)
    return json.dumps({"workloads": doc["workloads"]}, sort_keys=True,
                      indent=1) + "\n"


def run_kperf(cmake_dir, args):
    run_root = os.path.join(build_dir(), "run")
    run_dir = os.path.join(run_root, "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [os.path.join(cmake_dir, "perfbench", "kperf"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--kserved", os.path.join(cmake_dir, "src", "serve", "kserved"),
           "--kfleetd", os.path.join(cmake_dir, "src", "fleet", "kfleetd"),
           "--run-dir", ".", "--out", "result.json"]
    # Its own process group: on a timeout the whole tree (kperf and the
    # daemons it spawned) is stopped together.
    proc = subprocess.Popen(cmd, cwd=run_dir, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            preexec_fn=os.setpgrp)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.communicate()
        fail("kperf exceeded %d s (run dir %s)" % (RUN_TIMEOUT_S, run_dir))
    if proc.returncode != 0:
        sys.stderr.write(out[-2000:] + err[-4000:])
        fail("kperf exited %d (run dir %s)" % (proc.returncode, run_dir))
    with open(os.path.join(run_dir, "result.json")) as fh:
        doc = json.load(fh)

    if args.workload == "fig4-sweep":
        check = os.path.join(run_dir, "fig4_golden_check.json")
        try:
            with open(GOLDEN) as fh:
                golden = fh.read()
            same = os.path.isfile(check) and canonical_sweep(check) == golden
        except OSError:
            same = False
        if not same:
            doc["ops_failed"] += 1
            doc["failures"].append(
                "seed-42 golden-scale campaign does not extract to "
                "tests/golden/fig4_smoke_seed42.json")

    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    keep = os.path.join(results, "%s-seed%d-trace%d.json" %
                        (args.workload, args.seed, args.trace))
    with open(keep, "w") as fh:
        json.dump(doc, fh, indent=1)
    if doc["ops_failed"] == 0:
        shutil.rmtree(run_dir, ignore_errors=True)
    return doc, keep


def fmt(value):
    if value is None:
        return "null"
    return "%.6g" % value


def report(doc, keep, spec):
    stamp = dict(doc["stamp"])
    stamp["source_digest"] = source_digest()
    print("perfbench %s seed=%d seconds=%g trace=%d threads=%d" %
          (doc["workload"], doc["seed"], doc["seconds"], doc["trace"],
           doc["threads"]))
    print("stamp " + json.dumps(stamp, sort_keys=True))
    if not stamp["comparable"]:
        print("WARNING: not comparable: " + stamp["not_comparable_because"])
    gated = {m["name"] for m in spec["end_to_end"]}
    for m in doc["metrics"]:
        tag = "*" if m["name"] in gated else " "
        extra = " (n=%d)" % m["samples"] if m["samples"] else ""
        note = "  # " + m["note"] if m.get("note") else ""
        print("%s %-32s %14s %-8s%s%s" % (tag, m["name"], fmt(m["value"]),
                                          m["unit"], extra, note))
    print("ops %d, ops_failed %d" % (doc["ops"], doc["ops_failed"]))
    for f in doc["failures"]:
        print("FAILED: " + f)
    print("result document: " + os.path.relpath(keep, ROOT))


def final_line(doc, spec, trace):
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    by_name = {m["name"]: m for m in doc["metrics"]}
    metrics = {}
    for w in wanted:
        m = by_name.get(w["name"])
        if m is None:
            fail("kperf did not report %s" % w["name"])
        value = m["value"]
        if value is None:
            if not trace:
                fail("%s has no value: %s" % (w["name"], m.get("note")))
            value = 0  # the layer is off this workload's path
        metrics[w["name"]] = {"value": value, "unit": w["unit"]}
    failed = doc["ops_failed"]
    return {"correct": failed == 0, "attempted": max(doc["ops"], 1),
            "failed": failed, "metrics": metrics}


def single(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (known: %s)" % (args.workload,
                                                   ", ".join(names)))
    cmake_dir = build(["kperf", "kserved", "kfleetd"])
    doc, keep = run_kperf(cmake_dir, args)
    report(doc, keep, spec)
    line = final_line(doc, spec, args.trace)
    print(json.dumps(line))
    sys.stdout.flush()
    return 0 if line["correct"] else 1


def spread(args):
    """Run N seeds and print each metric's median and quartiles."""
    spec = load_spec()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    units = {}
    samples = {}
    for seed in range(args.seed, args.seed + args.spread):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        t0 = time.time()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
        if proc.returncode != 0:
            fail("seed %d failed:\n%s" % (seed, proc.stdout[-3000:]))
        line = json.loads(last)
        for name, m in line["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        with open(os.path.join(build_dir(), "results", "%s-seed%d-trace%d.json"
                               % (args.workload, seed, args.trace))) as fh:
            for m in json.load(fh)["metrics"]:
                samples.setdefault(m["name"], []).append(m["samples"])
        print("seed %d: %.1f s, %s" % (seed, time.time() - t0, json.dumps(
            {k: round(v["value"], 6) for k, v in line["metrics"].items()}
            if not args.trace else {"attempted": line["attempted"]})))
        sys.stdout.flush()
    print("%-32s %12s %12s %12s %8s %5s %9s %s" %
          ("metric", "q1", "median", "q3", "iqr/med", "runs", "samples",
           "bound"))
    summary = {}
    for name, vals in values.items():
        if len(vals) >= 2:
            q1, med, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = med = q3 = vals[0]
        rel = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and not args.trace:
            flag = "ok" if rel < bound / 3 else (
                "within bound" if rel <= bound else "TOO WIDE")
        # Samples behind each run's value (percentiles and medians).
        n = samples.get(name) or [0]
        n_text = "%d-%d" % (min(n), max(n)) if max(n) else "-"
        print("%-32s %12.6g %12.6g %12.6g %8.4f %5d %9s %s %s" %
              (name, q1, med, q3, rel, len(vals), n_text,
               "" if bound is None else bound, flag))
        summary[name] = {"q1": q1, "median": med, "q3": q3,
                         "iqr_over_median": rel, "runs": len(vals),
                         "samples_per_run": n, "unit": units[name],
                         "seeds": list(range(args.seed,
                                             args.seed + args.spread)),
                         "values": vals}
    out = args.out or os.path.join(
        build_dir(), "results",
        "spread-%s-trace%d.json" % (args.workload, args.trace))
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(summary, fh, indent=1)
    print("spread document: " + out)
    return 0


def compare(parent_path, change_path):
    """Pair two spread documents run by run (same seeds, same order)
    and apply the 9-of-10 rule to every metric."""
    spec = load_spec()
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    with open(parent_path) as fh:
        parent = json.load(fh)
    with open(change_path) as fh:
        change = json.load(fh)
    print("%-32s %12s %12s %9s %10s %s" % ("metric", "parent", "change",
                                           "wins", "vs spread", "verdict"))
    for name in parent:
        if name not in change:
            continue
        p, c = parent[name], change[name]
        if p.get("seeds") != c.get("seeds"):
            fail("%s: the two documents ran different seeds" % name)
        sign = 1 if better.get(name, "lower") == "higher" else -1
        pairs = list(zip(p["values"], c["values"]))
        wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
        delta = c["median"] - p["median"]
        spread = p["q3"] - p["q1"]
        gain = wins * 10 >= 9 * len(pairs) and sign * delta > spread
        worse = -sign * delta / p["median"] if p["median"] else 0.0
        verdict = "gain" if gain else ""
        if name in bounds and worse > bounds[name]:
            verdict = "REGRESSION (worse by %.1f%%, bound %.0f%%)" % (
                100 * worse, 100 * bounds[name])
        print("%-32s %12.6g %12.6g %5d/%-3d %10.3g %s" %
              (name, p["median"], c["median"], wins, len(pairs),
               abs(delta) / spread if spread else float("inf"), verdict))
    return 0


def selftest():
    """Harness tests, plus BENCHMARK.json against the kperf catalog."""
    cmake_dir = build(["kperf", "kperf_test"])
    bin_dir = os.path.join(cmake_dir, "perfbench")
    rc = subprocess.run([os.path.join(bin_dir, "kperf_test")]).returncode
    catalog = json.loads(subprocess.run(
        [os.path.join(bin_dir, "kperf"), "--catalog"], check=True,
        stdout=subprocess.PIPE, text=True).stdout)
    spec = load_spec()
    for group in ("end_to_end", "per_layer"):
        units = {e["name"]: e["unit"] for e in catalog[group]}
        for m in spec[group]:
            if units.get(m["name"]) != m["unit"]:
                print("BENCHMARK.json %s metric %s (%s) is not in kperf's "
                      "catalog with that unit" % (group, m["name"], m["unit"]))
                rc = rc or 1
    print("catalog check: %s" % ("ok" if rc == 0 else "FAILED"))
    return rc


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spread", type=int, default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--out", help="where --spread writes its document")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        ap.error("--workload is required")
    if args.spread:
        return spread(args)
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
