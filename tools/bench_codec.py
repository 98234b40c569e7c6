#!/usr/bin/env python3
"""Codec benchmark: codec_micro's reference-vs-production twins as
paired speedups, written to BENCH_codec.json and gated with --check.

    tools/bench_codec.py [--build build-perf] [--out BENCH_codec.json]
                         [--check]
    tools/bench_codec.py --smoke --build BUILD_DIR
    tools/bench_codec.py --selftest

Runs BUILD/bench/codec_micro once, its repetitions shuffled by
google-benchmark's random interleaving. The k-th run of a twin's
reference side (last argument 0) is paired with the k-th run of its
production side (1) by repetition_index, and a row's ratio is the
median of the per-pair ratios, so host noise moves single pairs, not
one side. The report states its host, including the project's own
CMAKE_BUILD_TYPE and KILLI_CHECK_INVARIANTS from the build's
CMakeCache.txt; measure a `tools/ci_build.sh perf` build.

--check exits 1 unless every gate in GATES holds. --smoke runs one
short repetition and checks only names. --selftest checks pairing and
gates on canned google-benchmark JSON. Every mode exits 1 when a
benchmark a row reads is missing, so a renamed BM_* cannot pass.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPETITIONS = 9
MIN_TIME_S = 0.1  # per repetition; the fault-map twins run once each
UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def twin(base):
    return (f"{base}/0", f"{base}/1")


# Row -> (numerator, denominator) benchmark names. A twin's ratio is
# its reference side over its production side (a speedup); a trace
# row is the traced probe loop over the untraced one (an overhead).
ROWS = {
    "secded_encode": twin("BM_SecdedEncode"),
    "secded_decode": twin("BM_SecdedDecodeClean"),
    "secded_encode_decode": twin("BM_SecdedEncodeDecode"),
    "parity16_encode": twin("BM_ParityEncode16"),
    "dected_encode": twin("BM_BchEncode/2"),
    "dected_probe": twin("BM_BchProbe"),
    "olsc_encode": twin("BM_OlscEncode/11"),
    "faultmap_sample": twin("BM_FaultMapSample"),
    # The full skip-sampled die over one covered for 0.625 V.
    "faultmap_covered": ("BM_FaultMapSample/1", "BM_FaultMapSample/2"),
    "sweep_faultmap": twin("BM_SweepFaultMap"),
    "trace_null_sink": ("BM_TraceProbeNullSink", "BM_TraceProbeUntraced"),
    "trace_masked_sink": ("BM_TraceProbeMaskedSink",
                          "BM_TraceProbeUntraced"),
}

# Row -> (">=", floor) on a speedup or ("<=", bound) on an overhead.
GATES = {
    "secded_encode_decode": (">=", 3.0),
    "sweep_faultmap": (">=", 2.0),
    # A covered die makes the same draws but stores ~7K of 2.7M cells.
    "faultmap_covered": (">=", 1.5),
    # probe() answers <= t errors without Berlekamp-Massey and Chien.
    "dected_probe": (">=", 100.0),
    # Null sink is how untraced binaries run (no --trace, no sink).
    "trace_null_sink": ("<=", 1.02),
    # A live sink with an empty mask adds a relaxed atomic load.
    "trace_masked_sink": ("<=", 1.10),
}


def runs_by_index(doc):
    """{name: {repetition_index: real time in ns}} of doc's iteration
    runs. Aggregates are ignored, and a name drops the key:value parts
    google-benchmark appends ("BM_X/0/iterations:1" is "BM_X/0")."""
    runs = {}
    for b in doc["benchmarks"]:
        if b.get("run_type", "iteration") == "iteration":
            name = "/".join(p for p in b["name"].split("/") if ":" not in p)
            runs.setdefault(name, {})[b.get("repetition_index", 0)] = (
                b["real_time"] * UNIT_NS[b["time_unit"]])
    return runs


def analyse(doc, check):
    """Return (rows, exit code) for a google-benchmark JSON document."""
    runs = runs_by_index(doc)
    lost = sorted({n for pair in ROWS.values() for n in pair} - runs.keys())
    if lost:
        print("bench_codec: missing benchmarks: " + ", ".join(lost),
              file=sys.stderr)
        return None, 1
    rows, failed = {}, []
    for row, (num, den) in ROWS.items():
        pairs = sorted(runs[num].keys() & runs[den].keys())
        rows[row] = {
            "numerator": num,
            "denominator": den,
            "numerator_ns": statistics.median(runs[num][i] for i in pairs),
            "denominator_ns": statistics.median(runs[den][i] for i in pairs),
            "ratio": statistics.median(runs[num][i] / runs[den][i]
                                       for i in pairs),
            "pairs": len(pairs),
        }
        line = f"{row:22s} {rows[row]['ratio']:8.3f}x  ({len(pairs)} pairs)"
        if check and row in GATES:
            op, bound = GATES[row]
            ratio = rows[row]["ratio"]
            ok = ratio >= bound if op == ">=" else ratio <= bound
            line += f"  gate {op} {bound}: {'ok' if ok else 'FAIL'}"
            if not ok:
                failed.append(row)
        print(line)
    if failed:
        print("bench_codec: gate failed: " + ", ".join(failed),
              file=sys.stderr)
    return rows, 1 if failed else 0


def run_codec_micro(build, args):
    exe = os.path.join(build, "bench", "codec_micro")
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "codec_micro.json")
        subprocess.run([exe, *args, f"--benchmark_out={out}",
                        "--benchmark_out_format=json"],
                       check=True, stdout=subprocess.DEVNULL)
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)


def host(build):
    cache = {}
    with open(os.path.join(build, "CMakeCache.txt"), encoding="utf-8") as fh:
        for line in fh:
            key, sep, value = line.partition("=")
            if sep and not line.startswith(("#", "//")):
                cache[key.split(":")[0]] = value.strip()
    model = platform.processor() or "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((l.split(":", 1)[1].strip() for l in fh
                          if l.startswith("model name")), model)
    cxx = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([cxx, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    return {
        "cpus": os.cpu_count(),
        "cpu_model": model,
        "compiler": version[0] if version else cxx,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "check_invariants": cache.get("KILLI_CHECK_INVARIANTS", ""),
    }


def canned(times, reversed_names=()):
    """google-benchmark JSON holding times = {name: [ns by repetition
    index]}; the runs of @p reversed_names are listed last index
    first, and every name gets a decoy median aggregate."""
    benches = []
    for name, ns in times.items():
        order = range(len(ns))
        if name in reversed_names:
            order = reversed(order)
        benches += [{"name": name, "run_type": "iteration",
                     "repetition_index": i, "real_time": ns[i],
                     "time_unit": "ns"} for i in order]
        benches.append({"name": name + "_median", "run_type": "aggregate",
                        "real_time": 1.0, "time_unit": "ns"})
    return {"benchmarks": benches}


def selftest():
    log = io.StringIO()
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            selftest_cases()
    except AssertionError:
        sys.stderr.write(log.getvalue())
        raise
    print("bench_codec: selftest ok")
    return 0


def selftest_cases():
    # The names are spelled out rather than read from ROWS, so renaming
    # a row's benchmark here or in codec_micro fails this or --smoke.
    times = {}
    for base in ("BM_SecdedEncode", "BM_SecdedDecodeClean",
                 "BM_ParityEncode16", "BM_BchEncode/2", "BM_OlscEncode/11",
                 "BM_FaultMapSample", "BM_SweepFaultMap"):
        suffix = "/iterations:1" if "Map" in base else ""
        times[f"{base}/0{suffix}"] = [400.0, 400.0, 400.0]
        times[f"{base}/1{suffix}"] = [100.0, 100.0, 100.0]
    times["BM_FaultMapSample/2/iterations:1"] = [50.0, 50.0, 50.0]
    times["BM_BchProbe/0"] = [50000.0, 50000.0, 50000.0]
    times["BM_BchProbe/1"] = [100.0, 100.0, 100.0]
    # Per-pair ratios 1, 4, 3: the median is 3.0, while the ratio of
    # the medians is 2.0 and pairing by list position (the production
    # runs are listed in reverse) gives 4.0.
    times["BM_SecdedEncodeDecode/0"] = [100.0, 200.0, 900.0]
    times["BM_SecdedEncodeDecode/1"] = [100.0, 50.0, 300.0]
    times["BM_TraceProbeUntraced"] = [20.0, 20.0, 20.0]
    times["BM_TraceProbeNullSink"] = [20.2, 20.2, 20.2]
    times["BM_TraceProbeMaskedSink"] = [21.0, 21.0, 21.0]
    flipped = ("BM_SecdedEncodeDecode/1",)

    rows, code = analyse(canned(times, flipped), check=True)
    assert code == 0 and rows["secded_encode_decode"]["ratio"] == 3.0, rows
    assert rows["secded_encode_decode"]["pairs"] == 3, rows
    assert rows["sweep_faultmap"]["ratio"] == 4.0, rows
    assert rows["faultmap_covered"]["ratio"] == 2.0, rows

    slow = dict(times, **{"BM_SweepFaultMap/1/iterations:1":
                          [100.0, 210.0, 210.0]})
    assert analyse(canned(slow, flipped), check=True)[1] == 1
    assert analyse(canned(slow, flipped), check=False)[1] == 0
    heavy = dict(times, BM_TraceProbeNullSink=[20.5, 20.5, 20.5])
    assert analyse(canned(heavy, flipped), check=True)[1] == 1
    # A covered die that stored every cell would cost a full one.
    uncovered = dict(times, **{"BM_FaultMapSample/2/iterations:1":
                               [80.0, 80.0, 80.0]})
    assert analyse(canned(uncovered, flipped), check=True)[1] == 1
    # A probe that runs the decoder again is about as slow as decode().
    solving = dict(times, **{"BM_BchProbe/1": [25000.0] * 3})
    assert analyse(canned(solving, flipped), check=True)[1] == 1

    renamed = dict(times)
    renamed["BM_SecdedEncodeDecodeX/1"] = renamed.pop(
        "BM_SecdedEncodeDecode/1")
    assert analyse(canned(renamed), check=False)[1] == 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--build", default=os.path.join(ROOT, "build-perf"),
                    help="CMake build directory holding bench/codec_micro")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_codec.json"))
    ap.add_argument("--check", action="store_true",
                    help="exit 1 unless every gate holds")
    ap.add_argument("--smoke", action="store_true",
                    help="one short repetition; check names only")
    ap.add_argument("--selftest", action="store_true",
                    help="check pairing and gates on canned JSON")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if args.smoke:
        doc = run_codec_micro(args.build, ["--benchmark_repetitions=1",
                                           "--benchmark_min_time=0.001"])
        return analyse(doc, check=False)[1]

    doc = run_codec_micro(args.build, [
        "--benchmark_enable_random_interleaving=true",
        f"--benchmark_repetitions={REPETITIONS}",
        f"--benchmark_min_time={MIN_TIME_S}"])
    rows, code = analyse(doc, args.check)
    if rows is None:
        return code
    runs = runs_by_index(doc)
    report = {
        "format": "killi-bench-codec-v1",
        "tool": "tools/bench_codec.py",
        "host": host(args.build),
        "run": {"repetitions": REPETITIONS, "min_time_s": MIN_TIME_S,
                "random_interleaving": True, "timer": "real_time"},
        "gates": {row: f"{op} {bound}" for row, (op, bound) in GATES.items()},
        "rows": rows,
        "median_ns": {name: statistics.median(ns.values())
                      for name, ns in runs.items()},
    }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
