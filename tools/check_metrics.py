#!/usr/bin/env python3
"""Sanity-check kserved/kfleetd Prometheus scrapes (CI smoke jobs).

Usage:
    check_metrics.py [--fleet] BEFORE.prom AFTER.prom [KTOP.json]

Parses two /metrics scrapes taken around a kcli workload, and
asserts:

  * both scrapes parse cleanly (every sample line belongs to a
    family declared with # TYPE, values are finite numbers, and
    histogram bucket counts are cumulative with le="+Inf" == _count);
  * every required family is present;
  * counters are monotonic from BEFORE to AFTER;
  * the workload left a visible trace (admissions and job latency
    count increased);
  * with --fleet (scrapes taken from kfleetd): every kfleet_* family
    is present, at least one worker is attached, and the dispatch
    ledger balances at the drained AFTER scrape —
    kfleet_shards_dispatched_total == kfleet_shards_completed_total
    + kfleet_shards_cancelled_total (every dispatch that reached a
    worker's "submitted" frame ends in exactly one terminal bucket);
  * optionally, a `ktop --once --json` snapshot taken at the same
    time as AFTER agrees with it on stable (quiescent-daemon)
    families.

Exits non-zero with a readable message on the first violation.
"""

import json
import math
import re
import sys

REQUIRED_FAMILIES = [
    "kserved_admissions_total",
    "kserved_rejections_total",
    "kserved_cancellations_total",
    "kserved_queue_depth",
    "kserved_queue_wait_seconds",
    "kserved_jobs_total",
    "kserved_job_seconds",
    "kserved_job_stage_seconds",
    "kserved_cache_hits_total",
    "kserved_cache_misses_total",
    "kserved_cache_evictions_total",
    "kserved_cache_bytes",
    "kserved_cache_hit_seconds",
    "kserved_warm_store_hits_total",
    "kserved_warm_store_misses_total",
    "kserved_warm_store_insertions_total",
    "kserved_warm_store_evictions_total",
    "kserved_warm_store_entries",
    "kserved_warm_store_bytes",
    "kserved_warm_store_hit_seconds",
    "kserved_connections_total",
    "kserved_connections_rejected_total",
    "kserved_frames_received_total",
    "kserved_frames_sent_total",
    "kserved_protocol_errors_total",
    "kserved_outbox_bytes_total",
    "kserved_fetch_hits_total",
    "kserved_fetch_misses_total",
    "kserved_reactor_wakeups_total",
    "kserved_uptime_seconds",
    "ktrace_dropped_records_total",
]

FLEET_FAMILIES = [
    "kfleet_workers",
    "kfleet_campaigns_total",
    "kfleet_shards_dispatched_total",
    "kfleet_shards_completed_total",
    "kfleet_shards_cancelled_total",
    "kfleet_hedges_total",
    "kfleet_hedge_wins_total",
    "kfleet_peer_fetches_total",
    "kfleet_peer_fetch_misses_total",
    "kfleet_worker_rejections_total",
    "kfleet_shard_seconds",
]

SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$"
)


def fail(msg):
    print(f"check_metrics: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def parse(path):
    """-> (families: name -> type, samples: (name, labels) -> float)"""
    families = {}
    samples = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("# TYPE "):
                _, _, name, ftype = line.split(" ", 3)
                families[name] = ftype
                continue
            if line.startswith("#"):
                continue
            m = SAMPLE_RE.match(line)
            if not m:
                fail(f"{path}:{lineno}: unparsable sample: {line!r}")
            name, labels, value = m.group(1), m.group(2) or "", m.group(3)
            base = re.sub(r"_(bucket|sum|count)$", "", name)
            if name not in families and base not in families:
                fail(f"{path}:{lineno}: sample {name} has no # TYPE")
            try:
                v = float(value)
            except ValueError:
                fail(f"{path}:{lineno}: bad value {value!r}")
            if math.isnan(v) or math.isinf(v):
                fail(f"{path}:{lineno}: non-finite value {value!r}")
            if (name, labels) in samples:
                fail(f"{path}:{lineno}: duplicate sample {name}{labels}")
            samples[(name, labels)] = v
    check_histograms(path, families, samples)
    return families, samples


def check_histograms(path, families, samples):
    for fam, ftype in families.items():
        if ftype != "histogram":
            continue
        # Group buckets by their non-le label set.
        series = {}
        for (name, labels), v in samples.items():
            if name != fam + "_bucket":
                continue
            le = re.search(r'le="([^"]*)"', labels)
            if not le:
                fail(f"{path}: {fam} bucket without le: {labels}")
            rest = re.sub(r'le="[^"]*",?', "", labels).replace(
                "{}", ""
            )
            series.setdefault(rest, []).append((float(le.group(1)), v))
        for rest, buckets in series.items():
            buckets.sort()
            prev = -1.0
            for le, v in buckets:
                if v < prev:
                    fail(
                        f"{path}: {fam}{rest}: bucket le={le} count "
                        f"{v} < previous {prev} (not cumulative)"
                    )
                prev = v
            if buckets[-1][0] != math.inf:
                fail(f"{path}: {fam}{rest}: missing le=\"+Inf\"")
            count = lookup_count(samples, fam, rest)
            if count is not None and buckets[-1][1] != count:
                fail(
                    f"{path}: {fam}{rest}: le=+Inf "
                    f"{buckets[-1][1]} != _count {count}"
                )


def lookup_count(samples, fam, rest_labels):
    for (name, labels), v in samples.items():
        if name != fam + "_count":
            continue
        if labels == rest_labels or (
            not rest_labels and labels in ("", "{}")
        ):
            return v
        if labels.strip("{}").strip(",") == rest_labels.strip(
            "{}"
        ).strip(","):
            return v
    return None


def family_total(families, samples, fam, suffix=""):
    """Sum of all samples of one family (plus optional suffix)."""
    total = 0.0
    for (name, _), v in samples.items():
        if name == fam + suffix:
            total += v
    return total


def main():
    argv = sys.argv[1:]
    fleet = "--fleet" in argv
    argv = [a for a in argv if a != "--fleet"]
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    before_path, after_path = argv[0], argv[1]
    fam_b, s_b = parse(before_path)
    fam_a, s_a = parse(after_path)

    required = REQUIRED_FAMILIES + (FLEET_FAMILIES if fleet else [])
    for fam in required:
        for path, fams in ((before_path, fam_b), (after_path, fam_a)):
            if fam not in fams:
                fail(f"{path}: required family {fam} missing")

    if fleet:
        check_fleet(after_path, s_a)

    # Counter monotonicity, per labeled series.
    for (name, labels), v in s_b.items():
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        ftype = fam_b.get(name, fam_b.get(base))
        if ftype not in ("counter", "histogram"):
            continue
        after = s_a.get((name, labels))
        if after is None:
            fail(f"{after_path}: series {name}{labels} disappeared")
        if after < v:
            fail(
                f"counter {name}{labels} went backwards: "
                f"{v} -> {after}"
            )

    if family_total(fam_a, s_a, "kserved_admissions_total") <= \
       family_total(fam_b, s_b, "kserved_admissions_total"):
        fail("kserved_admissions_total did not increase across the "
             "kcli workload")
    if family_total(fam_a, s_a, "kserved_job_seconds", "_count") <= \
       family_total(fam_b, s_b, "kserved_job_seconds", "_count"):
        fail("kserved_job_seconds_count did not increase across the "
             "kcli workload")

    if len(argv) == 3:
        with open(argv[2], encoding="utf-8") as fh:
            snap = json.load(fh)
        # ktop ran against a quiescent daemon right after AFTER was
        # scraped: cumulative job/cache counters must agree exactly.
        pairs = [
            ("jobs.done",
             labeled(s_a, "kserved_jobs_total", "done")),
            ("cache.hits",
             labeled(s_a, "kserved_cache_hits_total", None)),
            ("cache.misses",
             labeled(s_a, "kserved_cache_misses_total", None)),
            ("scheduler.submitted",
             labeled(s_a, "kserved_admissions_total", None)),
        ]
        for dotted, want in pairs:
            got = snap
            for part in dotted.split("."):
                got = got[part]
            if float(got) != float(want):
                fail(
                    f"ktop snapshot {dotted}={got} disagrees with "
                    f"{after_path} ({want})"
                )

    print("check_metrics: OK")


def check_fleet(path, samples):
    """Fleet-specific assertions on a drained kfleetd scrape."""
    workers = family_total({}, samples, "kfleet_workers")
    if workers < 1:
        fail(f"{path}: kfleet_workers is {workers}; no fleet attached")
    dispatched = family_total(
        {}, samples, "kfleet_shards_dispatched_total")
    completed = family_total(
        {}, samples, "kfleet_shards_completed_total")
    cancelled = family_total(
        {}, samples, "kfleet_shards_cancelled_total")
    # The dispatch ledger: at a drained scrape nothing is in flight,
    # so every dispatch that produced a "submitted" frame must have
    # landed in exactly one terminal bucket.
    if dispatched != completed + cancelled:
        fail(
            f"{path}: kfleet dispatch ledger unbalanced: "
            f"dispatched {dispatched} != completed {completed} + "
            f"cancelled {cancelled}"
        )
    wins = family_total({}, samples, "kfleet_hedge_wins_total")
    hedges = family_total({}, samples, "kfleet_hedges_total")
    if wins > hedges:
        fail(
            f"{path}: kfleet_hedge_wins_total {wins} exceeds "
            f"kfleet_hedges_total {hedges}"
        )


def labeled(samples, fam, outcome):
    """Value of fam (outcome=... label when given, else unlabeled)."""
    for (name, labels), v in samples.items():
        if name != fam:
            continue
        if outcome is None:
            return v
        if f'outcome="{outcome}"' in labels:
            return v
    fail(f"family {fam} (outcome={outcome}) not found in AFTER scrape")


if __name__ == "__main__":
    main()
