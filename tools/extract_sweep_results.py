#!/usr/bin/env python3
"""Extract the deterministic subset of a benchmark report.

The ``workloads`` section of a fig4-style JSON report holds only
simulated state: event counters and ratios derived from them (mpki,
normalized_time, area fractions). For a fixed die seed it is
bit-identical across hosts, job counts, and KILLI_CHECK_INVARIANTS
settings. Everything else in the report (campaign wall-clock stats,
option echo) legitimately varies run to run.

CI's perf-smoke job pins this subset against a recorded golden
(tests/golden/) so hot-path optimizations — bit-sliced codecs, skip
sampling, scratch reuse — can never silently change simulation
results. See EXPERIMENTS.md ("Fixed-seed golden sweep") for the
re-record command and the libm caveat.

A table-style report keeps its simulated counts in another section:
softerror_resilience's is ``table``, named by the optional second
argument.

Usage: extract_sweep_results.py <report.json> [section]  (section
defaults to ``workloads``; canonical JSON on stdout: sorted keys,
fixed indentation, trailing newline)
"""

import json
import sys


def main() -> int:
    if len(sys.argv) not in (2, 3):
        sys.stderr.write(__doc__)
        return 2
    section = sys.argv[2] if len(sys.argv) == 3 else "workloads"
    with open(sys.argv[1]) as fh:
        doc = json.load(fh)
    json.dump({section: doc[section]}, sys.stdout,
              sort_keys=True, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
