/**
 * @file
 * Host and build stamp attached to every benchmark result, and the
 * process-memory probes the rss_mb metric reads.
 */

#ifndef PERFBENCH_STAMP_HH
#define PERFBENCH_STAMP_HH

#include <sys/types.h>

#include <vector>

#include "common/json.hh"

namespace perfbench
{

/**
 * {nproc, cpu_model, build_type, check_invariants, trace_categories,
 *  build_id, comparable, not_comparable_because}. A Debug build or
 *  one with KILLI_CHECK_INVARIANTS compiled in is not comparable.
 */
killi::Json hostBuildStamp();

/** Peak resident set (VmHWM) of @p pid in MB (10^6 bytes); 0 when
 *  the process is gone. */
double peakRssMb(pid_t pid);

/** Live direct children of @p pid. */
std::vector<pid_t> childrenOf(pid_t pid);

} // namespace perfbench

#endif // PERFBENCH_STAMP_HH
