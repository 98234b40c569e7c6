/**
 * @file
 * The benchmark's metric catalog: every name kperf can emit, with its
 * unit. Three groups:
 *
 *  - endToEnd(): the gated metrics every untraced run reports, with
 *    one meaning per workload (README.md, "End-to-end metrics");
 *  - workload(): the workload-specific figures the report prints
 *    alongside them (point_ms_p90, cached_ms_p50, ...);
 *  - layers(): the per-layer metrics of a traced run. A layer off a
 *    workload's path is reported unavailable on that workload.
 */

#ifndef PERFBENCH_CATALOG_HH
#define PERFBENCH_CATALOG_HH

#include <string>
#include <vector>

namespace perfbench
{

struct CatalogEntry
{
    std::string name;
    std::string unit;
};

const std::vector<CatalogEntry> &endToEndCatalog();
const std::vector<CatalogEntry> &workloadCatalog();
const std::vector<CatalogEntry> &layerCatalog();

/** Unit of catalog metric @p name; empty when not catalogued. */
std::string catalogUnit(const std::string &name);

} // namespace perfbench

#endif // PERFBENCH_CATALOG_HH
