#include "catalog.hh"

#include "decorators.hh"

namespace perfbench
{

const std::vector<CatalogEntry> &
endToEndCatalog()
{
    static const std::vector<CatalogEntry> kEntries = {
        {"setup_s", "s"},
        {"rss_mb", "MB"},
        {"throughput_per_s", "1/s"},
        {"latency_ms", "ms"},
    };
    return kEntries;
}

const std::vector<CatalogEntry> &
workloadCatalog()
{
    static const std::vector<CatalogEntry> kEntries = {
        // fig4-sweep
        {"sim_minstr_per_s", "Minstr/s"},
        {"points_per_s", "1/s"},
        {"point_ms_p50", "ms"},
        {"point_ms_p90", "ms"},
        // vmin-sweep
        {"vpoints_per_s", "1/s"},
        {"die_ms_p50", "ms"},
        {"die_ms_mean", "ms"},
        // serve-mix, fleet-campaign
        {"jobs_per_s", "1/s"},
        {"clients", "count"},
        {"cached_ms_p50", "ms"},
        {"cached_ms_p90", "ms"},
        {"uncached_ms_p50", "ms"},
        {"uncached_ms_p90", "ms"},
    };
    return kEntries;
}

namespace
{

std::vector<CatalogEntry>
buildLayerCatalog()
{
    std::vector<CatalogEntry> e = {
        {"fault.sample_ns", "ns"},
        {"fault.sample_calls", "count"},
        {"fault.adopt_ns", "ns"},
        {"fault.step_ns", "ns"},
        {"fault.step_calls", "count"},
        {"fault.query_ns", "ns"},
        {"fault.cold_activations", "count"},
        {"fault.active_cells", "count"},
        {"gpu.setup_ns", "ns"},
        {"gpu.run_ns", "ns"},
        {"gpu.run_calls", "count"},
        {"gpu.op_ns", "ns"},
        {"gpu.op_calls", "count"},
        {"gpu.self_ns", "ns"},
        {"gpu.host_ns_per_l2_access", "ns"},
    };
    for (const char *family : {"killi", "baselines"}) {
        for (std::size_t h = 0; h < kHookCount; ++h) {
            const std::string stem =
                std::string(family) + "." + hookName(Hook(h));
            e.push_back({stem + "_ns", "ns"});
            e.push_back({stem + "_calls", "count"});
        }
        e.push_back({std::string(family) + ".read_hit_clean_frac",
                     "frac"});
    }
    const std::vector<CatalogEntry> rest = {
        {"ecc.secded_encode_ns", "ns"},
        {"ecc.secded_decode_ns", "ns"},
        {"ecc.parity16_encode_ns", "ns"},
        {"ecc.dected_decode_ns", "ns"},
        {"ecc.olsc_decode_ns", "ns"},
        {"sim.cycles", "count"},
        {"gpu.instructions", "count"},
        {"cache.l2_accesses", "count"},
        {"cache.l2_read_hit_frac", "frac"},
        {"cache.l2_error_misses", "count"},
        {"cache.dram_reads", "count"},
        {"runner.wait_ms_p50", "ms"},
        {"runner.busy_frac", "frac"},
        {"runner.retries", "count"},
        {"serve.decode_ms_p50", "ms"},
        {"serve.queue_ms_p50", "ms"},
        {"serve.setup_ms_p50", "ms"},
        {"serve.run_ms_p50", "ms"},
        {"serve.serialize_ms_p50", "ms"},
        {"serve.reply_ms_p50", "ms"},
        {"serve.queue_ms_p90", "ms"},
        {"serve.client_ms_p50", "ms"},
        {"serve.cache_hit_frac", "frac"},
        {"serve.warm_hit_frac", "frac"},
        {"serve.queue_peak", "count"},
        {"serve.rejected", "count"},
        {"fleet.shards_dispatched", "count"},
        {"fleet.shards_completed", "count"},
        {"fleet.useful_frac", "frac"},
        {"fleet.hedges", "count"},
        {"fleet.steals", "count"},
        {"fleet.peer_fetches", "count"},
        {"fleet.shard_s_p50", "s"},
        {"trace_overhead_frac", "frac"},
    };
    e.insert(e.end(), rest.begin(), rest.end());
    return e;
}

} // namespace

const std::vector<CatalogEntry> &
layerCatalog()
{
    static const std::vector<CatalogEntry> kEntries =
        buildLayerCatalog();
    return kEntries;
}

std::string
catalogUnit(const std::string &name)
{
    for (const auto *group :
         {&endToEndCatalog(), &workloadCatalog(), &layerCatalog()}) {
        for (const CatalogEntry &e : *group) {
            if (e.name == name)
                return e.unit;
        }
    }
    return "";
}

} // namespace perfbench
