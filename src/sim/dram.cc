#include "sim/dram.hh"

namespace killi
{

DramModel::DramModel(const DramParams &params)
    : p(params), channelFree(params.channels, 0)
{
}

Tick
DramModel::access(Addr lineAddr, bool isWrite, Tick now)
{
    const std::size_t channel =
        (lineAddr / p.lineBytes) % p.channels;
    Tick &free = channelFree[channel];
    const Tick start = std::max(now, free);
    free = start + p.occupancyPerAccess;
    ++(isWrite ? nWrites : nReads);
    return start + p.latency;
}

} // namespace killi
