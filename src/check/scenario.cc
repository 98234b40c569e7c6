#include "check/scenario.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/options.hh"
#include "common/rng.hh"
#include "fault/voltage_model.hh"

namespace killi::check
{

namespace
{

/** Payload bits per line; matches the 64-byte L2 line everywhere. */
constexpr std::size_t kDataBits = 512;
/** Widest physical line any scheme sees: SECDED's 512+11 checkbits
 *  (Killi's own LV footprint is 512+4). Planted faults stay within
 *  this range so every position can bite at least one scheme. */
constexpr std::size_t kPhysBits = kDataBits + 11;
/** Fault-map width shared by the unit tests (wide enough for any
 *  scheme evaluated against the same map). */
constexpr std::size_t kMapBits = 720;

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

std::uint64_t
caseSeed(std::uint64_t masterSeed, std::uint64_t index)
{
    return splitmix(masterSeed ^ splitmix(index + 1));
}

const char *
opKindName(OpKind kind)
{
    switch (kind) {
      case OpKind::Fill:
        return "fill";
      case OpKind::Read:
        return "read";
      case OpKind::Write:
        return "write";
      case OpKind::Evict:
        return "evict";
      case OpKind::Touch:
        return "touch";
      case OpKind::Scrub:
        return "scrub";
      case OpKind::Transient:
        return "transient";
      case OpKind::Flush:
        return "flush";
    }
    return "?";
}

namespace
{

OpKind
opKindFromName(const std::string &name)
{
    for (const OpKind k :
         {OpKind::Fill, OpKind::Read, OpKind::Write, OpKind::Evict,
          OpKind::Touch, OpKind::Scrub, OpKind::Transient,
          OpKind::Flush}) {
        if (name == opKindName(k))
            return k;
    }
    throwError("scenario: unknown trace op kind '%s'", name.c_str());
}

} // namespace

CacheGeometry
Scenario::geometry() const
{
    // 16 ways of 64-byte lines; numLines/16 sets — the shape the
    // killi unit tests use, scaled by numLines.
    return CacheGeometry{numLines * 64, 16, 64, 2};
}

Scenario
Scenario::generate(std::uint64_t seed)
{
    const RngStreamScope stream("kcheck.gen");
    Rng rng(seed);
    Scenario s;
    s.seed = seed;
    s.numLines = 256;

    // Knobs: bias toward the paper's defaults but exercise every
    // extension often enough that a 500-case campaign covers each
    // combination many times over.
    const std::size_t ratios[] = {16, 64, 256};
    s.params.ratio = ratios[rng.below(3)];
    s.params.interleavedParity = rng.bernoulli(0.75);
    s.params.evictionTraining = rng.bernoulli(0.8);
    s.params.allocPriorityEnabled = rng.bernoulli(0.8);
    s.params.coordinatedReplacement = rng.bernoulli(0.8);
    s.params.invertedWriteCheck = rng.bernoulli(0.25);
    s.params.dectedStable = rng.bernoulli(0.25);
    s.params.writebackMode = rng.bernoulli(0.25);

    // Voltage picks the fault density through the calibrated cell
    // model; a boost factor pushes campaigns into the interesting
    // 1-to-several-faults-per-line regime the DFH tables are about.
    s.voltage = 0.50 + 0.025 * double(rng.below(9));
    const VoltageModel model;
    const double boosts[] = {1.0, 8.0, 64.0};
    double lambda = model.pCell(s.voltage) * double(kPhysBits) *
        boosts[rng.below(3)];
    lambda = std::clamp(lambda, 0.3, 5.0);

    // Concentrate activity on a few lines of the first two L2 sets so
    // that the small ECC cache sees real contention (§4.3).
    const std::size_t hotCount = 4 + rng.below(13);
    std::vector<std::uint16_t> hot;
    while (hot.size() < hotCount) {
        const auto line = std::uint16_t(rng.below(32));
        if (std::find(hot.begin(), hot.end(), line) == hot.end())
            hot.push_back(line);
    }

    for (const std::uint16_t line : hot) {
        const unsigned n = std::min(rng.poisson(lambda), 20u);
        std::vector<std::uint16_t> used;
        for (unsigned f = 0; f < n; ++f) {
            // ~12% of faults land in the metadata/checkbit region
            // [512, 523): Killi's folded parity cells and the
            // baseline's in-array checkbits.
            std::uint16_t bit;
            do {
                bit = rng.bernoulli(0.12)
                    ? std::uint16_t(kDataBits + rng.below(11))
                    : std::uint16_t(rng.below(kDataBits));
            } while (std::find(used.begin(), used.end(), bit) !=
                     used.end());
            used.push_back(bit);
            s.faults.push_back({line, bit, rng.bernoulli(0.5)});
        }
    }

    const std::size_t traceLen = 24 + rng.below(177);
    s.trace.reserve(traceLen);
    for (std::size_t i = 0; i < traceLen; ++i) {
        TraceOp op;
        op.line = hot[rng.below(hot.size())];
        const std::uint64_t w = rng.below(100);
        if (w < 26)
            op.kind = OpKind::Fill;
        else if (w < 60)
            op.kind = OpKind::Read;
        else if (w < 78)
            op.kind = OpKind::Write;
        else if (w < 86)
            op.kind = OpKind::Evict;
        else if (w < 92)
            op.kind = OpKind::Touch;
        else if (w < 98) {
            op.kind = OpKind::Transient;
            op.bit = std::uint16_t(rng.below(kDataBits + 4));
        } else
            op.kind = OpKind::Scrub;
        s.trace.push_back(op);
    }

    // Background fault model, drawn after everything else: the
    // knobs/faults/trace of every pre-existing seed consumed exactly
    // the prefix of the stream read above, so appending draws here
    // keeps their replays bit-identical. ~30% of cases layer a
    // correlated population under the planted faults, cycling the
    // scenario classes.
    if (rng.bernoulli(0.3)) {
        ScenarioSpec spec;
        spec.seed = rng.next64();
        // Light-to-moderate background densities; the planted faults
        // above remain the aimed stress.
        spec.voltage = 0.60 + 0.025 * double(rng.below(3));
        const char *models[] = {"clustered", "burst", "droop"};
        spec.model = models[rng.below(3)];
        std::string shape = spec.model;
        if (spec.model == "droop") {
            const char *bases[] = {"iid", "clustered", "burst"};
            spec.droop.base = bases[rng.below(3)];
            const std::size_t steps = 2 + rng.below(3);
            for (std::size_t i = 0; i < steps; ++i) {
                spec.droop.schedule.push_back(
                    0.575 + 0.025 * double(rng.below(5)));
            }
            shape = spec.droop.base;
        }
        if (shape == "clustered") {
            spec.cluster.rowFrac = 0.05;
            spec.cluster.rowBoost = rng.bernoulli(0.5) ? 8.0 : 32.0;
            spec.cluster.colFrac = 0.02;
            spec.cluster.colBoost = rng.bernoulli(0.5) ? 4.0 : 16.0;
            spec.cluster.clusterRate = 0.004;
            spec.cluster.clusterP = 0.5;
        } else if (shape == "burst") {
            spec.burst.burstRate = rng.bernoulli(0.5) ? 0.02 : 0.05;
            spec.burst.pWithin = 0.75;
        }
        s.faultModel = spec;
    }
    return s;
}

Json
Scenario::toJson() const
{
    Json doc = Json::object();
    doc.set("format", Json::string("kcheck-scenario-v1"));
    // A full-range uint64; stored as a decimal string because the
    // JSON layer demotes integers above int64 max to doubles.
    doc.set("seed", Json::string(std::to_string(seed)));
    doc.set("voltage", Json::number(voltage));
    doc.set("num_lines", Json::number(std::uint64_t(numLines)));

    Json knobs = Json::object();
    knobs.set("ratio", Json::number(std::uint64_t(params.ratio)));
    knobs.set("ecc_cache_assoc",
              Json::number(std::uint64_t(params.eccCacheAssoc)));
    knobs.set("segments", Json::number(std::uint64_t(params.segments)));
    knobs.set("groups", Json::number(std::uint64_t(params.groups)));
    knobs.set("interleaved_parity",
              Json::boolean(params.interleavedParity));
    knobs.set("eviction_training",
              Json::boolean(params.evictionTraining));
    knobs.set("alloc_priority",
              Json::boolean(params.allocPriorityEnabled));
    knobs.set("coordinated_replacement",
              Json::boolean(params.coordinatedReplacement));
    knobs.set("inverted_write_check",
              Json::boolean(params.invertedWriteCheck));
    knobs.set("dected_stable", Json::boolean(params.dectedStable));
    knobs.set("writeback_mode", Json::boolean(params.writebackMode));
    doc.set("params", std::move(knobs));

    Json faultArr = Json::array();
    for (const PlantedFault &f : faults) {
        Json entry = Json::object();
        entry.set("line", Json::number(std::uint64_t(f.line)));
        entry.set("bit", Json::number(std::uint64_t(f.bit)));
        entry.set("stuck", Json::boolean(f.stuck));
        faultArr.push(std::move(entry));
    }
    doc.set("faults", std::move(faultArr));

    Json traceArr = Json::array();
    for (const TraceOp &op : trace) {
        Json entry = Json::object();
        entry.set("op", Json::string(opKindName(op.kind)));
        entry.set("line", Json::number(std::uint64_t(op.line)));
        if (op.kind == OpKind::Transient)
            entry.set("bit", Json::number(std::uint64_t(op.bit)));
        traceArr.push(std::move(entry));
    }
    doc.set("trace", std::move(traceArr));
    if (faultModel)
        doc.set("fault_model", faultModel->toJson());
    return doc;
}

Scenario
Scenario::fromJson(const Json &doc)
{
    if (doc.at("format").asString() != "kcheck-scenario-v1")
        throwError("scenario: unsupported format '%s'",
                   doc.at("format").asString().c_str());
    Scenario s;
    if (!tryParseUint(doc.at("seed").asString(), s.seed))
        throwError("scenario: malformed seed '%s'",
                   doc.at("seed").asString().c_str());
    s.voltage = doc.at("voltage").asDouble();
    s.numLines = std::size_t(doc.at("num_lines").asInt());
    if (s.numLines == 0 || s.numLines % 16 != 0)
        throwError(
            "scenario: num_lines must be a positive multiple of 16");

    const Json &knobs = doc.at("params");
    s.params.ratio = std::size_t(knobs.at("ratio").asInt());
    s.params.eccCacheAssoc =
        unsigned(knobs.at("ecc_cache_assoc").asInt());
    s.params.segments = unsigned(knobs.at("segments").asInt());
    s.params.groups = unsigned(knobs.at("groups").asInt());
    s.params.interleavedParity =
        knobs.at("interleaved_parity").asBool();
    s.params.evictionTraining = knobs.at("eviction_training").asBool();
    s.params.allocPriorityEnabled =
        knobs.at("alloc_priority").asBool();
    s.params.coordinatedReplacement =
        knobs.at("coordinated_replacement").asBool();
    s.params.invertedWriteCheck =
        knobs.at("inverted_write_check").asBool();
    s.params.dectedStable = knobs.at("dected_stable").asBool();
    s.params.writebackMode = knobs.at("writeback_mode").asBool();

    const Json &faultArr = doc.at("faults");
    for (std::size_t i = 0; i < faultArr.size(); ++i) {
        const Json &entry = faultArr.at(i);
        PlantedFault f;
        f.line = std::uint16_t(entry.at("line").asInt());
        f.bit = std::uint16_t(entry.at("bit").asInt());
        f.stuck = entry.at("stuck").asBool();
        if (f.line >= s.numLines)
            throwError("scenario: fault line %u out of range", f.line);
        if (f.bit >= kMapBits)
            throwError("scenario: fault bit %u out of range", f.bit);
        s.faults.push_back(f);
    }

    const Json &traceArr = doc.at("trace");
    for (std::size_t i = 0; i < traceArr.size(); ++i) {
        const Json &entry = traceArr.at(i);
        TraceOp op;
        op.kind = opKindFromName(entry.at("op").asString());
        op.line = std::uint16_t(entry.at("line").asInt());
        if (entry.contains("bit"))
            op.bit = std::uint16_t(entry.at("bit").asInt());
        if (op.line >= s.numLines)
            throwError("scenario: trace line %u out of range", op.line);
        if (op.kind == OpKind::Transient && op.bit >= kMapBits)
            throwError("scenario: transient bit %u out of range",
                       op.bit);
        s.trace.push_back(op);
    }

    if (doc.contains("fault_model"))
        s.faultModel = ScenarioSpec::fromJson(doc.at("fault_model"));
    return s;
}

std::string
Scenario::summary() const
{
    std::string knobs;
    if (params.invertedWriteCheck)
        knobs += "+invW";
    if (params.dectedStable)
        knobs += "+DECTED";
    if (params.writebackMode)
        knobs += "+WB";
    if (!params.interleavedParity)
        knobs += "-ilv";
    return "seed=" + std::to_string(seed) +
        " ratio=1:" + std::to_string(params.ratio) + knobs +
        " faults=" + std::to_string(faults.size()) +
        " ops=" + std::to_string(trace.size()) +
        (faultModel ? " model=" + faultModel->model : "");
}

} // namespace killi::check
