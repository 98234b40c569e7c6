/**
 * @file
 * killi-recording-v1: the versioned on-disk form of one captured
 * run.
 *
 * A recording holds every nondeterministic input a run consumed —
 * the RNG draw log (as per-(stream, pop) segments, each a count plus
 * rolling digest over the draw values), the event-queue pop log, and
 * a compact digest-per-record trace log — plus enough metadata to
 * re-derive the run from the file alone: the tool that produced it
 * ("sweep" or "kcheck"), the tool-specific run description under
 * "meta", and a SHA-256 digest of the canonical result text. The v1
 * format's "reference_mode" member is always written false, and a
 * recording that sets it true is rejected at load.
 * Replaying on the same build must reproduce every stream entry and
 * the result digest bit-for-bit (TESTING.md, "Record, replay,
 * bisect").
 *
 * Encoding notes: 64-bit values that can exceed 2^53 (RNG draws,
 * trace digests, seeds inside "meta") are serialized as decimal
 * strings — the project's JSON numbers are int64 or double, so a u64
 * above INT64_MAX would come back as a rounded double. Ticks, sequence numbers, and indices
 * stay numeric. The build id is captured for provenance but is NOT
 * part of the verification contract: a recording committed to the
 * repository (tests/corpus/recordings) must verify on any build
 * whose streams match, which is exactly what the differential
 * golden tests already pin.
 */

#ifndef KILLI_REPLAY_RECORDING_HH
#define KILLI_REPLAY_RECORDING_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/types.hh"

namespace killi::replay
{

/** The format tag every recording document carries. */
inline constexpr const char *kRecordingFormat = "killi-recording-v1";

/**
 * A run of consecutive Rng::next64() draws sharing one stream label
 * and one event-pop context, folded to a count plus a rolling digest
 * (seeded from the label text, then one fold per draw value — see
 * textDigest()/rollDigest()). Bulk construction draws collapse to a
 * single segment — a fault-map build is millions of draws, which is
 * why the format does not log values individually — while in-sim
 * draws get one segment per enclosing pop. @c pop is the number of
 * event-queue pops that had executed at the segment's first draw
 * (0 = before the sim ran, e.g. fault-map construction).
 */
struct RngSegment
{
    std::uint32_t stream = 0; //!< index into Recording::streams
    std::uint64_t pop = 0;
    std::uint64_t count = 0;
    std::uint64_t digest = 0;
};

/** One event-queue pop decision, in execution order. On disk a pop
 *  is [when, 0, seq]: v1 keeps a middle column that is always 0. */
struct EventPop
{
    Tick when = 0;
    std::uint64_t seq = 0;
};

/** One accepted trace record, folded to a 64-bit digest. */
struct TraceRec
{
    Tick tick = 0;
    std::uint64_t pop = 0;  //!< pops executed when recorded
    std::uint32_t name = 0; //!< index into Recording::names
    std::uint64_t digest = 0;
};

/** A named stream position (sweep-point boundaries). */
struct Mark
{
    std::string name;
    std::uint64_t rng = 0;
    std::uint64_t pops = 0;
    std::uint64_t trace = 0;
};

/** Cumulative per-stream digests at a fixed stride, for integrity
 *  summaries and cheap cross-file prefix comparison. */
struct Checkpoint
{
    std::uint64_t rng = 0;   //!< entries covered
    std::uint64_t pops = 0;
    std::uint64_t trace = 0;
    std::uint64_t rngDigest = 0;
    std::uint64_t popDigest = 0;
    std::uint64_t traceDigest = 0;
};

struct Recording
{
    std::string tool;    //!< "sweep" | "kcheck"
    std::string build;   //!< buildId() of the recording binary
    Json meta = Json::object(); //!< tool-specific run description
    /** Compile-time KTRACE category mask of the recording build;
     *  trace streams only verify between identically-masked builds. */
    std::uint32_t traceMask = 0;
    /** Whether the run recorded trace events at all. */
    bool traceEnabled = false;
    /** Armed decode perturbation (0 = none); see replay_probe.hh.
     *  The v1 format's "reference_mode" member is written false, and
     *  a document with it true is rejected. */
    std::uint64_t perturbDecode = 0;

    std::vector<std::string> streams; //!< interned RNG stream labels
    std::vector<std::string> names;   //!< interned trace event names
    std::vector<RngSegment> rng;
    std::vector<EventPop> pops;
    std::vector<TraceRec> trace;
    std::vector<Mark> marks;
    std::vector<Checkpoint> checkpoints;

    /** SHA-256 hex of the canonical result text (sweepToJson /
     *  CheckResult::toJson, toString(0)). */
    std::string resultDigest;

    std::uint32_t internStream(const char *label);
    std::uint32_t internName(const char *name);

    /** Per-entry content digests (FNV-1a), the unit the bisector's
     *  prefix search runs over. Deliberately index-free: segment
     *  digests already fold the stream label text, trace digests the
     *  event name, so two recordings compare without sharing an
     *  interning order. */
    static std::uint64_t digestOf(const RngSegment &s);
    static std::uint64_t digestOf(const EventPop &p);
    static std::uint64_t digestOf(const TraceRec &t);

    /** Rebuild `checkpoints` (stride @p every entries per stream)
     *  from the current streams. Called by the recorder on finish. */
    void rebuildCheckpoints(std::uint64_t every = 1024);

    Json toJson() const;
    /** Strict load; throws killi::Error ("recording: ...") on a
     *  malformed document. */
    static Recording fromJson(const Json &doc);

    void writeFile(const std::string &path) const;
    static Recording loadFile(const std::string &path);

    /** Human summary for `krr info` and reports. */
    std::string summary() const;
};

/** Combine a content digest into a rolling FNV-style prefix. */
std::uint64_t rollDigest(std::uint64_t prefix, std::uint64_t entry);

/** FNV-1a of a label's text; the seed of an RngSegment digest. */
std::uint64_t textDigest(const char *text);

} // namespace killi::replay

#endif // KILLI_REPLAY_RECORDING_HH
