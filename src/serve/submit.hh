/**
 * @file
 * Submit-frame validation and canonicalization, shared between the
 * daemon (src/serve/server.cc) and the fleet coordinator
 * (src/fleet): both must resolve a "submit" frame to the same
 * SweepOptions and — critically — the same canonical cache key, so
 * a shard computed by any worker is content-addressed identically
 * everywhere (SERVING.md, "Cache key").
 */

#ifndef KILLI_SERVE_SUBMIT_HH
#define KILLI_SERVE_SUBMIT_HH

#include <memory>
#include <string>

#include "bench/sweep.hh"
#include "common/json.hh"
#include "replay/recording.hh"

namespace killi::serve
{

/** A validated submit request. */
struct SubmitRequest
{
    SweepOptions sopt;
    int priority = 0;
    bool stream = true;
    /** Capture the run into a recording returned with the result. */
    bool record = false;
    /** Replay job: the inline killi-recording-v1 to verify against.
     *  Shared so the job's work lambda holds the (large) streams
     *  without copying them. */
    std::shared_ptr<replay::Recording> replayRec;
};

/**
 * Validate and resolve a submit frame. This function owns only the
 * envelope (type, record, replay, priority, stream); the "options"
 * object, or a replay job's recorded meta.options, goes through
 * decodeSweepOptions() (bench/sweep.hh), which applies the ranges,
 * name checks and list expansion. This is the one place a submit's
 * killi::Error is caught: it comes back as false with its text in
 * @p err, which the daemon answers with a bad_request error frame
 * while it keeps serving.
 */
bool parseSubmit(const Json &req, SubmitRequest &out,
                 std::string &err);

/**
 * The canonical cache key: compact JSON of every result-affecting
 * knob (the bit-identity contract says jobs/priority/streaming do
 * not belong here) plus the build id, so results never survive a
 * rebuild. See SERVING.md, "Cache key".
 */
std::string canonicalKeyFor(const SweepOptions &sopt);

/** The resolved "options" member echoed in every result document. */
Json resolvedOptionsJson(const SweepOptions &sopt);

} // namespace killi::serve

#endif // KILLI_SERVE_SUBMIT_HH
