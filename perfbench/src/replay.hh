/**
 * @file
 * Memory-layer replay: the workload's request stream pushed through
 * standalone KvBlockManager (and PrefixCache) instances, with every
 * call timed from outside. The serving run interleaves KV calls with
 * everything else at sub-microsecond grain, so the traced run times
 * the memory layer here instead, on the same requests.
 *
 * The replay is deterministic. Requests are split into one slice per
 * instance (by session for multi-turn workloads, by id otherwise),
 * and each slice runs on its own manager with one instance's
 * capacity, so the total work matches the fleet's. Within a slice:
 * admit in order while the reserved worst case (prompt + output + 1
 * tokens, whole blocks) fits, allocating prompt + 1 (after a prefix
 * match when the cache is on); extend the batch by one token per
 * step; on completion insert the request's identified blocks into
 * the cache and release it. Reservation means no extend can fail, so
 * the cache is the only thing that fills memory: on the prefix
 * workload it does, and allocations reach LRU reclaim.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"
#include "workload/request_spec.hh"

namespace perfbench {

/** What the replay measured. */
struct ReplayStats
{
    std::vector<float> allocMicros;   // match + allocate, per request
    double allocSeconds = 0.0;
    double extendSeconds = 0.0;       // extendBatchByOne calls
    std::uint64_t extendTokens = 0;   // tokens those calls added
    double releaseSeconds = 0.0;      // insert + release
    std::uint64_t releases = 0;

    /** Calls that failed although the reservation said they fit,
     *  or a manager above capacity; 0 on a correct memory layer. */
    std::uint64_t faults = 0;

    double
    seconds() const
    {
        return allocSeconds + extendSeconds + releaseSeconds;
    }
};

/**
 * Replay `requests` (in submission order) through `slices` managers
 * of `capacity` tokens each.
 *
 * @param turns_per_session > 0 for session workloads: request id
 *        s * turns + t is turn t of session s; a session stays in one
 *        slice and turns replay turn-major, as the closed loop
 *        releases them.
 */
ReplayStats replayMemory(
    const std::vector<lightllm::workload::RequestSpec> &requests,
    lightllm::TokenCount capacity, lightllm::TokenCount block_size,
    bool prefix_cache, std::size_t slices,
    std::size_t turns_per_session);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
