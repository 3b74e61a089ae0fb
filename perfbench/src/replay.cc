#include "replay.hh"

#include <algorithm>
#include <memory>
#include <span>

#include "base/token_stream.hh"
#include "memory/kv_block_manager.hh"
#include "memory/prefix_cache.hh"
#include "probes.hh"

namespace perfbench {

using namespace lightllm;

namespace {

TokenCount
ceilDiv(TokenCount a, TokenCount b)
{
    return (a + b - 1) / b;
}

/** One resident request of the replay. */
struct Live
{
    const workload::RequestSpec *spec;
    TokenCount left;           // tokens still to extend by
    TokenCount reservedBlocks;
};

void
replaySlice(const std::vector<const workload::RequestSpec *> &order,
            TokenCount capacity, TokenCount block_size,
            bool prefix_cache, ReplayStats &stats)
{
    memory::KvBlockManager kv(capacity, block_size);
    std::unique_ptr<memory::PrefixCache> cache;
    if (prefix_cache) {
        cache = std::make_unique<memory::PrefixCache>(kv);
        kv.attachPrefixCache(cache.get());
    }
    const TokenCount total_blocks = capacity / block_size;

    std::vector<Live> live;
    std::vector<RequestId> ids;
    std::vector<memory::BlockId> matched;
    std::vector<PrefixHash> hashes;
    std::vector<PromptSegment> stream;
    TokenCount committed = 0;
    std::size_t next = 0;

    while (next < order.size() || !live.empty()) {
        // Admissions, in order, while the worst case fits.
        while (next < order.size()) {
            const workload::RequestSpec &spec = *order[next];
            const TokenCount output = spec.effectiveOutputLen();
            const TokenCount reserve = ceilDiv(
                spec.inputLen + std::max<TokenCount>(output, 1),
                block_size);
            if (reserve > total_blocks) {
                ++stats.faults;  // can never fit
                ++next;
                continue;
            }
            if (committed + reserve > total_blocks)
                break;  // wait for completions
            const bool share = cache && !spec.segments.empty();
            if (share) {
                // The engine's prompt chain: one token short of the
                // prompt (the last token is always prefilled).
                hashes = blockHashChain(spec.segments, block_size,
                                        spec.inputLen - 1);
            }
            const Clock::time_point start = Clock::now();
            bool ok = false;
            if (share) {
                matched.clear();
                cache->match(hashes, matched);
                ok = kv.allocateShared(spec.id, spec.inputLen + 1,
                                       matched);
            } else {
                ok = kv.allocate(spec.id, spec.inputLen + 1);
            }
            const Clock::time_point end = Clock::now();
            stats.allocSeconds += secondsBetween(start, end);
            stats.allocMicros.push_back(static_cast<float>(
                std::chrono::duration<double, std::micro>(end - start)
                    .count()));
            ++next;
            if (!ok) {
                ++stats.faults;
                continue;
            }
            live.push_back(Live{&spec, output - 1, reserve});
            committed += reserve;
        }

        // One decode step over every request still generating.
        ids.clear();
        for (const Live &request : live) {
            if (request.left > 0)
                ids.push_back(request.spec->id);
        }
        if (!ids.empty()) {
            const Clock::time_point start = Clock::now();
            const bool ok = kv.extendBatchByOne(ids);
            stats.extendSeconds += secondsBetween(start, Clock::now());
            if (!ok) {
                ++stats.faults;
                break;
            }
            stats.extendTokens += ids.size();
            for (Live &request : live) {
                if (request.left > 0)
                    --request.left;
            }
        }
        if (kv.usedTokens() > kv.capacityTokens())
            ++stats.faults;

        // Completions: cache the identified blocks, then release.
        for (const Live &request : live) {
            if (request.left > 0)
                continue;
            const workload::RequestSpec &spec = *request.spec;
            const TokenCount generated =
                std::max<TokenCount>(spec.effectiveOutputLen(), 1);
            std::size_t count = 0;
            if (cache && !spec.segments.empty()) {
                stream.assign(spec.segments.begin(),
                              spec.segments.end());
                TokenCount known = spec.inputLen;
                if (spec.outputKey != 0) {
                    stream.push_back(
                        PromptSegment{spec.outputKey, generated});
                    known += generated;
                }
                hashes = blockHashChain(stream, block_size, known);
                count = std::min(hashes.size(),
                                 kv.blockTable(spec.id).size());
            }
            const Clock::time_point start = Clock::now();
            if (count > 0) {
                cache->insert(
                    std::span<const PrefixHash>(hashes).first(count),
                    std::span<const memory::BlockId>(
                        kv.blockTable(spec.id))
                        .first(count));
            }
            kv.release(spec.id);
            stats.releaseSeconds += secondsBetween(start, Clock::now());
            ++stats.releases;
            committed -= request.reservedBlocks;
        }
        std::erase_if(live,
                      [](const Live &request) { return request.left <= 0; });
    }
    if (kv.numRequests() != 0)
        ++stats.faults;
}

} // namespace

ReplayStats
replayMemory(const std::vector<workload::RequestSpec> &requests,
             TokenCount capacity, TokenCount block_size,
             bool prefix_cache, std::size_t slices,
             std::size_t turns_per_session)
{
    ReplayStats stats;
    slices = std::max<std::size_t>(slices, 1);
    std::vector<std::vector<const workload::RequestSpec *>> order(
        slices);
    for (const workload::RequestSpec &spec : requests) {
        const auto id = static_cast<std::size_t>(spec.id);
        const std::size_t owner =
            turns_per_session > 0 ? id / turns_per_session : id;
        order[owner % slices].push_back(&spec);
    }
    if (turns_per_session > 0) {
        for (auto &slice : order) {
            std::stable_sort(
                slice.begin(), slice.end(),
                [&](const workload::RequestSpec *a,
                    const workload::RequestSpec *b) {
                    return static_cast<std::size_t>(a->id) %
                        turns_per_session <
                        static_cast<std::size_t>(b->id) %
                        turns_per_session;
                });
        }
    }
    for (const auto &slice : order)
        replaySlice(slice, capacity, block_size, prefix_cache, stats);
    return stats;
}

} // namespace perfbench
