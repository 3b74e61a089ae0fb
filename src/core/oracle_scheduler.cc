#include "core/oracle_scheduler.hh"

#include <algorithm>

namespace lightllm {
namespace core {

namespace {

/** Effective output length: generation stops at EOS or the cap. */
TokenCount
effectiveOutput(TokenCount true_output, TokenCount max_new_tokens)
{
    return std::min(true_output, max_new_tokens);
}

} // namespace

void
OracleScheduler::beginAdmissionRound(const SchedulerContext &ctx)
{
    capacity_ = ctx.capacityTokens;
    perRequestOverhead_ = ctx.perRequestOverhead;

    entries_.clear();
    for (const auto &request : ctx.running) {
        const TokenCount total = std::max(
            effectiveOutput(request.trueOutputLen,
                            request.maxNewTokens),
            request.generatedLen);
        entries_.push_back(residentEntry(
            request.promptLen, request.generatedLen,
            request.cachedPrefixLen, total));
    }
}

bool
OracleScheduler::tryAdmit(const WaitingView &candidate)
{
    const TokenCount total = std::max(
        effectiveOutput(candidate.trueOutputLen,
                        candidate.maxNewTokens),
        candidate.generatedLen);
    const BatchEntry entry = residentEntry(
        candidate.promptLen, candidate.generatedLen,
        candidate.cachedPrefixLen, total);
    scratch_ = entries_;
    scratch_.push_back(entry);
    const TokenCount overhead = perRequestOverhead_ *
        static_cast<TokenCount>(scratch_.size());
    if (futureRequiredMemory(scratch_) + overhead > capacity_)
        return false;
    entries_.push_back(entry);
    return true;
}

std::string
OracleScheduler::name() const
{
    return "Theoretical-optimum";
}

} // namespace core
} // namespace lightllm
