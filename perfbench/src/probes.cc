#include "probes.hh"

#include <algorithm>
#include <utility>

namespace perfbench {

using namespace lightllm;

namespace {

/** Forward a prediction peek where the scheduler has one (commits
 *  before the prediction audit do not); else the base default. */
template <typename S>
TokenCount
forwardPeek(S &scheduler, RequestId id, TokenCount generated_len,
            TokenCount max_new_tokens)
{
    if constexpr (requires {
                      scheduler.peekPrediction(id, generated_len,
                                               max_new_tokens);
                  }) {
        return scheduler.peekPrediction(id, generated_len,
                                        max_new_tokens);
    } else {
        return max_new_tokens;
    }
}

float
microsBetween(Clock::time_point start, Clock::time_point end)
{
    return static_cast<float>(
        std::chrono::duration<double, std::micro>(end - start)
            .count());
}

} // namespace

TimedScheduler::TimedScheduler(std::unique_ptr<core::Scheduler> inner,
                               Probe &probe)
    : inner_(std::move(inner)), probe_(probe)
{}

void
TimedScheduler::beginAdmissionRound(const core::SchedulerContext &ctx)
{
    inner_->beginAdmissionRound(ctx);
}

bool
TimedScheduler::tryAdmit(const core::WaitingView &candidate)
{
    ++probe_.admitChecks;
    return inner_->tryAdmit(candidate);
}

void
TimedScheduler::onRequestFinished(RequestId id, TokenCount output_len)
{
    inner_->onRequestFinished(id, output_len);
}

void
TimedScheduler::onRequestEvicted(RequestId id)
{
    inner_->onRequestEvicted(id);
}

TokenCount
TimedScheduler::estimateLoad(const core::SchedulerContext &ctx)
{
    return inner_->estimateLoad(ctx);
}

std::string
TimedScheduler::name() const
{
    return inner_->name();
}

TokenCount
TimedScheduler::peekPrediction(RequestId id, TokenCount generated_len,
                               TokenCount max_new_tokens)
{
    const Clock::time_point start = Clock::now();
    const TokenCount predicted =
        forwardPeek(*inner_, id, generated_len, max_new_tokens);
    probe_.peekSeconds += secondsBetween(start, Clock::now());
    ++probe_.peeks;
    return predicted;
}

TimedPolicy::TimedPolicy(std::unique_ptr<core::Scheduler> admission,
                         std::unique_ptr<core::QueuePolicy> queue,
                         Probe &probe)
    : core::SchedulingPolicy(std::move(admission), std::move(queue)),
      probe_(probe)
{}

void
TimedPolicy::decideInto(const core::SchedulerContext &ctx,
                        core::SchedulingDecision &out)
{
    if (ctx.capacityTokens > 0) {
        probe_.peakKvRatio = std::max(
            probe_.peakKvRatio,
            static_cast<double>(ctx.usedTokens) /
                static_cast<double>(ctx.capacityTokens));
    }
    const Clock::time_point start = Clock::now();
    core::SchedulingPolicy::decideInto(ctx, out);
    const Clock::time_point end = Clock::now();
    probe_.roundSeconds += secondsBetween(start, end);
    probe_.roundMicros.push_back(microsBetween(start, end));
    ++probe_.rounds;
}

void
TimedPolicy::victimOrder(const core::SchedulerContext &ctx,
                         core::VictimOrder tie_break,
                         std::vector<RequestId> &out)
{
    const Clock::time_point start = Clock::now();
    core::SchedulingPolicy::victimOrder(ctx, tie_break, out);
    probe_.victimSeconds += secondsBetween(start, Clock::now());
    ++probe_.victimOrders;
}

void
TimedPolicy::onRequestFinished(RequestId id, TokenCount output_len)
{
    const Clock::time_point start = Clock::now();
    core::SchedulingPolicy::onRequestFinished(id, output_len);
    probe_.finishFeedSeconds += secondsBetween(start, Clock::now());
}

std::unique_ptr<core::SchedulingPolicy>
makePolicy(const core::SchedulerConfig &config, Probe *probe)
{
    if (probe == nullptr)
        return core::makeSchedulingPolicy(config);
    // The flat pipeline makeSchedulingPolicy builds for the
    // benchmark's configurations (no tenant tree), from the same
    // factory parts.
    return std::make_unique<TimedPolicy>(
        std::make_unique<TimedScheduler>(core::makeScheduler(config),
                                         *probe),
        core::makeQueuePolicy(config.queue), *probe);
}

void
TimedSink::submitAt(const workload::RequestSpec &spec, Tick arrival)
{
    const Clock::time_point start = Clock::now();
    inner_.submitAt(spec, arrival);
    const Clock::time_point end = Clock::now();
    probe_.routeSeconds += secondsBetween(start, end);
    probe_.routeMicros.push_back(microsBetween(start, end));
    ++probe_.routes;
}

} // namespace perfbench
