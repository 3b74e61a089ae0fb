/**
 * @file
 * Timers the traced run installs around the simulator's public entry
 * points. Each decorator forwards every call unchanged to the object
 * it wraps, so a traced run makes exactly the decisions of an
 * untraced one (the checks compare the two reports); it only counts
 * the calls and adds their wall time to a shared Probe.
 *
 *  - TimedScheduler wraps the admission policy (core::Scheduler):
 *    admit checks and prediction peeks.
 *  - TimedPolicy wraps the scheduling pipeline
 *    (core::SchedulingPolicy) handed to each engine: admission
 *    rounds, finish feeds and victim ordering.
 *  - TimedSink sits in front of a fleet's RequestSink: routing plus
 *    submission.
 *
 * Everything here is single-threaded, like the workloads.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/queue_policy.hh"
#include "core/scheduler.hh"
#include "core/scheduler_factory.hh"
#include "core/scheduling_policy.hh"
#include "workload/client_pool.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two clock readings. */
inline double
secondsBetween(Clock::time_point start, Clock::time_point end)
{
    return std::chrono::duration<double>(end - start).count();
}

/** Counters and busy time gathered by the decorators of one run. */
struct Probe
{
    // core: admission rounds (decideInto), the admit checks inside
    // them, prediction peeks, completion feeds, victim orders.
    std::uint64_t rounds = 0;
    std::uint64_t admitChecks = 0;
    std::uint64_t peeks = 0;
    std::uint64_t victimOrders = 0;
    double roundSeconds = 0.0;
    double peekSeconds = 0.0;
    double finishFeedSeconds = 0.0;
    double victimSeconds = 0.0;
    std::vector<float> roundMicros;

    // cluster: routing + submission through the fleet's sink.
    std::uint64_t routes = 0;
    double routeSeconds = 0.0;
    std::vector<float> routeMicros;

    /** Largest used/capacity ratio any admission round saw. */
    double peakKvRatio = 0.0;

    /** Wall time of every core span (they do not nest). */
    double
    coreSeconds() const
    {
        return roundSeconds + peekSeconds + finishFeedSeconds +
            victimSeconds;
    }
};

/** Admission policy decorator: counts admit checks, times peeks. */
class TimedScheduler : public lightllm::core::Scheduler
{
  public:
    TimedScheduler(std::unique_ptr<lightllm::core::Scheduler> inner,
                   Probe &probe);

    void beginAdmissionRound(
        const lightllm::core::SchedulerContext &ctx) override;
    bool tryAdmit(const lightllm::core::WaitingView &candidate)
        override;
    void onRequestFinished(lightllm::RequestId id,
                           lightllm::TokenCount output_len) override;
    void onRequestEvicted(lightllm::RequestId id) override;
    lightllm::TokenCount estimateLoad(
        const lightllm::core::SchedulerContext &ctx) override;
    std::string name() const override;

    /**
     * The read-only prediction peek of the prediction audit. Declared
     * without `override` on purpose: the base class gained this
     * virtual with the flight recorder, and the benchmark also
     * builds against commits from before it, where this is an
     * ordinary member nothing calls (core.peeks then reads 0).
     */
    lightllm::TokenCount peekPrediction(
        lightllm::RequestId id, lightllm::TokenCount generated_len,
        lightllm::TokenCount max_new_tokens);

  private:
    std::unique_ptr<lightllm::core::Scheduler> inner_;
    Probe &probe_;
};

/** Scheduling pipeline decorator: times rounds, feeds, victims. */
class TimedPolicy : public lightllm::core::SchedulingPolicy
{
  public:
    TimedPolicy(std::unique_ptr<lightllm::core::Scheduler> admission,
                std::unique_ptr<lightllm::core::QueuePolicy> queue,
                Probe &probe);

    void decideInto(const lightllm::core::SchedulerContext &ctx,
                    lightllm::core::SchedulingDecision &out) override;
    void victimOrder(const lightllm::core::SchedulerContext &ctx,
                     lightllm::core::VictimOrder tie_break,
                     std::vector<lightllm::RequestId> &out) override;
    void onRequestFinished(lightllm::RequestId id,
                           lightllm::TokenCount output_len) override;

  private:
    Probe &probe_;
};

/**
 * The policy an engine gets: the repository's own pipeline when
 * `probe` is null, otherwise the same pipeline built from the same
 * parts, wrapped in the timers above.
 */
std::unique_ptr<lightllm::core::SchedulingPolicy>
makePolicy(const lightllm::core::SchedulerConfig &config,
           Probe *probe);

/** Request sink decorator: times routing + submission. */
class TimedSink : public lightllm::workload::RequestSink
{
  public:
    TimedSink(lightllm::workload::RequestSink &inner, Probe &probe)
        : inner_(inner), probe_(probe)
    {}

    void submitAt(const lightllm::workload::RequestSpec &spec,
                  lightllm::Tick arrival) override;

  private:
    lightllm::workload::RequestSink &inner_;
    Probe &probe_;
};

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
