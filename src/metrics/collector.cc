#include "metrics/collector.hh"

#include "base/logging.hh"

namespace lightllm {
namespace metrics {

MetricsCollector::MetricsCollector(TokenCount capacity_tokens,
                                   std::int64_t timeseries_interval)
    : capacity_(capacity_tokens),
      timeseriesInterval_(timeseries_interval)
{
    LIGHTLLM_ASSERT(capacity_tokens > 0, "capacity must be positive");
    LIGHTLLM_ASSERT(timeseries_interval >= 0,
                    "negative timeseries interval");
    // Pre-reserve the record slab so steady-state collection stays
    // off the allocator until a run outgrows it (then the vector
    // doubles as usual). resetMeasurement clears but keeps capacity.
    requests_.reserve(kRecordSlabReserve);
    if (timeseriesInterval_ > 0)
        timeseries_.reserve(kTimeseriesReserve);
}

void
MetricsCollector::onDecodeStep(std::int64_t batch_size,
                               TokenCount used_tokens,
                               TokenCount true_future_tokens,
                               Tick tick, Tick duration)
{
    ++decodeSteps_;
    const double capacity = static_cast<double>(capacity_);
    const double weight = static_cast<double>(duration);
    const double consumed =
        static_cast<double>(used_tokens) / capacity;
    const double future =
        static_cast<double>(true_future_tokens) / capacity;
    consumedWeighted_ += consumed * weight;
    futureWeighted_ += future * weight;
    batchWeighted_ += static_cast<double>(batch_size) * weight;
    decodeDuration_ += weight;
    if (timeseriesInterval_ > 0 &&
        decodeSteps_ % timeseriesInterval_ == 0) {
        timeseries_.push_back(
            MemoryTimePoint{tick, consumed, future, batch_size});
    }
}

void
MetricsCollector::onPrefill(TokenCount prompt_tokens, Tick)
{
    ++prefillIterations_;
    totalPrefillTokens_ += prompt_tokens;
}

void
MetricsCollector::onEviction(bool first_eviction_of_request)
{
    ++evictionEvents_;
    if (first_eviction_of_request)
        ++requestsEvicted_;
}

void
MetricsCollector::onSwap(TokenCount tokens, Tick)
{
    ++swapEvents_;
    swappedTokens_ += tokens;
}

void
MetricsCollector::onPrefixLookup(TokenCount prompt_tokens,
                                 TokenCount hit_tokens)
{
    ++prefixLookups_;
    prefixPromptTokens_ += prompt_tokens;
    prefixHitTokens_ += hit_tokens;
}

void
MetricsCollector::onRequestFinished(const RequestRecord &record)
{
    totalOutputTokens_ += record.outputTokens;
    requests_.push_back(record);
}

void
MetricsCollector::resetMeasurement(Tick now)
{
    measureStart_ = now;
    decodeSteps_ = 0;
    prefillIterations_ = 0;
    evictionEvents_ = 0;
    requestsEvicted_ = 0;
    totalOutputTokens_ = 0;
    totalPrefillTokens_ = 0;
    swapEvents_ = 0;
    swappedTokens_ = 0;
    prefixLookups_ = 0;
    prefixPromptTokens_ = 0;
    prefixHitTokens_ = 0;
    consumedWeighted_ = 0.0;
    futureWeighted_ = 0.0;
    batchWeighted_ = 0.0;
    decodeDuration_ = 0.0;
    requests_.clear();
    timeseries_.clear();
}

RunReport
MetricsCollector::finish(std::string scheduler_name,
                         Tick makespan) const
{
    RunReport report;
    report.schedulerName = std::move(scheduler_name);
    report.numFinished = requests_.size();
    report.decodeSteps = decodeSteps_;
    report.prefillIterations = prefillIterations_;
    report.evictionEvents = evictionEvents_;
    report.requestsEvicted = requestsEvicted_;
    report.swapEvents = swapEvents_;
    report.swappedTokens = swappedTokens_;
    report.totalOutputTokens = totalOutputTokens_;
    report.totalPrefillTokens = totalPrefillTokens_;
    report.prefixLookups = prefixLookups_;
    report.prefixPromptTokens = prefixPromptTokens_;
    report.prefixHitTokens = prefixHitTokens_;
    report.makespan = makespan - measureStart_;
    if (decodeDuration_ > 0.0) {
        report.avgConsumedMemory =
            consumedWeighted_ / decodeDuration_;
        report.avgFutureRequired = futureWeighted_ / decodeDuration_;
        report.avgBatchSize = batchWeighted_ / decodeDuration_;
    }
    report.requests = requests_;
    report.timeseries = timeseries_;
    return report;
}

} // namespace metrics
} // namespace lightllm
