#include "metrics/report.hh"

#include <algorithm>
#include <sstream>

#include "base/str_util.hh"
#include "stats/percentile.hh"

namespace lightllm {
namespace metrics {

double
RunReport::throughputTokensPerSec() const
{
    if (makespan <= 0)
        return 0.0;
    return static_cast<double>(totalOutputTokens) /
        ticksToSeconds(makespan);
}

double
RunReport::goodputTokensPerSec(const SlaSpec &sla) const
{
    if (makespan <= 0)
        return 0.0;
    TokenCount good_tokens = 0;
    for (const auto &record : requests) {
        if (sla.compliant(record))
            good_tokens += record.outputTokens;
    }
    return static_cast<double>(good_tokens) /
        ticksToSeconds(makespan);
}

double
RunReport::slaCompliantFraction(const SlaSpec &sla) const
{
    if (requests.empty())
        return 0.0;
    std::size_t good = 0;
    for (const auto &record : requests) {
        if (sla.compliant(record))
            ++good;
    }
    return static_cast<double>(good) /
        static_cast<double>(requests.size());
}

double
RunReport::evictedReqRatio() const
{
    if (numFinished == 0)
        return 0.0;
    return static_cast<double>(evictionEvents) /
        static_cast<double>(numFinished);
}

double
RunReport::prefixHitRate() const
{
    if (prefixPromptTokens == 0)
        return 0.0;
    return static_cast<double>(prefixHitTokens) /
        static_cast<double>(prefixPromptTokens);
}

double
RunReport::shedRate() const
{
    if (offeredRequests <= 0)
        return 0.0;
    return static_cast<double>(shedRequests) /
        static_cast<double>(offeredRequests);
}

RunReport::LatencyDigest
RunReport::latencyDigest() const
{
    LatencyDigest digest;
    digest.ttftSeconds.reserve(requests.size());
    digest.mtpotSeconds.reserve(requests.size());
    digest.tpotSeconds.reserve(requests.size());
    for (const auto &record : requests) {
        digest.ttftSeconds.push_back(
            ticksToSeconds(record.ttft()));
        digest.mtpotSeconds.push_back(
            ticksToSeconds(record.maxGap));
        digest.tpotSeconds.push_back(record.avgTpotSeconds());
    }
    std::sort(digest.ttftSeconds.begin(),
              digest.ttftSeconds.end());
    std::sort(digest.mtpotSeconds.begin(),
              digest.mtpotSeconds.end());
    return digest;
}

double
RunReport::LatencyDigest::ttftPercentile(double q) const
{
    return stats::percentileSorted(ttftSeconds, q);
}

double
RunReport::LatencyDigest::mtpotPercentile(double q) const
{
    return stats::percentileSorted(mtpotSeconds, q);
}

double
RunReport::LatencyDigest::meanTtft() const
{
    return stats::mean(ttftSeconds);
}

double
RunReport::LatencyDigest::meanTpot() const
{
    return stats::mean(tpotSeconds);
}

double
RunReport::ttftPercentileSeconds(double q) const
{
    std::vector<double> ttfts;
    ttfts.reserve(requests.size());
    for (const auto &record : requests)
        ttfts.push_back(ticksToSeconds(record.ttft()));
    return stats::percentile(std::move(ttfts), q);
}

double
RunReport::mtpotPercentileSeconds(double q) const
{
    std::vector<double> gaps;
    gaps.reserve(requests.size());
    for (const auto &record : requests)
        gaps.push_back(ticksToSeconds(record.maxGap));
    return stats::percentile(std::move(gaps), q);
}

double
RunReport::ttftAttainment(const SlaSpec &sla) const
{
    if (requests.empty())
        return 0.0;
    std::size_t met = 0;
    for (const auto &record : requests) {
        if (record.ttft() < sla.ttftLimit)
            ++met;
    }
    return static_cast<double>(met) /
        static_cast<double>(requests.size());
}

double
RunReport::meanTtftSeconds() const
{
    std::vector<double> ttfts;
    ttfts.reserve(requests.size());
    for (const auto &record : requests)
        ttfts.push_back(ticksToSeconds(record.ttft()));
    return stats::mean(ttfts);
}

double
RunReport::meanTpotSeconds() const
{
    std::vector<double> tpots;
    tpots.reserve(requests.size());
    for (const auto &record : requests)
        tpots.push_back(record.avgTpotSeconds());
    return stats::mean(tpots);
}

RunReport
mergeReports(const std::vector<RunReport> &reports, std::string name)
{
    RunReport merged;
    merged.schedulerName = std::move(name);
    double consumed_weighted = 0.0;
    double future_weighted = 0.0;
    double batch_weighted = 0.0;
    double total_steps = 0.0;
    for (const auto &report : reports) {
        merged.numFinished += report.numFinished;
        merged.decodeSteps += report.decodeSteps;
        merged.prefillIterations += report.prefillIterations;
        merged.evictionEvents += report.evictionEvents;
        merged.requestsEvicted += report.requestsEvicted;
        merged.swapEvents += report.swapEvents;
        merged.swappedTokens += report.swappedTokens;
        merged.totalOutputTokens += report.totalOutputTokens;
        merged.totalPrefillTokens += report.totalPrefillTokens;
        merged.prefixLookups += report.prefixLookups;
        merged.prefixPromptTokens += report.prefixPromptTokens;
        merged.prefixHitTokens += report.prefixHitTokens;
        merged.shedRequests += report.shedRequests;
        merged.offeredRequests += report.offeredRequests;
        merged.instanceSeconds += report.instanceSeconds;
        merged.instanceCost += report.instanceCost;
        merged.scaleUpEvents += report.scaleUpEvents;
        merged.scaleDownEvents += report.scaleDownEvents;
        merged.peakInstances =
            std::max(merged.peakInstances, report.peakInstances);
        merged.makespan = std::max(merged.makespan, report.makespan);
        const auto weight =
            static_cast<double>(report.decodeSteps);
        consumed_weighted += report.avgConsumedMemory * weight;
        future_weighted += report.avgFutureRequired * weight;
        batch_weighted += report.avgBatchSize * weight;
        total_steps += weight;
        merged.requests.insert(merged.requests.end(),
                               report.requests.begin(),
                               report.requests.end());
    }
    if (total_steps > 0.0) {
        merged.avgConsumedMemory = consumed_weighted / total_steps;
        merged.avgFutureRequired = future_weighted / total_steps;
        merged.avgBatchSize = batch_weighted / total_steps;
    }
    return merged;
}

std::string
RunReport::summary(const SlaSpec &sla) const
{
    const LatencyDigest digest = latencyDigest();
    std::ostringstream oss;
    oss << schedulerName << ": " << numFinished << " reqs, "
        << formatDouble(throughputTokensPerSec(), 1)
        << " tok/s throughput, "
        << formatDouble(goodputTokensPerSec(sla), 1)
        << " tok/s goodput, p99 TTFT "
        << formatDouble(digest.ttftPercentile(0.99), 2)
        << " s, p99 MTPOT "
        << formatDouble(digest.mtpotPercentile(0.99), 2)
        << " s, evicted "
        << formatPercent(evictedReqRatio(), 2) << ", mem "
        << formatPercent(avgConsumedMemory, 2);
    return oss.str();
}

} // namespace metrics
} // namespace lightllm
