/**
 * @file
 * Unit tests for SLA metrics, the streaming collector, and report
 * derivations, against hand-computed values.
 */

#include <gtest/gtest.h>

#include "metrics/collector.hh"
#include "metrics/report.hh"
#include "metrics/sla.hh"

namespace lightllm {
namespace metrics {
namespace {

RequestRecord
record(Tick arrival, Tick first, Tick finish, Tick max_gap,
       TokenCount tokens)
{
    RequestRecord r;
    r.id = 1;
    r.arrival = arrival;
    r.firstToken = first;
    r.finish = finish;
    r.maxGap = max_gap;
    r.outputTokens = tokens;
    return r;
}

TEST(RequestRecordTest, TtftIsFirstTokenMinusArrival)
{
    const auto r = record(secondsToTicks(2.0), secondsToTicks(5.0),
                          secondsToTicks(9.0), 100, 10);
    EXPECT_EQ(r.ttft(), secondsToTicks(3.0));
}

TEST(RequestRecordTest, AvgTpotDividesByGapCount)
{
    // 9 gaps over 4.5 seconds -> 0.5 s per output token.
    const auto r = record(0, secondsToTicks(1.0),
                          secondsToTicks(5.5), 0, 10);
    EXPECT_DOUBLE_EQ(r.avgTpotSeconds(), 0.5);
}

TEST(RequestRecordTest, SingleTokenHasZeroTpot)
{
    const auto r = record(0, secondsToTicks(1.0),
                          secondsToTicks(1.0), 0, 1);
    EXPECT_DOUBLE_EQ(r.avgTpotSeconds(), 0.0);
}

TEST(SlaSpecTest, CompliantRequiresBothLimits)
{
    const SlaSpec sla = SlaSpec::small7b13b();
    // TTFT 9.9s, MTPOT 1.4s: compliant.
    EXPECT_TRUE(sla.compliant(record(0, secondsToTicks(9.9),
                                     secondsToTicks(20.0),
                                     secondsToTicks(1.4), 10)));
    // TTFT violated.
    EXPECT_FALSE(sla.compliant(record(0, secondsToTicks(10.1),
                                      secondsToTicks(20.0),
                                      secondsToTicks(0.5), 10)));
    // MTPOT violated.
    EXPECT_FALSE(sla.compliant(record(0, secondsToTicks(1.0),
                                      secondsToTicks(20.0),
                                      secondsToTicks(1.6), 10)));
}

TEST(SlaSpecTest, PresetsMatchThePaper)
{
    EXPECT_EQ(SlaSpec::small7b13b().ttftLimit, secondsToTicks(10.0));
    EXPECT_EQ(SlaSpec::small7b13b().mtpotLimit, secondsToTicks(1.5));
    EXPECT_EQ(SlaSpec::large70b().ttftLimit, secondsToTicks(15.0));
    EXPECT_EQ(SlaSpec::large70b().mtpotLimit, secondsToTicks(5.0));
}

TEST(CollectorTest, DurationWeightedMemoryAverages)
{
    MetricsCollector collector(1000);
    // Step 1: 500/1000 used for 30 ticks; step 2: 900/1000 for 10.
    collector.onDecodeStep(4, 500, 600, 30, 30);
    collector.onDecodeStep(4, 900, 950, 40, 10);
    const auto report = collector.finish("test", 40);
    EXPECT_NEAR(report.avgConsumedMemory,
                (0.5 * 30 + 0.9 * 10) / 40.0, 1e-12);
    EXPECT_NEAR(report.avgFutureRequired,
                (0.6 * 30 + 0.95 * 10) / 40.0, 1e-12);
    EXPECT_EQ(report.decodeSteps, 2);
    EXPECT_DOUBLE_EQ(report.avgBatchSize, 4.0);
}

TEST(CollectorTest, EvictionCountsSplitFirstFromRepeat)
{
    MetricsCollector collector(1000);
    collector.onEviction(true);
    collector.onEviction(false);
    collector.onEviction(true);
    const auto report = collector.finish("test", 10);
    EXPECT_EQ(report.evictionEvents, 3);
    EXPECT_EQ(report.requestsEvicted, 2u);
}

TEST(CollectorTest, TimeseriesRespectsInterval)
{
    MetricsCollector collector(1000, 2);
    for (int step = 1; step <= 7; ++step)
        collector.onDecodeStep(1, 100, 100, step, 1);
    const auto report = collector.finish("test", 7);
    EXPECT_EQ(report.timeseries.size(), 3u);  // steps 2, 4, 6
    EXPECT_EQ(report.timeseries[0].tick, 2);
}

TEST(CollectorTest, ResetMeasurementDiscardsHistory)
{
    MetricsCollector collector(1000);
    collector.onDecodeStep(2, 500, 500, 10, 10);
    collector.onRequestFinished(record(0, 1, 2, 1, 100));
    collector.onEviction(true);
    collector.resetMeasurement(50);
    collector.onDecodeStep(8, 800, 800, 60, 10);
    collector.onRequestFinished(record(50, 60, 70, 1, 40));
    const auto report = collector.finish("test", 150);
    EXPECT_EQ(report.numFinished, 1u);
    EXPECT_EQ(report.totalOutputTokens, 40);
    EXPECT_EQ(report.evictionEvents, 0);
    EXPECT_DOUBLE_EQ(report.avgBatchSize, 8.0);
    // Makespan excludes the warmup portion.
    EXPECT_EQ(report.makespan, 100);
}

TEST(CollectorTest, SnapshotsMatchHandAccumulatedMeansExactly)
{
    // finish() is a snapshot: it may be taken mid-run and the run
    // goes on. Step counts that are not a round number catch any
    // batching that leaves steps unfolded at the snapshot.
    const TokenCount capacity = 997;
    MetricsCollector collector(capacity);
    double consumed = 0.0;
    double future = 0.0;
    double batch = 0.0;
    double duration = 0.0;
    Tick now = 0;
    const auto step = [&](int i) {
        const std::int64_t batch_size = 1 + i % 13;
        const TokenCount used = 100 + (i * 37) % 800;
        const TokenCount true_future = used + (i * 11) % 150;
        const Tick ticks = 1 + (i * 7) % 29;
        now += ticks;
        collector.onDecodeStep(batch_size, used, true_future, now,
                               ticks);
        const double weight = static_cast<double>(ticks);
        consumed += static_cast<double>(used) /
            static_cast<double>(capacity) * weight;
        future += static_cast<double>(true_future) /
            static_cast<double>(capacity) * weight;
        batch += static_cast<double>(batch_size) * weight;
        duration += weight;
    };
    const auto expect_exact = [&](const RunReport &report,
                                  std::int64_t steps) {
        EXPECT_EQ(report.decodeSteps, steps);
        EXPECT_EQ(report.avgConsumedMemory, consumed / duration);
        EXPECT_EQ(report.avgFutureRequired, future / duration);
        EXPECT_EQ(report.avgBatchSize, batch / duration);
    };

    for (int i = 0; i < 100; ++i)
        step(i);
    expect_exact(collector.finish("test", now), 100);
    for (int i = 100; i < 130; ++i)
        step(i);
    expect_exact(collector.finish("test", now), 130);
}

RunReport
twoRequestReport()
{
    RunReport report;
    report.makespan = secondsToTicks(10.0);
    // Compliant: 300 tokens. Non-compliant (TTFT 12s): 700 tokens.
    report.requests.push_back(record(0, secondsToTicks(1.0),
                                     secondsToTicks(8.0),
                                     secondsToTicks(0.1), 300));
    report.requests.push_back(record(0, secondsToTicks(12.0),
                                     secondsToTicks(19.0),
                                     secondsToTicks(0.1), 700));
    report.totalOutputTokens = 1000;
    report.numFinished = 2;
    return report;
}

TEST(RunReportTest, ThroughputCountsEverything)
{
    const auto report = twoRequestReport();
    EXPECT_DOUBLE_EQ(report.throughputTokensPerSec(), 100.0);
}

TEST(RunReportTest, GoodputCountsCompliantOnly)
{
    const auto report = twoRequestReport();
    const auto sla = SlaSpec::small7b13b();
    EXPECT_DOUBLE_EQ(report.goodputTokensPerSec(sla), 30.0);
    EXPECT_DOUBLE_EQ(report.slaCompliantFraction(sla), 0.5);
}

TEST(RunReportTest, EvictedRatioCanExceedOne)
{
    RunReport report;
    report.numFinished = 10;
    report.evictionEvents = 15;
    EXPECT_DOUBLE_EQ(report.evictedReqRatio(), 1.5);
}

TEST(RunReportTest, EmptyReportIsAllZero)
{
    const RunReport report;
    const auto sla = SlaSpec::small7b13b();
    EXPECT_DOUBLE_EQ(report.throughputTokensPerSec(), 0.0);
    EXPECT_DOUBLE_EQ(report.goodputTokensPerSec(sla), 0.0);
    EXPECT_DOUBLE_EQ(report.slaCompliantFraction(sla), 0.0);
    EXPECT_DOUBLE_EQ(report.evictedReqRatio(), 0.0);
    EXPECT_DOUBLE_EQ(report.p99TtftSeconds(), 0.0);
}

TEST(RunReportTest, P99UsesNearestRank)
{
    RunReport report;
    report.makespan = 1;
    for (int i = 1; i <= 100; ++i) {
        report.requests.push_back(
            record(0, secondsToTicks(static_cast<double>(i)),
                   secondsToTicks(200.0), secondsToTicks(0.1), 1));
    }
    EXPECT_DOUBLE_EQ(report.p99TtftSeconds(), 99.0);
}

TEST(RunReportTest, PercentileFamilyIsConsistent)
{
    RunReport report;
    report.makespan = 1;
    for (int i = 1; i <= 100; ++i) {
        report.requests.push_back(record(
            0, secondsToTicks(static_cast<double>(i)),
            secondsToTicks(200.0),
            secondsToTicks(static_cast<double>(i) / 10.0), 1));
    }
    EXPECT_DOUBLE_EQ(report.p50TtftSeconds(), 50.0);
    EXPECT_DOUBLE_EQ(report.p90TtftSeconds(), 90.0);
    EXPECT_DOUBLE_EQ(report.p99TtftSeconds(), 99.0);
    EXPECT_DOUBLE_EQ(report.p50MtpotSeconds(), 5.0);
    EXPECT_DOUBLE_EQ(report.p90MtpotSeconds(), 9.0);
    EXPECT_DOUBLE_EQ(report.p99MtpotSeconds(), 9.9);
    EXPECT_LE(report.p50TtftSeconds(), report.p90TtftSeconds());
    EXPECT_LE(report.p90TtftSeconds(), report.p99TtftSeconds());
}

TEST(RunReportTest, TtftAttainmentIgnoresMtpot)
{
    const auto sla = SlaSpec::small7b13b();
    RunReport report;
    // TTFT fine, MTPOT violated: attains TTFT, not the full SLA.
    report.requests.push_back(record(0, secondsToTicks(1.0),
                                     secondsToTicks(30.0),
                                     secondsToTicks(9.0), 10));
    // TTFT violated.
    report.requests.push_back(record(0, secondsToTicks(11.0),
                                     secondsToTicks(30.0),
                                     secondsToTicks(0.1), 10));
    EXPECT_DOUBLE_EQ(report.ttftAttainment(sla), 0.5);
    EXPECT_DOUBLE_EQ(report.slaCompliantFraction(sla), 0.0);
}

TEST(RunReportTest, ShedRateOverOfferedRequests)
{
    RunReport report;
    EXPECT_DOUBLE_EQ(report.shedRate(), 0.0);
    report.offeredRequests = 200;
    report.shedRequests = 50;
    EXPECT_DOUBLE_EQ(report.shedRate(), 0.25);
}

TEST(RunReportTest, MergePreservesPercentilesAndFleetCounters)
{
    RunReport a;
    a.numFinished = 1;
    a.makespan = secondsToTicks(10.0);
    a.shedRequests = 2;
    a.offeredRequests = 10;
    a.instanceSeconds = 30.0;
    a.scaleUpEvents = 1;
    a.peakInstances = 3;
    a.requests.push_back(record(0, secondsToTicks(1.0),
                                secondsToTicks(5.0),
                                secondsToTicks(0.2), 10));
    RunReport b;
    b.numFinished = 1;
    b.makespan = secondsToTicks(8.0);
    b.shedRequests = 1;
    b.offeredRequests = 5;
    b.instanceSeconds = 12.5;
    b.scaleDownEvents = 2;
    b.peakInstances = 2;
    b.requests.push_back(record(0, secondsToTicks(3.0),
                                secondsToTicks(5.0),
                                secondsToTicks(0.4), 10));

    const auto merged = mergeReports({a, b}, "fleet");
    // Percentiles come from the concatenated records, so cluster
    // reports expose the same p50/p90 family as engines.
    EXPECT_DOUBLE_EQ(merged.p50TtftSeconds(), 1.0);
    EXPECT_DOUBLE_EQ(merged.p90TtftSeconds(), 3.0);
    EXPECT_EQ(merged.shedRequests, 3);
    EXPECT_EQ(merged.offeredRequests, 15);
    EXPECT_DOUBLE_EQ(merged.instanceSeconds, 42.5);
    EXPECT_EQ(merged.scaleUpEvents, 1);
    EXPECT_EQ(merged.scaleDownEvents, 2);
    EXPECT_EQ(merged.peakInstances, 3u);
}

TEST(RunReportTest, SummaryMentionsKeyNumbers)
{
    auto report = twoRequestReport();
    report.schedulerName = "TestSched";
    const auto text = report.summary(SlaSpec::small7b13b());
    EXPECT_NE(text.find("TestSched"), std::string::npos);
    EXPECT_NE(text.find("goodput"), std::string::npos);
    EXPECT_NE(text.find("30.0"), std::string::npos);
}

} // namespace
} // namespace metrics
} // namespace lightllm
