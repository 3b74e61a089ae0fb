/**
 * @file
 * Disaggregated serving with split-fuse (chunked prefill) engines.
 *
 * A migrated request arrives at its decode instance with the KV of
 * its whole prompt resident and its first token already emitted by
 * the prefill pool. It must join the decode batch with no prefill
 * compute and no emission, whatever the engine's prefill mode. These
 * runs pin that: each terminates (the ctest TIMEOUT turns a livelock
 * into a failure within seconds), every request generates exactly
 * the tokens it generates with split-fuse off, and no engine holds a
 * live KV allocation afterwards. Each case runs at one and two
 * compute threads.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "cli_scenario.hh"
#include "core/scheduler_factory.hh"
#include "disagg/disagg_cluster.hh"
#include "engine/serving_engine.hh"
#include "workload/arrivals.hh"
#include "workload/client_pool.hh"

namespace lightllm {
namespace {

struct DisaggOutcome
{
    /** Output tokens per request id. */
    std::map<RequestId, TokenCount> outputTokens;
    std::size_t finished = 0;
    std::size_t liveAllocations = 0;
};

/** Run a disaggregated CLI scenario, keeping a view of every engine
 *  so their KV managers can be inspected after the run. */
DisaggOutcome
runDisagg(const cli::CliOptions &options)
{
    const cli::Scenario scenario = cli::assembleScenario(options);
    std::vector<const engine::ServingEngine *> engines;
    const auto make_pool = [&](std::size_t count) {
        std::vector<std::unique_ptr<engine::ServingEngine>> pool;
        for (std::size_t i = 0; i < count; ++i) {
            pool.push_back(std::make_unique<engine::ServingEngine>(
                scenario.perf,
                core::makeSchedulingPolicy(scenario.schedulerConfig),
                scenario.engineConfig));
            engines.push_back(pool.back().get());
        }
        return pool;
    };
    disagg::DisaggCluster cluster(
        make_pool(scenario.prefillInstances),
        make_pool(scenario.decodeInstances), scenario.disaggConfig,
        static_cast<std::uint32_t>(scenario.simThreads));

    metrics::RunReport report;
    if (scenario.poissonRate > 0.0) {
        workload::submitPoissonArrivals(scenario.dataset, cluster,
                                        scenario.poissonRate,
                                        scenario.seed);
        report = cluster.run();
    } else {
        workload::ClosedLoopClientPool clients(
            scenario.clients, scenario.dataset, cluster,
            scenario.thinkTime);
        cluster.setOnFinish(
            [&](const workload::RequestSpec &spec, Tick tick) {
                clients.onRequestFinished(spec.id, tick);
            });
        clients.start();
        report = cluster.run();
    }

    DisaggOutcome outcome;
    outcome.finished = report.numFinished;
    for (const metrics::RequestRecord &record : report.requests)
        outcome.outputTokens[record.id] = record.outputTokens;
    for (const engine::ServingEngine *engine : engines)
        outcome.liveAllocations += engine->kvManager().numRequests();
    return outcome;
}

void
expectSplitFuseMatchesDedicatedPrefill(cli::CliOptions options,
                                       std::size_t expected_finished)
{
    for (const std::size_t threads : {1, 2}) {
        SCOPED_TRACE(testing::Message() << threads << " threads");
        options.simThreads = threads;
        options.splitFuse = false;
        const DisaggOutcome dedicated = runDisagg(options);
        options.splitFuse = true;
        const DisaggOutcome fused = runDisagg(options);

        EXPECT_EQ(dedicated.finished, expected_finished);
        EXPECT_EQ(fused.finished, expected_finished);
        EXPECT_EQ(fused.outputTokens, dedicated.outputTokens);
        EXPECT_EQ(fused.liveAllocations, 0U);
        EXPECT_EQ(dedicated.liveAllocations, 0U);
    }
}

TEST(DisaggSplitFuse, SingleRequestOneByOne)
{
    // An idle decode instance with one migrated request: it must
    // join the decode batch even though no prefill chunk and no
    // decode step share its iteration.
    cli::CliOptions options;
    options.disagg = true;
    options.prefillInstances = 1;
    options.decodeInstances = 1;
    options.requests = 1;
    options.clients = 1;
    expectSplitFuseMatchesDedicatedPrefill(options, 1);
}

TEST(DisaggSplitFuse, OpenLoopTwoByThree)
{
    // Migrated joins land on decode instances that are already
    // running batches, at one and two compute threads.
    cli::CliOptions options;
    options.disagg = true;
    options.prefillInstances = 2;
    options.decodeInstances = 3;
    options.poissonRate = 10.0;
    options.requests = 50;
    expectSplitFuseMatchesDedicatedPrefill(options, 50);
}

} // namespace
} // namespace lightllm
