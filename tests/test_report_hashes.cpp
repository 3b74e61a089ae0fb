/**
 * @file
 * Pinned report hashes for the engine paths the scheduling goldens
 * do not cover: split-fuse, swap eviction, the prefix cache, a
 * split-fuse fleet and a disaggregated fleet.
 *
 * Each row runs a small CLI scenario and hashes the integer fields
 * of its RunReport — every per-request record's id, arrival, first
 * token, finish, max gap, evictions and output tokens, plus the
 * report's integer counters — with 64-bit FNV-1a over fixed-width
 * little-endian words. Floating-point aggregates are left out, so
 * a hash depends only on the simulated timeline and is the same
 * across compilers and build types. Any change to when a token is
 * emitted, a request finishes or a step runs moves the hash.
 *
 * The expected values were recorded before the engine's iteration
 * body was unified; a refactor of that body must leave every row
 * unchanged. A deliberate behaviour change updates a row's hash and
 * says why in CHANGES.md.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>

#include "cli_scenario.hh"
#include "metrics/report.hh"

namespace lightllm {
namespace {

/** 64-bit FNV-1a over little-endian 8-byte words. */
class ReportHash
{
  public:
    void
    add(std::int64_t value)
    {
        auto bits = static_cast<std::uint64_t>(value);
        for (int i = 0; i < 8; ++i) {
            hash_ ^= bits & 0xffU;
            hash_ *= 0x100000001b3ULL;
            bits >>= 8;
        }
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t
hashReport(const metrics::RunReport &report)
{
    ReportHash hash;
    for (const metrics::RequestRecord &record : report.requests) {
        hash.add(static_cast<std::int64_t>(record.id));
        hash.add(record.arrival);
        hash.add(record.firstToken);
        hash.add(record.finish);
        hash.add(record.maxGap);
        hash.add(record.evictions);
        hash.add(record.outputTokens);
    }
    hash.add(static_cast<std::int64_t>(report.numFinished));
    hash.add(report.decodeSteps);
    hash.add(report.prefillIterations);
    hash.add(report.evictionEvents);
    hash.add(static_cast<std::int64_t>(report.requestsEvicted));
    hash.add(report.swapEvents);
    hash.add(report.swappedTokens);
    hash.add(report.totalOutputTokens);
    hash.add(report.totalPrefillTokens);
    hash.add(report.prefixLookups);
    hash.add(report.prefixPromptTokens);
    hash.add(report.prefixHitTokens);
    hash.add(report.makespan);
    hash.add(report.shedRequests);
    hash.add(report.offeredRequests);
    hash.add(static_cast<std::int64_t>(report.prefillPool.finished));
    hash.add(static_cast<std::int64_t>(report.decodePool.finished));
    hash.add(report.migratedKvBytes);
    hash.add(report.migratedRequests);
    hash.add(report.handoffShedRequests);
    return hash.value();
}

/** Multi-turn sessions on a small-memory platform: the aggressive
 *  admission overcommits, so evictions (and, in swap mode, swap
 *  transfers) happen, and session turns hit the prefix cache. */
cli::CliOptions
engineOptions(bool split_fuse, const char *eviction_mode,
              const char *prefix_cache)
{
    cli::CliOptions options;
    options.sessions = 48;
    options.turns = 3;
    options.hardware = "rtx4090";
    options.scheduler = "aggressive";
    options.seed = 7;
    options.splitFuse = split_fuse;
    options.evictionMode = eviction_mode;
    options.prefixCache = prefix_cache;
    return options;
}

cli::CliOptions
fleetOptions()
{
    cli::CliOptions options;
    options.workload = "sharegpt-o1";
    options.requests = 96;
    options.clients = 32;
    options.instances = 4;
    options.splitFuse = true;
    options.scheduler = "aggressive";
    options.hardware = "rtx4090";
    options.seed = 7;
    return options;
}

cli::CliOptions
disaggOptions()
{
    cli::CliOptions options;
    options.disagg = true;
    options.prefillInstances = 2;
    options.decodeInstances = 2;
    options.workload = "sharegpt";
    options.requests = 96;
    options.poissonRate = 8.0;
    options.hardware = "rtx4090";
    options.seed = 7;
    return options;
}

struct PinnedCase
{
    const char *name;
    cli::CliOptions options;
    std::uint64_t expected;
};

const PinnedCase kCases[] = {
    {"engine_recompute_nocache",
     engineOptions(false, "recompute", "off"),
     0xf8bd9e0c60d8314dULL},
    {"engine_swap_nocache",
     engineOptions(false, "swap", "off"),
     0x290b3cd8810e87a9ULL},
    {"engine_recompute_cache",
     engineOptions(false, "recompute", "on"),
     0x5d24908bccc7acb0ULL},
    {"engine_swap_cache",
     engineOptions(false, "swap", "on"),
     0x424466475a2b0ccaULL},
    {"fused_recompute_nocache",
     engineOptions(true, "recompute", "off"),
     0x22b968506c140d86ULL},
    {"fused_swap_nocache",
     engineOptions(true, "swap", "off"),
     0xfdd735d5ea23ef3eULL},
    {"fused_recompute_cache",
     engineOptions(true, "recompute", "on"),
     0x7350ef88bf7bb7e4ULL},
    {"fused_swap_cache",
     engineOptions(true, "swap", "on"),
     0xf37927c428c43cb2ULL},
    {"fleet4_fused",
     fleetOptions(),
     0x60875973029c82d0ULL},
    {"disagg_2p2d",
     disaggOptions(),
     0xf0ad4bbd9d2dfb6fULL},
};

/** Name-only printer: gtest would otherwise dump the options'
 *  bytes into every failure line. */
void
PrintTo(const PinnedCase &pinned, std::ostream *os)
{
    *os << pinned.name;
}

class PinnedReport : public ::testing::TestWithParam<PinnedCase>
{
};

TEST_P(PinnedReport, HashMatchesRecordedTimeline)
{
    const PinnedCase &pinned = GetParam();
    const cli::Scenario scenario =
        cli::assembleScenario(pinned.options);
    const metrics::RunReport report = cli::runScenario(scenario);
    ASSERT_GT(report.numFinished, 0U);
    const std::uint64_t actual = hashReport(report);
    char hex[32];
    std::snprintf(hex, sizeof(hex), "0x%016llxULL",
                  static_cast<unsigned long long>(actual));
    EXPECT_EQ(actual, pinned.expected)
        << pinned.name << " now hashes to " << hex;
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, PinnedReport, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<PinnedCase> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace lightllm
