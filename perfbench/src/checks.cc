#include "checks.hh"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "metrics/report_io.hh"

namespace perfbench {

using namespace lightllm;

namespace {

std::string
describe(const char *what, double expected, double reported)
{
    std::ostringstream os;
    os.precision(12);
    os << what << ": recomputed " << expected << ", report says "
       << reported;
    return os.str();
}

bool
close(double a, double b)
{
    return std::fabs(a - b) <=
        1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

} // namespace

double
nearestRank(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double n = static_cast<double>(samples.size());
    auto rank = static_cast<std::size_t>(std::ceil(q * n));
    rank = std::clamp<std::size_t>(rank, 1, samples.size());
    return samples[rank - 1];
}

CheckResult
checkRun(const RunOutput &run, const metrics::SlaSpec &sla,
         bool expect_prefix_hits)
{
    CheckResult result;
    const metrics::RunReport &report = run.report;
    auto &problems = result.problems;

    // Offered requests by id.
    std::unordered_map<RequestId, const workload::RequestSpec *> specs;
    TokenCount expected_output = 0;
    for (const workload::RequestSpec &spec : run.offered) {
        if (!specs.emplace(spec.id, &spec).second)
            problems.push_back("duplicate offered id " +
                               std::to_string(spec.id));
        expected_output += spec.effectiveOutputLen();
    }

    // Per-request checks: each offered request finishes exactly
    // once, with its own output length and ordered timestamps.
    std::unordered_set<RequestId> seen;
    std::unordered_set<RequestId> bad;
    std::size_t unknown = 0;
    for (const metrics::RequestRecord &record : report.requests) {
        const auto it = specs.find(record.id);
        if (it == specs.end()) {
            ++unknown;
            continue;
        }
        if (!seen.insert(record.id).second)
            bad.insert(record.id);
        if (record.outputTokens != it->second->effectiveOutputLen())
            bad.insert(record.id);
        if (!(record.arrival <= record.firstToken &&
              record.firstToken <= record.finish)) {
            bad.insert(record.id);
        }
    }
    const std::size_t unfinished = run.offered.size() - seen.size();
    result.failedRequests = unfinished + bad.size();
    if (unfinished > 0 || unknown > 0 ||
        report.numFinished != run.offered.size()) {
        problems.push_back(
            "finished " + std::to_string(report.numFinished) +
            " (records " + std::to_string(report.requests.size()) +
            ", unknown " + std::to_string(unknown) + ") of " +
            std::to_string(run.offered.size()) + " offered");
    }
    if (!bad.empty()) {
        problems.push_back(
            std::to_string(bad.size()) +
            " records repeat, have the wrong output length, or break "
            "arrival <= first token <= finish");
    }
    if (report.shedRequests != 0 || run.observation.handoffShed != 0)
        problems.push_back("requests were shed");
    if (report.totalOutputTokens != expected_output) {
        problems.push_back(describe(
            "total output tokens", static_cast<double>(expected_output),
            static_cast<double>(report.totalOutputTokens)));
    }

    // Serving results recomputed from the records.
    std::vector<double> ttft;
    std::vector<double> mtpot;
    TokenCount good_tokens = 0;
    for (const metrics::RequestRecord &record : report.requests) {
        ttft.push_back(ticksToSeconds(record.firstToken -
                                      record.arrival));
        mtpot.push_back(ticksToSeconds(record.maxGap));
        if (record.firstToken - record.arrival < sla.ttftLimit &&
            record.maxGap < sla.mtpotLimit) {
            good_tokens += record.outputTokens;
        }
    }
    const double goodput = report.makespan > 0
        ? static_cast<double>(good_tokens) /
            ticksToSeconds(report.makespan)
        : 0.0;
    if (!close(goodput, report.goodputTokensPerSec(sla))) {
        problems.push_back(describe("goodput tok/s", goodput,
                                    report.goodputTokensPerSec(sla)));
    }
    const struct
    {
        const char *name;
        double mine;
        double theirs;
    } percentiles[] = {
        {"p50 TTFT s", nearestRank(ttft, 0.50), report.p50TtftSeconds()},
        {"p99 TTFT s", nearestRank(ttft, 0.99), report.p99TtftSeconds()},
        {"p50 MTPOT s", nearestRank(mtpot, 0.50),
         report.p50MtpotSeconds()},
        {"p99 MTPOT s", nearestRank(mtpot, 0.99),
         report.p99MtpotSeconds()},
    };
    for (const auto &p : percentiles) {
        if (!close(p.mine, p.theirs))
            problems.push_back(describe(p.name, p.mine, p.theirs));
    }

    // KV memory. Untraced, peakKvRatio is only the end-of-run ratio;
    // a traced round adds every admission round's.
    if (run.observation.peakKvRatio > 1.0 ||
        report.avgConsumedMemory > 1.0) {
        problems.push_back(describe(
            "KV use over capacity (ratio)", 1.0,
            std::max(run.observation.peakKvRatio,
                     report.avgConsumedMemory)));
    }
    if (run.observation.liveAllocations != 0) {
        problems.push_back(
            std::to_string(run.observation.liveAllocations) +
            " KV allocations still live after the run");
    }

    if (expect_prefix_hits &&
        !(report.prefixHitTokens > 0 &&
          report.prefixHitTokens <= report.prefixPromptTokens)) {
        problems.push_back(describe(
            "prefix hit tokens within (0, looked-up prompt tokens]",
            static_cast<double>(report.prefixPromptTokens),
            static_cast<double>(report.prefixHitTokens)));
    }

    if (run.observation.disaggregated) {
        // Every multi-token request migrates once; a single-token
        // request finishes on the prefill pool.
        std::unordered_set<RequestId> migrating;
        for (const workload::RequestSpec &spec : run.offered) {
            if (spec.effectiveOutputLen() > 1)
                migrating.insert(spec.id);
        }
        std::unordered_set<RequestId> decoded;
        bool exact = run.observation.migrations ==
            static_cast<std::int64_t>(migrating.size());
        for (const RequestId id : run.observation.decodeIds) {
            exact = exact && migrating.count(id) > 0 &&
                decoded.insert(id).second;
        }
        exact = exact && decoded.size() == migrating.size();
        if (!exact) {
            problems.push_back(describe(
                "migrations (one per multi-token request)",
                static_cast<double>(migrating.size()),
                static_cast<double>(run.observation.migrations)));
        }
    }
    return result;
}

std::string
compareReports(const metrics::RunReport &a, const metrics::RunReport &b,
               const metrics::SlaSpec &sla)
{
    std::ostringstream ja;
    std::ostringstream jb;
    metrics::writeSummaryJson(ja, a, sla);
    metrics::writeSummaryJson(jb, b, sla);
    if (ja.str() != jb.str())
        return "summary JSON differs";
    if (a.requests.size() != b.requests.size())
        return "record count differs";
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        const metrics::RequestRecord &x = a.requests[i];
        const metrics::RequestRecord &y = b.requests[i];
        if (x.id != y.id || x.inputLen != y.inputLen ||
            x.outputTokens != y.outputTokens ||
            x.arrival != y.arrival || x.firstToken != y.firstToken ||
            x.finish != y.finish || x.maxGap != y.maxGap ||
            x.evictions != y.evictions) {
            return "record " + std::to_string(i) + " differs";
        }
    }
    return {};
}

std::vector<std::string>
selfTest(RunOutput &run, const metrics::SlaSpec &sla,
         bool expect_prefix_hits)
{
    // Each corruption is applied in place and then undone: a copy of
    // the run would set the process's peak resident set.
    std::vector<std::string> missed;
    const auto expect_caught = [&](const char *name) {
        if (checkRun(run, sla, expect_prefix_hits).ok())
            missed.push_back(name);
    };
    metrics::RunReport &report = run.report;

    const metrics::RequestRecord dropped = report.requests.back();
    report.requests.pop_back();
    report.numFinished -= 1;
    expect_caught("dropped record");
    report.requests.push_back(dropped);
    report.numFinished += 1;

    metrics::RequestRecord &first = report.requests.front();
    const Tick first_token = first.firstToken;
    first.firstToken = first.arrival - 1;
    expect_caught("shifted first token");
    first.firstToken = first_token;

    report.requests.back().outputTokens += 1;
    report.totalOutputTokens += 1;
    expect_caught("extra output token");
    report.requests.back().outputTokens -= 1;
    report.totalOutputTokens -= 1;

    run.observation.liveAllocations += 1;
    expect_caught("leaked allocation");
    run.observation.liveAllocations -= 1;
    return missed;
}

} // namespace perfbench
