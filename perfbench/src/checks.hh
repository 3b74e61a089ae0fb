/**
 * @file
 * Output checks of one simulated run. Each check is computed apart
 * from the simulator or follows from a property the modelled method
 * must have; none compares against a stored copy of earlier output.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/types.hh"
#include "metrics/report.hh"
#include "metrics/sla.hh"
#include "workload/request_spec.hh"

namespace perfbench {

/** Engine- and fleet-side state read after a run. */
struct Observation
{
    /** Requests still holding a KV allocation, summed over engines
     *  (cache-held blocks do not count). */
    std::size_t liveAllocations = 0;

    /** Largest used/capacity KV ratio seen: every engine at the end
     *  of the run, and every admission round of a traced run. */
    double peakKvRatio = 0.0;

    // Disaggregated fleets only.
    bool disaggregated = false;
    std::int64_t migrations = 0;
    std::int64_t migratedBytes = 0;
    std::int64_t handoffShed = 0;

    /** Request ids the decode pool finished, in record order. */
    std::vector<lightllm::RequestId> decodeIds;
};

/** Everything the checks look at. */
struct RunOutput
{
    lightllm::metrics::RunReport report;

    /** Every request offered, as generated from the seed. */
    std::vector<lightllm::workload::RequestSpec> offered;

    Observation observation;
};

/** Result of checking one run. */
struct CheckResult
{
    /** One line per failed check. */
    std::vector<std::string> problems;

    /** Requests that did not finish or whose record failed a
     *  per-request check. */
    std::size_t failedRequests = 0;

    bool ok() const { return problems.empty(); }
};

/** Nearest-rank percentile (q in [0, 1]) of unsorted samples. */
double nearestRank(std::vector<double> samples, double q);

/**
 * Check one run:
 *  - finished equals offered, every request exactly once, nothing
 *    shed;
 *  - total output tokens equal the sum over the inputs of
 *    min(output length, max new tokens), and so does each record;
 *  - every record has arrival <= first token <= finish;
 *  - goodput and TTFT/MTPOT p50/p99 recomputed from the records
 *    match the report;
 *  - KV use never exceeded capacity and no engine holds a live
 *    allocation after the run;
 *  - with `expect_prefix_hits`, prefix hit tokens are above zero and
 *    at most the prompt tokens looked up;
 *  - on a disaggregated fleet, every request with more than one
 *    output token migrated exactly once, and no other did.
 */
CheckResult checkRun(const RunOutput &run,
                     const lightllm::metrics::SlaSpec &sla,
                     bool expect_prefix_hits);

/**
 * The traced run's report must equal the untraced one: summary JSON
 * and every field of every record.
 *
 * @return Empty when identical, else what differs.
 */
std::string compareReports(const lightllm::metrics::RunReport &a,
                           const lightllm::metrics::RunReport &b,
                           const lightllm::metrics::SlaSpec &sla);

/**
 * Self-test of checkRun: corrupt a passing run (a dropped record, a
 * shifted first token, an extra output token, a leaked allocation)
 * and confirm each corruption is caught. `run` is restored before
 * returning.
 *
 * @return Names of the corruptions checkRun failed to catch.
 */
std::vector<std::string> selfTest(
    RunOutput &run, const lightllm::metrics::SlaSpec &sla,
    bool expect_prefix_hits);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
