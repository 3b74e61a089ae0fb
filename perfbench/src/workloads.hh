/**
 * @file
 * The benchmark's workloads and one round of each.
 *
 * All four run the Past-Future scheduler on Llama-2-7B / A100-80G
 * with the paper's 7B SLA (TTFT < 10 s, MTPOT < 1.5 s), in one
 * process on one thread. Each puts a different layer on the hot
 * path; README.md records why each was chosen and what it measured.
 *
 * A round is: set-up (input generation from the seed, then engine,
 * fleet and load-generator construction), the timed phase (first
 * submission to final report), then the output checks, which are
 * not timed. An untraced round installs nothing of the benchmark's
 * own between the load and the simulator; a traced round wraps the
 * layers' entry points in the timers of probes.hh.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "checks.hh"
#include "cli_scenario.hh"
#include "probes.hh"

namespace perfbench {

/** Names of the workloads, in the order the README lists them. */
const std::vector<std::string> &workloadNames();

/**
 * The scenario flags of workload `name`, seeded with `seed` (the
 * seed drives the dataset draw, the arrival process and the session
 * contents).
 *
 * @throws std::invalid_argument for an unknown name.
 */
lightllm::cli::CliOptions workloadOptions(const std::string &name,
                                          std::uint64_t seed);

/** Per-layer figures of a traced round, beyond the Probe's. */
struct LayerTimes
{
    /** The engine's run() or event-handler wall time minus the core
     *  and cluster spans (and the report build) inside it. */
    double engineSelfSeconds = 0.0;
    double reportSeconds = 0.0;  // final report build
    std::uint64_t events = 0;    // shared-context events (fleets)
    std::size_t pendingMax = 0;  // deepest shared event queue
};

/** One round of a workload. */
struct Round
{
    RunOutput output;
    double genSeconds = 0.0;    // input generation
    double setupSeconds = 0.0;  // generation + construction
    double timedSeconds = 0.0;  // first submission -> final report
    LayerTimes layers;          // traced rounds only
};

/** Whether a workload expects prefix-cache hits (sessions). */
bool expectsPrefixHits(const lightllm::cli::CliOptions &options);

/**
 * Set up and run one round. With a non-null `probe` the round is
 * traced: the decorators feed `probe`, and `layers` is filled.
 */
Round runRound(const lightllm::cli::CliOptions &options,
               Probe *probe);

/** Set up a round without running it (extra set-up samples). */
double setupOnly(const lightllm::cli::CliOptions &options);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
