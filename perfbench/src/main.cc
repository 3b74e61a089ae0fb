/**
 * @file
 * perfbench: wall-clock benchmark of the simulator.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Untraced (--trace 0): whole rounds of the workload (README.md) run
 * until S seconds have passed; each round is checked. Prints the
 * end-to-end metrics: simulated requests finished per wall-clock
 * second of the timed phases (all rounds' requests over all rounds'
 * timed seconds), set-up time (median of every set-up: each round's
 * own plus kExtraSetups more of its inputs) and the process's peak
 * resident set.
 *
 * Traced (--trace 1): pairs of rounds, one untraced and one with the
 * layer timers of probes.hh installed, plus the memory replay of
 * replay.hh, until S seconds have passed. Both reports must be
 * identical and pass the checks. Prints the per-layer metrics
 * (medians over pairs for times, exact counts otherwise).
 *
 * The last line of standard output is one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 */

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "checks.hh"
#include "probes.hh"
#include "replay.hh"
#include "workloads.hh"

namespace perfbench {
namespace {

using namespace lightllm;

/** Set-ups timed after each untraced round besides its own. A set-up
 *  takes milliseconds, so one per round would leave the median at the
 *  mercy of a few samples; spreading them over every round lets them
 *  see the same host as the timed phases. */
constexpr std::size_t kExtraSetups = 4;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

int
usage(const std::string &error)
{
    std::cerr << "perfbench: " << error << "\n"
              << "usage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1\nworkloads:";
    for (const std::string &name : workloadNames())
        std::cerr << " " << name;
    std::cerr << "\n";
    return 2;
}

bool
parseArgs(int argc, char **argv, Args &args, std::string &error)
{
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            error = "missing value for " + flag;
            return false;
        }
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0' || value[0] == '-') {
                error = "bad --seed " + value;
                return false;
            }
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' ||
                !(args.seconds > 0.0 && args.seconds <= 3600.0)) {
                error = "bad --seconds " + value;
                return false;
            }
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") {
                error = "--trace takes 0 or 1";
                return false;
            }
            args.trace = value == "1";
        } else {
            error = "unknown flag " + flag;
            return false;
        }
    }
    if (!have_workload) {
        error = "--workload is required";
        return false;
    }
    return true;
}

double
median(std::vector<double> values)
{
    return nearestRank(std::move(values), 0.5);
}

double
percentileOf(const std::vector<float> &samples, double q)
{
    return nearestRank(std::vector<double>(samples.begin(),
                                           samples.end()),
                       q);
}

/** Metrics in print order, rendered as the result line wants. */
class MetricSet
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        entries_.push_back(Entry{name, std::isfinite(value) ? value : 0.0,
                                 unit});
    }

    void
    print(std::ostream &os) const
    {
        for (const Entry &e : entries_) {
            os << "  " << e.name << " = " << number(e.value) << " "
               << e.unit << "\n";
        }
    }

    std::string
    json() const
    {
        std::ostringstream os;
        os << "{";
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            const Entry &e = entries_[i];
            os << (i ? ", " : "") << "\"" << e.name
               << "\": {\"value\": " << number(e.value)
               << ", \"unit\": \"" << e.unit << "\"}";
        }
        os << "}";
        return os.str();
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };

    static std::string
    number(double value)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        return buf;
    }

    std::vector<Entry> entries_;
};

/** Run-wide tallies: attempted/failed requests and problems. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;
    bool selfTested = false;

    /** Check one run's output and fold it in. */
    void
    check(RunOutput &output, bool prefix,
          const metrics::SlaSpec &sla, const std::string &label)
    {
        const CheckResult result = checkRun(output, sla, prefix);
        attempted += output.offered.size();
        failed += result.failedRequests;
        for (const std::string &p : result.problems)
            problems.push_back(label + ": " + p);
        if (result.ok() && !selfTested) {
            selfTested = true;
            for (const std::string &missed :
                 selfTest(output, sla, prefix)) {
                problems.push_back("self-test: a " + missed +
                                   " passed the checks");
            }
        }
    }
};

/** One line per round: wall time, counts, serving results. */
void
printRound(const std::string &label, const Round &round,
           const metrics::SlaSpec &sla, std::size_t failed)
{
    const metrics::RunReport &r = round.output.report;
    const std::int64_t shed =
        r.shedRequests + round.output.observation.handoffShed;
    char line[512];
    std::snprintf(
        line, sizeof line,
        "%s: setup %.4f s, timed %.4f s, %.1f req/s | attempted %zu "
        "finished %zu shed %lld failed %zu | goodput %.1f tok/s, "
        "TTFT p50 %.3f p99 %.3f s, MTPOT p50 %.3f p99 %.3f s, "
        "SLA %.2f%%",
        label.c_str(), round.setupSeconds, round.timedSeconds,
        static_cast<double>(r.numFinished) / round.timedSeconds,
        round.output.offered.size(), r.numFinished,
        static_cast<long long>(shed), failed,
        r.goodputTokensPerSec(sla), r.p50TtftSeconds(),
        r.p99TtftSeconds(), r.p50MtpotSeconds(), r.p99MtpotSeconds(),
        100.0 * r.slaCompliantFraction(sla));
    std::cout << line << "\n";
}

/**
 * The workload of round `round` of a run: each round draws its own
 * inputs, derived from the run's seed, so a run pools several draws
 * instead of repeating one.
 */
cli::CliOptions
roundOptions(const Args &args, std::size_t round)
{
    return workloadOptions(args.workload, args.seed * 1000 + round);
}

/** Whether another round fits the time budget: always the first,
 *  then while the time used plus a mean round stays within it. */
bool
anotherRound(const Args &args, Clock::time_point start,
             std::size_t done)
{
    if (done == 0)
        return true;
    const double used = secondsBetween(start, Clock::now());
    return used + used / static_cast<double>(done) <= args.seconds;
}

MetricSet
untracedRun(const Args &args, const metrics::SlaSpec &sla,
            Tally &tally)
{
    // Throughput over the whole run rather than a median of rounds:
    // the host's speed drifts between regimes over tens of seconds,
    // and the pooled rate moves smoothly with the share of the run
    // spent in each, where a median jumps between them.
    double finished = 0.0;
    double timed = 0.0;
    std::vector<double> setups;
    const Clock::time_point start = Clock::now();
    for (std::size_t r = 0; anotherRound(args, start, r); ++r) {
        const cli::CliOptions options = roundOptions(args, r);
        Round round = runRound(options, nullptr);
        const std::string label = "round " + std::to_string(r + 1);
        const std::size_t failed_before = tally.failed;
        tally.check(round.output, expectsPrefixHits(options), sla,
                    label);
        printRound(label, round, sla, tally.failed - failed_before);
        finished += static_cast<double>(round.output.report.numFinished);
        timed += round.timedSeconds;
        setups.push_back(round.setupSeconds);
        for (std::size_t i = 0; i < kExtraSetups; ++i)
            setups.push_back(setupOnly(options));
    }

    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    MetricSet metrics;
    metrics.add("sim_req_per_s", finished / timed, "req/s");
    metrics.add("setup_s", median(setups), "s");
    metrics.add("peak_rss_mb",
                static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB");
    return metrics;
}

/** Per-layer figures of one traced pair. */
struct LayerSample
{
    Round traced;
    Probe probe;
    ReplayStats replay;
    double overheadSeconds = 0.0;
};

MetricSet
tracedRun(const Args &args, const metrics::SlaSpec &sla, Tally &tally)
{
    std::vector<LayerSample> samples;
    const Clock::time_point start = Clock::now();
    for (std::size_t r = 0; anotherRound(args, start, r); ++r) {
        const cli::CliOptions options = roundOptions(args, r);
        const bool prefix = expectsPrefixHits(options);
        const std::string n = std::to_string(r + 1);
        Round plain = runRound(options, nullptr);
        std::size_t failed_before = tally.failed;
        tally.check(plain.output, prefix, sla, "untraced " + n);
        printRound("untraced " + n, plain, sla,
                   tally.failed - failed_before);

        LayerSample sample;
        sample.traced = runRound(options, &sample.probe);
        failed_before = tally.failed;
        tally.check(sample.traced.output, prefix, sla, "traced " + n);
        printRound("traced   " + n, sample.traced, sla,
                   tally.failed - failed_before);
        const std::string diff = compareReports(
            plain.output.report, sample.traced.output.report, sla);
        if (!diff.empty())
            tally.problems.push_back("traced " + n + ": " + diff);
        sample.overheadSeconds =
            sample.traced.timedSeconds - plain.timedSeconds;

        const cli::Scenario shape = cli::assembleScenario(options);
        const std::size_t slices = shape.disagg
            ? shape.decodeInstances
            : std::max<std::size_t>(shape.fleetPerfs.size(), 1);
        sample.replay = replayMemory(
            sample.traced.output.offered, shape.perf.tokenCapacity(),
            shape.engineConfig.blockSize, shape.engineConfig.prefixCache,
            slices, shape.sessionMode ? shape.sessionConfig.turnsPerSession
                                      : 0);
        if (sample.replay.faults != 0) {
            tally.problems.push_back(
                "memory replay " + n + ": " +
                std::to_string(sample.replay.faults) + " faults");
        }
        samples.push_back(std::move(sample));
    }

    // Times: median over pairs. Counts are exact for the first
    // pair's inputs (the run's seed); report those.
    const auto med = [&](auto field) {
        std::vector<double> values;
        for (const LayerSample &s : samples)
            values.push_back(field(s));
        return median(values);
    };
    const LayerSample &first = samples.front();
    const metrics::RunReport &report = first.traced.output.report;
    const Observation &obs = first.traced.output.observation;
    const Probe &probe = first.probe;
    const double steps = static_cast<double>(report.decodeSteps +
                                             report.prefillIterations);
    const auto engine_self = [](const LayerSample &s) {
        return s.traced.layers.engineSelfSeconds;
    };

    MetricSet m;
    m.add("core.rounds", static_cast<double>(probe.rounds), "count");
    m.add("core.round_us_p50", med([](const LayerSample &s) {
              return percentileOf(s.probe.roundMicros, 0.50);
          }),
          "us");
    m.add("core.round_us_p99", med([](const LayerSample &s) {
              return percentileOf(s.probe.roundMicros, 0.99);
          }),
          "us");
    m.add("core.admit_checks", static_cast<double>(probe.admitChecks),
          "count");
    m.add("core.peeks", static_cast<double>(probe.peeks), "count");
    m.add("core.peek_s",
          med([](const LayerSample &s) { return s.probe.peekSeconds; }),
          "s");
    m.add("core.finish_feed_s", med([](const LayerSample &s) {
              return s.probe.finishFeedSeconds;
          }),
          "s");
    m.add("core.victim_orders", static_cast<double>(probe.victimOrders),
          "count");
    m.add("core.self_s",
          med([](const LayerSample &s) { return s.probe.coreSeconds(); }),
          "s");
    m.add("cluster.routes", static_cast<double>(probe.routes), "count");
    m.add("cluster.route_us_p50", med([](const LayerSample &s) {
              return percentileOf(s.probe.routeMicros, 0.50);
          }),
          "us");
    m.add("cluster.route_us_p99", med([](const LayerSample &s) {
              return percentileOf(s.probe.routeMicros, 0.99);
          }),
          "us");
    m.add("cluster.self_s",
          med([](const LayerSample &s) { return s.probe.routeSeconds; }),
          "s");
    m.add("sim.events", static_cast<double>(first.traced.layers.events),
          "count");
    m.add("sim.pending_max",
          static_cast<double>(first.traced.layers.pendingMax), "count");
    m.add("engine.steps", steps, "count");
    m.add("engine.avg_batch", report.avgBatchSize, "req");
    m.add("engine.self_s", med(engine_self), "s");
    m.add("engine.step_us", med([&](const LayerSample &s) {
              return steps > 0 ? 1e6 * engine_self(s) / steps : 0.0;
          }),
          "us");
    m.add("memory.alloc_us_p50", med([](const LayerSample &s) {
              return percentileOf(s.replay.allocMicros, 0.50);
          }),
          "us");
    m.add("memory.alloc_us_p99", med([](const LayerSample &s) {
              return percentileOf(s.replay.allocMicros, 0.99);
          }),
          "us");
    m.add("memory.extend_ns", med([](const LayerSample &s) {
              return s.replay.extendTokens > 0
                  ? 1e9 * s.replay.extendSeconds /
                      static_cast<double>(s.replay.extendTokens)
                  : 0.0;
          }),
          "ns");
    m.add("memory.release_us", med([](const LayerSample &s) {
              return s.replay.releases > 0
                  ? 1e6 * s.replay.releaseSeconds /
                      static_cast<double>(s.replay.releases)
                  : 0.0;
          }),
          "us");
    m.add("memory.self_s",
          med([](const LayerSample &s) { return s.replay.seconds(); }),
          "s");
    m.add("memory.prefix_hit_rate", report.prefixHitRate(), "ratio");
    m.add("memory.evicted_requests",
          static_cast<double>(report.requestsEvicted), "count");
    m.add("metrics.report_s", med([](const LayerSample &s) {
              return s.traced.layers.reportSeconds;
          }),
          "s");
    m.add("disagg.migrations", static_cast<double>(obs.migrations),
          "count");
    m.add("disagg.migrated_gb",
          static_cast<double>(obs.migratedBytes) / 1e9, "GB");
    m.add("workload.gen_s",
          med([](const LayerSample &s) { return s.traced.genSeconds; }),
          "s");
    m.add("traced.overhead_s",
          med([](const LayerSample &s) { return s.overheadSeconds; }),
          "s");
    return m;
}

int
run(int argc, char **argv)
{
    Args args;
    std::string error;
    if (!parseArgs(argc, argv, args, error))
        return usage(error);
    metrics::SlaSpec sla;
    try {
        sla = cli::assembleScenario(roundOptions(args, 0)).sla;
    } catch (const std::invalid_argument &e) {
        return usage(e.what());
    }

    std::cout << "perfbench " << args.workload << " seed "
              << args.seed << " seconds " << args.seconds << " trace "
              << (args.trace ? 1 : 0) << "\n";
    Tally tally;
    const MetricSet metrics = args.trace
        ? tracedRun(args, sla, tally)
        : untracedRun(args, sla, tally);

    for (const std::string &problem : tally.problems)
        std::cout << "CHECK FAILED " << problem << "\n";
    metrics.print(std::cout);
    std::cout << "{\"correct\": "
              << (tally.problems.empty() ? "true" : "false")
              << ", \"attempted\": " << tally.attempted
              << ", \"failed\": " << tally.failed
              << ", \"metrics\": " << metrics.json() << "}"
              << std::endl;
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
