#include "workloads.hh"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "cluster/serving_cluster.hh"
#include "disagg/disagg_cluster.hh"
#include "engine/serving_engine.hh"
#include "workload/arrivals.hh"
#include "workload/session_gen.hh"

namespace perfbench {

using namespace lightllm;

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "engine_sharegpt", "fleet512_vqa", "sessions_prefix",
        "disagg_longdoc"};
    return names;
}

cli::CliOptions
workloadOptions(const std::string &name, std::uint64_t seed)
{
    // CliOptions defaults: past_future, llama2-7b, a100-80g, the 7B
    // SLA, FCFS queue, 16-token blocks, recompute eviction.
    cli::CliOptions options;
    options.seed = seed;
    if (name == "engine_sharegpt") {
        // One engine, open loop just under its sustainable rate:
        // large decode batches, so admission rounds and the
        // per-step prediction audit dominate.
        options.workload = "sharegpt";
        options.requests = 16384;
        options.poissonRate = 5.0;
    } else if (name == "fleet512_vqa") {
        // Per-request work across a wide fleet: the router's scan,
        // a deep shared event heap, 512 engines' footprint.
        options.workload = "textvqa";
        options.requests = 65536;
        options.poissonRate = 8000.0;
        options.instances = 512;
        options.routing = "future-memory";
        options.splitFuse = true;
    } else if (name == "sessions_prefix") {
        // Enough sessions per instance that the prefix cache fills
        // KV memory: shared allocation, cache insert, LRU reclaim.
        // The 30 s think time keeps the running batches inside
        // memory, so no request is evicted: an evicted turn can
        // abort the run in futureRequiredMemory, as can
        // --split-fuse (README, "faults kept out").
        options.sessions = 768;
        options.turns = 8;
        options.thinkSeconds = 30.0;
        options.prefixCache = "on";
        options.instances = 16;
        options.routing = "prefix-affinity";
    } else if (name == "disagg_longdoc") {
        // Every request crosses the disaggregated pipeline: prefill
        // routing, KV migration, handoff, migrated admission.
        options.workload = "trace-longdoc";
        options.requests = 16384;
        options.poissonRate = 0.5;
        options.disagg = true;
        options.prefillInstances = 2;
        options.decodeInstances = 2;
    } else {
        throw std::invalid_argument("unknown workload: " + name);
    }
    return options;
}

bool
expectsPrefixHits(const cli::CliOptions &options)
{
    return options.prefixCache == "on" && options.sessions > 0;
}

namespace {

/** The system under test: one engine, a fleet, or a disagg fleet,
 *  assembled as the scenario runner assembles it. */
class Target
{
  public:
    Target(const cli::Scenario &scenario, Probe *probe)
    {
        const auto make_engine = [&](const model::PerfModel &perf) {
            auto engine = std::make_unique<engine::ServingEngine>(
                perf, makePolicy(scenario.schedulerConfig, probe),
                scenario.engineConfig);
            engines_.push_back(engine.get());
            return engine;
        };
        if (scenario.disagg) {
            std::vector<std::unique_ptr<engine::ServingEngine>> prefill;
            for (std::size_t i = 0; i < scenario.prefillInstances; ++i)
                prefill.push_back(make_engine(scenario.perf));
            std::vector<std::unique_ptr<engine::ServingEngine>> decode;
            for (std::size_t i = 0; i < scenario.decodeInstances; ++i)
                decode.push_back(make_engine(scenario.perf));
            disagg_ = std::make_unique<disagg::DisaggCluster>(
                std::move(prefill), std::move(decode),
                scenario.disaggConfig);
        } else if (scenario.fleetPerfs.empty()) {
            engine_ = make_engine(scenario.perf);
        } else {
            std::vector<std::unique_ptr<engine::ServingEngine>> fleet;
            for (const model::PerfModel &perf : scenario.fleetPerfs)
                fleet.push_back(make_engine(perf));
            fleet_ = std::make_unique<cluster::ServingCluster>(
                std::move(fleet), scenario.routing);
        }
    }

    /** True when a router sits in front of the engines. */
    bool routed() const { return !engine_; }

    workload::RequestSink &
    sink()
    {
        if (engine_)
            return *engine_;
        if (fleet_)
            return *fleet_;
        return *disagg_;
    }

    void
    setOnFinish(engine::ServingEngine::FinishCallback callback)
    {
        if (engine_)
            engine_->setOnFinish(std::move(callback));
        else if (fleet_)
            fleet_->setOnFinish(std::move(callback));
        else
            disagg_->setOnFinish(std::move(callback));
    }

    /** Run to completion; a traced run also fills `layers`. */
    metrics::RunReport
    run(Probe *probe, LayerTimes &layers)
    {
        if (probe == nullptr) {
            if (engine_)
                return engine_->run();
            return fleet_ ? fleet_->run() : disagg_->run();
        }
        const double core_before = probe->coreSeconds();
        if (engine_) {
            // Standalone engine: self-clocked, its private event
            // queue holds only arrivals, so sim.* stay 0. run()
            // builds the report too; time one more build apart.
            Clock::time_point start = Clock::now();
            metrics::RunReport report = engine_->run();
            const double total = secondsBetween(start, Clock::now());
            start = Clock::now();
            (void)engine_->report();
            layers.reportSeconds = secondsBetween(start, Clock::now());
            layers.engineSelfSeconds = total - layers.reportSeconds -
                (probe->coreSeconds() - core_before);
            return report;
        }
        // Fleets: drive the shared context event by event, then let
        // run() (its queue now dry) build the report.
        sim::SimContext &context =
            fleet_ ? fleet_->context() : disagg_->context();
        const double route_before = probe->routeSeconds;
        layers.pendingMax = context.size();
        Clock::time_point start = Clock::now();
        while (context.runNext()) {
            ++layers.events;
            layers.pendingMax =
                std::max(layers.pendingMax, context.size());
        }
        layers.engineSelfSeconds = secondsBetween(start, Clock::now()) -
            (probe->coreSeconds() - core_before) -
            (probe->routeSeconds - route_before);
        start = Clock::now();
        metrics::RunReport report =
            fleet_ ? fleet_->run() : disagg_->run();
        layers.reportSeconds = secondsBetween(start, Clock::now());
        return report;
    }

    Observation
    observe(const Probe *probe) const
    {
        Observation obs;
        for (const engine::ServingEngine *engine : engines_) {
            const memory::KvBlockManager &kv = engine->kvManager();
            obs.liveAllocations += kv.numRequests();
            obs.peakKvRatio = std::max(
                obs.peakKvRatio,
                static_cast<double>(kv.usedTokens()) /
                    static_cast<double>(kv.capacityTokens()));
        }
        if (probe != nullptr)
            obs.peakKvRatio = std::max(obs.peakKvRatio,
                                       probe->peakKvRatio);
        if (disagg_) {
            obs.disaggregated = true;
            obs.migrations = disagg_->migratedRequests();
            obs.migratedBytes = disagg_->migratedKvBytes();
            obs.handoffShed = disagg_->handoffShedRequests();
            for (const metrics::RequestRecord &record :
                 disagg_->decodeReport().requests) {
                obs.decodeIds.push_back(record.id);
            }
        }
        return obs;
    }

  private:
    /** Every engine, owned by one of the three members below. */
    std::vector<engine::ServingEngine *> engines_;
    std::unique_ptr<engine::ServingEngine> engine_;
    std::unique_ptr<cluster::ServingCluster> fleet_;
    std::unique_ptr<disagg::DisaggCluster> disagg_;
};

/** A round's set-up: inputs, system under test, load generator. */
struct Setup
{
    cli::Scenario scenario;
    double genSeconds;
    Target target;
    std::optional<TimedSink> timedSink;
    std::optional<workload::SessionGenerator> sessions;

    /** `start` is when set-up began: scenario assembly draws the
     *  dataset, so it counts as input generation. */
    Setup(const cli::CliOptions &options, Probe *probe,
          Clock::time_point start)
        : scenario(cli::assembleScenario(options)),
          genSeconds(secondsBetween(start, Clock::now())),
          target(scenario, probe)
    {
        workload::RequestSink *sink = &target.sink();
        if (probe != nullptr && target.routed()) {
            timedSink.emplace(*sink, *probe);
            sink = &*timedSink;
        }
        if (scenario.sessionMode) {
            const Clock::time_point gen = Clock::now();
            sessions.emplace(scenario.sessionConfig, *sink);
            genSeconds += secondsBetween(gen, Clock::now());
            target.setOnFinish(
                [this](const workload::RequestSpec &spec, Tick tick) {
                    sessions->onRequestFinished(spec.id, tick);
                });
        }
    }

    // The session generator's finish hook points at this object.
    Setup(const Setup &) = delete;
    Setup &operator=(const Setup &) = delete;

    workload::RequestSink &
    sink()
    {
        if (timedSink)
            return *timedSink;
        return target.sink();
    }

    /** First submissions: the first turn of every session, or the
     *  whole open-loop arrival schedule. */
    void
    start()
    {
        if (sessions) {
            sessions->start();
        } else {
            workload::submitPoissonArrivals(scenario.dataset, sink(),
                                            scenario.poissonRate,
                                            scenario.seed);
        }
    }

    /** Every request offered, as generated. */
    std::vector<workload::RequestSpec>
    offered()
    {
        if (!sessions)
            return std::move(scenario.dataset.requests);
        std::vector<workload::RequestSpec> specs;
        const workload::SessionWorkloadConfig &config =
            sessions->config();
        for (std::size_t s = 0; s < config.numSessions; ++s) {
            for (std::size_t t = 0; t < config.turnsPerSession; ++t)
                specs.push_back(sessions->turnSpec(s, t));
        }
        return specs;
    }
};

} // namespace

Round
runRound(const cli::CliOptions &options, Probe *probe)
{
    Round round;
    const Clock::time_point start = Clock::now();
    Setup setup(options, probe, start);
    const Clock::time_point ready = Clock::now();
    round.genSeconds = setup.genSeconds;
    round.setupSeconds = secondsBetween(start, ready);

    setup.start();
    round.output.report = setup.target.run(probe, round.layers);
    round.timedSeconds = secondsBetween(ready, Clock::now());

    round.output.offered = setup.offered();
    round.output.observation = setup.target.observe(probe);
    return round;
}

double
setupOnly(const cli::CliOptions &options)
{
    const Clock::time_point start = Clock::now();
    Setup setup(options, nullptr, start);
    return secondsBetween(start, Clock::now());
}

} // namespace perfbench
