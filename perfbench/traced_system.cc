#include "traced_system.hh"

#include <algorithm>
#include <stdexcept>

#include "trace/workload_profile.hh"

namespace nuat::perfbench {

const char *
layerName(Layer layer)
{
    switch (layer) {
      case Layer::kRun: return "sim.run";
      case Layer::kTrace: return "trace.next";
      case Layer::kCpu: return "cpu";
      case Layer::kPort: return "mem.port";
      case Layer::kCtrl: return "mem.ctrl";
      case Layer::kSchedTick: return "sched.tick";
      case Layer::kSchedPick: return "sched.pick";
      case Layer::kSchedIssue: return "sched.on_issue";
      case Layer::kAudit: return "verify.audit";
      case Layer::kFastForward: return "sim.ff";
    }
    return "?";
}

void
SpanTracer::writeSpans(std::ostream &out) const
{
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "{\"id\":" << i << ",\"name\":\"" << layerName(s.layer)
            << "\",\"start_ns\":" << s.start << ",\"end_ns\":" << s.end
            << ",\"parent\":" << s.parent << "}\n";
    }
}

TracedSystem::TracedSystem(const ExperimentConfig &cfg,
                           SpanTracer &tracer)
    : cfg_(cfg), tracer_(tracer)
{
    cfg_.validate();
    if (cfg_.faultsEnabled() || cfg_.metricsEnabled() ||
        !cfg_.dumpTracePath.empty() || cfg_.audit)
        throw std::invalid_argument(
            "TracedSystem supports plain runs only");

    const CellModel cell(cfg_.charge);
    const SenseAmpModel sense_amp(cell);
    NominalTiming nominal;
    nominal.trcd = cfg_.timing.tRCD;
    nominal.tras = cfg_.timing.tRAS;
    nominal.trp = cfg_.timing.tRP;
    derate_ = std::make_unique<TimingDerate>(sense_amp, nominal,
                                             cfg_.memClock());

    const unsigned channels = cfg_.geometry.channels;
    DramGeometry chan_geom = cfg_.geometry;
    chan_geom.channels = 1;
    ControllerConfig ctrl_cfg = cfg_.controller;
    ctrl_cfg.channels = channels;

    std::vector<MemoryController *> ports;
    for (unsigned ch = 0; ch < channels; ++ch) {
        devices_.push_back(std::make_unique<DramDevice>(
            chan_geom, cfg_.timing, *derate_, cfg_.memClock()));
        auto sched = std::make_unique<TimedScheduler>(
            makeSchedulerFor(cfg_, *derate_), tracer_);
        schedulers_.push_back(sched.get());
        controllers_.push_back(std::make_unique<MemoryController>(
            *devices_.back(), std::move(sched), ctrl_cfg));
        ports.push_back(controllers_.back().get());

        counters_.push_back(std::make_unique<CommandCounter>());
        devices_.back()->addObserver(counters_.back().get());

        AuditorConfig acfg;
        acfg.geometry = chan_geom;
        acfg.timing = cfg_.timing;
        acfg.clock = cfg_.memClock();
        acfg.derate = derate_.get();
        acfg.maxMessages = cfg_.auditMaxMessages;
        auditors_.push_back(std::make_unique<ProtocolAuditor>(acfg));
        observers_.push_back(
            std::make_unique<TimedObserver>(*auditors_.back(), tracer_));
        devices_.back()->addObserver(observers_.back().get());
    }
    mux_ = std::make_unique<ChannelMux>(
        AddressMapping(cfg_.controller.mapping, cfg_.geometry), ports);
    port_ = std::make_unique<TimedPort>(*mux_, tracer_);

    const unsigned cores = cfg_.cores();
    const std::uint32_t stride = cfg_.geometry.rows / cores;
    for (unsigned i = 0; i < cores; ++i) {
        WorkloadProfile profile =
            WorkloadProfile::byName(cfg_.workloads[i]);
        profile.avgGap *= cfg_.gapScale;
        profile.interBurstGap *= cfg_.gapScale;
        traces_.push_back(std::make_unique<SyntheticTrace>(
            profile, cfg_.geometry, cfg_.seed + i * 7919,
            cfg_.memOpsPerCore, (i * stride) % cfg_.geometry.rows));
        timedTraces_.push_back(
            std::make_unique<TimedTrace>(*traces_.back(), tracer_));
        cores_.push_back(std::make_unique<CoreModel>(
            static_cast<int>(i), *timedTraces_.back(), *port_,
            cfg_.rob, cfg_.cpuPerMem));
    }

    for (auto &mc : controllers_) {
        mc->setReadCallback(
            [this](const Waiter &w, Addr, Cycle data_at) {
                Scope s(tracer_, Layer::kCpu);
                cores_[static_cast<std::size_t>(w.coreId)]
                    ->onReadComplete(
                        w.token,
                        static_cast<CpuCycle>(data_at) * cfg_.cpuPerMem);
            });
    }
}

void
TracedSystem::step()
{
    for (auto &mc : controllers_) {
        Scope s(tracer_, Layer::kCtrl);
        mc->tick(now_);
    }
    // One span for every core tick of the cycle: a span per tick
    // would cost more than many of the ticks it measures.
    Scope s(tracer_, Layer::kCpu);
    const CpuCycle base = static_cast<CpuCycle>(now_) * cfg_.cpuPerMem;
    for (unsigned k = 0; k < cfg_.cpuPerMem; ++k) {
        for (auto &core : cores_)
            core->tick(base + k);
    }
    ++now_;
}

void
TracedSystem::fastForwardIdle()
{
    // Same rule as System (the caller checked the queues are empty):
    // skip to the earliest completion, refresh deadline or core wake-up.
    Cycle target = cfg_.maxMemCycles;
    for (const auto &mc : controllers_)
        target = std::min(target, mc->nextCompletionAt());
    for (const auto &dev : devices_) {
        for (unsigned r = 0; r < dev->geometry().ranks; ++r)
            target = std::min(target, dev->nextRefreshDueAt(RankId{r}));
    }
    const CpuCycle cpu_now = static_cast<CpuCycle>(now_) * cfg_.cpuPerMem;
    for (const auto &core : cores_) {
        const CpuCycle busy = core->nextBusyAt(cpu_now);
        if (busy != kNeverCycle)
            target = std::min(target,
                              static_cast<Cycle>(busy / cfg_.cpuPerMem));
    }
    if (target <= now_)
        return;

    const Cycle skipped = target - now_;
    for (auto &mc : controllers_)
        mc->skipIdle(now_, skipped);
    for (auto &core : cores_)
        core->skipStalled(static_cast<CpuCycle>(skipped) *
                          cfg_.cpuPerMem);
    idleCyclesSkipped_ += skipped;
    now_ = target;
}

bool
TracedSystem::queuesEmpty() const
{
    for (const auto &mc : controllers_) {
        if (mc->readQueueLen() != 0 || mc->writeQueueLen() != 0)
            return false;
    }
    return true;
}

bool
TracedSystem::done() const
{
    for (const auto &core : cores_) {
        if (!core->done())
            return false;
    }
    for (const auto &mc : controllers_) {
        if (!mc->idle())
            return false;
    }
    return true;
}

bool
TracedSystem::allCoresDone() const
{
    for (const auto &core : cores_) {
        if (!core->done())
            return false;
    }
    return true;
}

namespace {

/** ControllerStats merge, as System::run aggregates channels. */
void
mergeStats(ControllerStats &into, const ControllerStats &from)
{
    into.readsAccepted += from.readsAccepted;
    into.writesAccepted += from.writesAccepted;
    into.readsMerged += from.readsMerged;
    into.readsForwarded += from.readsForwarded;
    into.writesCoalesced += from.writesCoalesced;
    into.readsCompleted += from.readsCompleted;
    into.readLatencySum += from.readLatencySum;
    into.rowHitReads += from.rowHitReads;
    into.rowHitWrites += from.rowHitWrites;
    into.idleCycles += from.idleCycles;
    into.tickCycles += from.tickCycles;
    into.readLatencyHist.merge(from.readLatencyHist);
    into.readQOccupancySum += from.readQOccupancySum;
    into.writeQOccupancySum += from.writeQOccupancySum;
}

/** DeviceCounters merge, as System::run aggregates channels. */
void
mergeCounters(DeviceCounters &into, const DeviceCounters &from)
{
    into.acts += from.acts;
    into.pres += from.pres;
    into.reads += from.reads;
    into.writes += from.writes;
    into.autoPres += from.autoPres;
    into.refreshes += from.refreshes;
    into.marginViolations += from.marginViolations;
    for (std::size_t i = 0; i < 16; ++i)
        into.actsByTrcdReduction[i] += from.actsByTrcdReduction[i];
}

} // namespace

RunResult
TracedSystem::run()
{
    // Building the cores already pulled their first trace records;
    // measure the run alone.
    tracer_.clear();
    {
        Scope root(tracer_, Layer::kRun);
        while (!done() && now_ < cfg_.maxMemCycles) {
            // Only an empty system can be skipped; the span covers the
            // idle-skip calls, not this cheap test.
            if (cfg_.idleFastForward && queuesEmpty()) {
                Scope ff(tracer_, Layer::kFastForward);
                fastForwardIdle();
            }
            if (now_ < cfg_.maxMemCycles)
                step();
        }
    }

    RunResult result;
    result.schedulerName = schedulerKindName(cfg_.scheduler);
    result.workloads = cfg_.workloads;
    result.memCycles = now_;
    result.hitCycleCap = !done();
    result.busMhz = cfg_.busMhz;
    result.idleCyclesSkipped = idleCyclesSkipped_;
    for (std::size_t ch = 0; ch < controllers_.size(); ++ch) {
        mergeStats(result.ctrl, controllers_[ch]->stats());
        mergeCounters(result.dev, devices_[ch]->counters());
        controllers_[ch]->scheduler().reportExtra(result);
    }
    const double cols =
        static_cast<double>(result.dev.reads + result.dev.writes);
    const double hits = cols - static_cast<double>(result.dev.acts);
    result.hitRateEq3 = cols > 0.0 && hits > 0.0 ? hits / cols : 0.0;
    const DramPowerModel power(cfg_.timing, cfg_.memClock());
    result.energy = power.estimate(result.dev, now_);
    for (const auto &core : cores_) {
        result.coreFinish.push_back(core->stats().finishedAt);
        result.coreInstrs.push_back(core->stats().instrsRetired);
    }
    return result;
}

std::uint64_t
TracedSystem::auditViolations() const
{
    std::uint64_t n = 0;
    for (const auto &a : auditors_)
        n += a->violationCount();
    return n;
}

std::uint64_t
TracedSystem::schedCandidates() const
{
    std::uint64_t n = 0;
    for (const TimedScheduler *s : schedulers_)
        n += s->candidates();
    return n;
}

std::uint64_t
TracedSystem::commands(CmdType type) const
{
    std::uint64_t n = 0;
    for (const auto &c : counters_)
        n += c->count(type);
    return n;
}

std::uint64_t
TracedSystem::commandsTotal() const
{
    std::uint64_t n = 0;
    for (const auto &c : counters_)
        n += c->total();
    return n;
}

} // namespace nuat::perfbench
