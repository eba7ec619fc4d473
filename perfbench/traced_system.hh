/**
 * @file
 * A System rebuilt from the simulator's public parts with a span
 * wrapper on every layer seam, so one run splits host time across the
 * trace, cpu, mem, sched, verify and fast-forward layers.
 *
 * The wiring mirrors System's constructor and run loop step for step;
 * the benchmark checks that run() returns a RunResult whose canonical
 * JSON is byte-identical to System::run on the same config.  Only the
 * features the benchmark's workloads use are supported: no fault
 * injection, metric streams or command-trace dump.
 */

#ifndef NUAT_PERFBENCH_TRACED_SYSTEM_HH
#define NUAT_PERFBENCH_TRACED_SYSTEM_HH

#include <memory>
#include <vector>

#include "layer_trace.hh"
#include "sim/system.hh"

namespace nuat::perfbench {

/** System twin whose layers report into a SpanTracer. */
class TracedSystem
{
  public:
    /** Build the stack; a ProtocolAuditor rides on every channel. */
    TracedSystem(const ExperimentConfig &cfg, SpanTracer &tracer);

    /** Run to completion under a root span (audit fields left unset,
     *  as in an unaudited System::run). */
    RunResult run();

    /** Violations the auditors flagged. */
    std::uint64_t auditViolations() const;

    /** True when every core finished its trace. */
    bool allCoresDone() const;

    /** canAccept* calls at the core/memory boundary, and refusals. */
    std::uint64_t portAcceptCalls() const { return port_->acceptCalls(); }
    std::uint64_t portRejects() const { return port_->rejects(); }

    /** Candidates offered to the schedulers' pick() in total. */
    std::uint64_t schedCandidates() const;

    /** Issued DRAM commands of @p type over every channel. */
    std::uint64_t commands(CmdType type) const;
    std::uint64_t commandsTotal() const;

  private:
    void step();
    bool queuesEmpty() const;
    void fastForwardIdle();
    bool done() const;

    ExperimentConfig cfg_;
    SpanTracer &tracer_;
    std::unique_ptr<TimingDerate> derate_;
    std::vector<std::unique_ptr<DramDevice>> devices_;
    std::vector<TimedScheduler *> schedulers_;
    std::vector<std::unique_ptr<MemoryController>> controllers_;
    std::unique_ptr<ChannelMux> mux_;
    std::unique_ptr<TimedPort> port_;
    std::vector<std::unique_ptr<ProtocolAuditor>> auditors_;
    std::vector<std::unique_ptr<CommandCounter>> counters_;
    std::vector<std::unique_ptr<TimedObserver>> observers_;
    std::vector<std::unique_ptr<SyntheticTrace>> traces_;
    std::vector<std::unique_ptr<TimedTrace>> timedTraces_;
    std::vector<std::unique_ptr<CoreModel>> cores_;
    Cycle now_ = 0;
    Cycle idleCyclesSkipped_ = 0;
};

} // namespace nuat::perfbench

#endif // NUAT_PERFBENCH_TRACED_SYSTEM_HH
