/**
 * @file
 * Host-time spans around the simulator's layer boundaries, recorded
 * from outside the simulator: every wrapper here implements one of the
 * public seams (TraceSource, MemoryPort, Scheduler, CommandObserver)
 * and forwards to the real object inside a span.
 *
 * A span has a layer name, a start, an end and a parent.  Self time is
 * a span's duration minus the time its child spans cover; it is
 * accumulated per layer for the whole traced run, while the raw spans
 * are kept only for a bounded window (the first kSpanWindow spans) and
 * written out when the run ends.
 */

#ifndef NUAT_PERFBENCH_LAYER_TRACE_HH
#define NUAT_PERFBENCH_LAYER_TRACE_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <vector>

#include "cpu/trace.hh"
#include "dram/command_observer.hh"
#include "mem/memory_port.hh"
#include "mem/scheduler.hh"

namespace nuat::perfbench {

/** The layers a span can belong to. */
enum class Layer : std::uint8_t
{
    kRun,        //!< the whole traced simulation loop (root)
    kTrace,      //!< TraceSource::next
    kCpu,        //!< CoreModel::tick and onReadComplete
    kPort,       //!< MemoryPort calls (ChannelMux -> controller)
    kCtrl,       //!< MemoryController::tick
    kSchedTick,  //!< Scheduler::tick
    kSchedPick,  //!< Scheduler::pick
    kSchedIssue, //!< Scheduler::onIssue
    kAudit,      //!< ProtocolAuditor::onCommand
    kFastForward, //!< the idle-skip calls
};

inline constexpr std::size_t kNumLayers = 10;

/** Span name of @p layer, as written to the span file. */
const char *layerName(Layer layer);

/** Spans kept verbatim per traced run. */
inline constexpr std::size_t kSpanWindow = std::size_t{1} << 18;

/** Nested span recorder; one per traced run, single-threaded. */
class SpanTracer
{
  public:
    struct Span
    {
        std::int64_t start = 0; //!< ns since the tracer was built
        std::int64_t end = 0;
        std::int32_t parent = -1; //!< index into spans(), -1 = none
        Layer layer = Layer::kRun;
    };

    SpanTracer() : epoch_(Clock::now()) {}

    /** Drop everything recorded so far (e.g. spans taken while the
     *  traced stack was being built). */
    void
    clear()
    {
        self_ = {};
        calls_ = {};
        spans_.clear();
    }

    void
    enter(Layer layer)
    {
        Frame &f = stack_[depth_++];
        f.layer = layer;
        f.child = 0;
        f.span = -1;
        if (spans_.size() < kSpanWindow) {
            f.span = static_cast<std::int32_t>(spans_.size());
            Span s;
            s.layer = layer;
            s.parent = depth_ > 1 ? stack_[depth_ - 2].span : -1;
            spans_.push_back(s);
        }
        f.start = nowNs();
        if (f.span >= 0)
            spans_[static_cast<std::size_t>(f.span)].start = f.start;
    }

    void
    exit()
    {
        const std::int64_t end = nowNs();
        const Frame &f = stack_[--depth_];
        const std::int64_t dur = end - f.start;
        const auto l = static_cast<std::size_t>(f.layer);
        self_[l] += dur - f.child;
        ++calls_[l];
        if (depth_ > 0)
            stack_[depth_ - 1].child += dur;
        if (f.span >= 0)
            spans_[static_cast<std::size_t>(f.span)].end = end;
    }

    /** Self time of @p layer over the whole run [s]. */
    double
    selfSeconds(Layer layer) const
    {
        return static_cast<double>(
                   self_[static_cast<std::size_t>(layer)]) *
               1e-9;
    }

    /** Self time of every layer together: the root spans' wall time
     *  once they are closed [s]. */
    double
    totalSeconds() const
    {
        std::int64_t ns = 0;
        for (const std::int64_t v : self_)
            ns += v;
        return static_cast<double>(ns) * 1e-9;
    }

    /** Spans of @p layer closed so far. */
    std::uint64_t
    calls(Layer layer) const
    {
        return calls_[static_cast<std::size_t>(layer)];
    }

    /** Write the window as JSON Lines: id, name, start, end, parent. */
    void writeSpans(std::ostream &out) const;

  private:
    using Clock = std::chrono::steady_clock;

    struct Frame
    {
        std::int64_t start = 0;
        std::int64_t child = 0; //!< time covered by child spans
        std::int32_t span = -1;
        Layer layer = Layer::kRun;
    };

    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
            .count();
    }

    Clock::time_point epoch_;
    std::array<Frame, 16> stack_{};
    std::size_t depth_ = 0;
    std::array<std::int64_t, kNumLayers> self_{};
    std::array<std::uint64_t, kNumLayers> calls_{};
    std::vector<Span> spans_;
};

/** RAII span. */
class Scope
{
  public:
    Scope(SpanTracer &tracer, Layer layer) : tracer_(tracer)
    {
        tracer_.enter(layer);
    }
    ~Scope() { tracer_.exit(); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanTracer &tracer_;
};

/** TraceSource wrapper: spans every next(). */
class TimedTrace : public TraceSource
{
  public:
    TimedTrace(TraceSource &inner, SpanTracer &tracer)
        : inner_(inner), tracer_(tracer)
    {
    }

    bool
    next(TraceEntry &out) override
    {
        Scope s(tracer_, Layer::kTrace);
        return inner_.next(out);
    }
    void reset() override { inner_.reset(); }
    const char *name() const override { return inner_.name(); }

  private:
    TraceSource &inner_;
    SpanTracer &tracer_;
};

/** MemoryPort wrapper: spans every call, counts refused requests. */
class TimedPort : public MemoryPort
{
  public:
    TimedPort(MemoryPort &inner, SpanTracer &tracer)
        : inner_(inner), tracer_(tracer)
    {
    }

    bool
    canAcceptRead(Addr addr) const override
    {
        Scope s(tracer_, Layer::kPort);
        return count(inner_.canAcceptRead(addr));
    }
    bool
    canAcceptWrite(Addr addr) const override
    {
        Scope s(tracer_, Layer::kPort);
        return count(inner_.canAcceptWrite(addr));
    }
    void
    enqueueRead(Addr addr, const Waiter &waiter, Cycle now) override
    {
        Scope s(tracer_, Layer::kPort);
        inner_.enqueueRead(addr, waiter, now);
    }
    void
    enqueueWrite(Addr addr, Cycle now) override
    {
        Scope s(tracer_, Layer::kPort);
        inner_.enqueueWrite(addr, now);
    }

    /** canAccept* calls, and those that answered false. */
    std::uint64_t acceptCalls() const { return acceptCalls_; }
    std::uint64_t rejects() const { return rejects_; }

  private:
    bool
    count(bool ok) const
    {
        ++acceptCalls_;
        rejects_ += ok ? 0 : 1;
        return ok;
    }

    MemoryPort &inner_;
    SpanTracer &tracer_;
    mutable std::uint64_t acceptCalls_ = 0;
    mutable std::uint64_t rejects_ = 0;
};

/** Scheduler wrapper: spans tick/pick/onIssue, counts candidates. */
class TimedScheduler : public Scheduler
{
  public:
    TimedScheduler(std::unique_ptr<Scheduler> inner, SpanTracer &tracer)
        : inner_(std::move(inner)), tracer_(tracer)
    {
    }

    int
    pick(std::vector<Candidate> &candidates,
         const SchedContext &ctx) override
    {
        Scope s(tracer_, Layer::kSchedPick);
        candidates_ += candidates.size();
        return inner_->pick(candidates, ctx);
    }
    void
    onIssue(const Command &cmd, const SchedContext &ctx) override
    {
        Scope s(tracer_, Layer::kSchedIssue);
        inner_->onIssue(cmd, ctx);
    }
    void
    tick(const SchedContext &ctx) override
    {
        Scope s(tracer_, Layer::kSchedTick);
        inner_->tick(ctx);
    }
    void
    fastForward(Cycle cycles, const SchedContext &ctx) override
    {
        inner_->fastForward(cycles, ctx);
    }
    void
    reportExtra(RunResult &result) const override
    {
        inner_->reportExtra(result);
    }
    const char *name() const override { return inner_->name(); }

    /** Candidates offered to pick() in total. */
    std::uint64_t candidates() const { return candidates_; }

  private:
    std::unique_ptr<Scheduler> inner_;
    SpanTracer &tracer_;
    std::uint64_t candidates_ = 0;
};

/** CommandObserver wrapper: spans every onCommand of the auditor. */
class TimedObserver : public CommandObserver
{
  public:
    TimedObserver(CommandObserver &inner, SpanTracer &tracer)
        : inner_(inner), tracer_(tracer)
    {
    }

    void
    onCommand(const Command &cmd, Cycle now) override
    {
        Scope s(tracer_, Layer::kAudit);
        inner_.onCommand(cmd, now);
    }

  private:
    CommandObserver &inner_;
    SpanTracer &tracer_;
};

/** Counts the device's issued commands by type. */
class CommandCounter : public CommandObserver
{
  public:
    void
    onCommand(const Command &cmd, Cycle now) override
    {
        (void)now;
        ++byType_[static_cast<std::size_t>(cmd.type)];
    }

    std::uint64_t
    count(CmdType type) const
    {
        return byType_[static_cast<std::size_t>(type)];
    }

    std::uint64_t
    total() const
    {
        std::uint64_t n = 0;
        for (const std::uint64_t c : byType_)
            n += c;
        return n;
    }

  private:
    std::array<std::uint64_t, 8> byType_{};
};

} // namespace nuat::perfbench

#endif // NUAT_PERFBENCH_LAYER_TRACE_HH
