/**
 * @file
 * The memory controller: queues, refresh forcing, candidate
 * enumeration, and command issue.
 *
 * The controller is policy-free: all prioritization lives in the
 * attached Scheduler.  The controller is responsible for
 *  - accepting reads/writes (with line merging, write coalescing, and
 *    read-from-write-queue forwarding),
 *  - enumerating the legal candidate commands each cycle,
 *  - forcing refresh when a rank's REF deadline arrives (draining open
 *    banks with priority PREs, then issuing REF),
 *  - issuing the scheduler's choice and retiring requests,
 *  - latency / hit-rate accounting.
 */

#ifndef NUAT_MEM_MEMORY_CONTROLLER_HH
#define NUAT_MEM_MEMORY_CONTROLLER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "address_mapping.hh"
#include "common/stats.hh"
#include "common/thread_annotations.hh"
#include "common/types.hh"
#include "dram/dram_device.hh"
#include "memory_port.hh"
#include "refresh_policy.hh"
#include "request.hh"
#include "request_store.hh"
#include "scheduler.hh"

namespace nuat {

class MetricRegistry;

/** Controller configuration (paper Table 3 defaults). */
struct ControllerConfig
{
    std::size_t readQueueCapacity = 64;
    std::size_t writeQueueCapacity = 64;
    unsigned writeQueueHighWatermark = 40;
    unsigned writeQueueLowWatermark = 20;
    MappingScheme mapping = MappingScheme::kOpenPageBaseline;

    /**
     * Total channels in the system (for address decoding).  The
     * controller still drives exactly one channel; this only tells its
     * mapping how many channel-select bits sit in the address.
     */
    unsigned channels = 1;

    /**
     * Cycles to return data for a read forwarded from the write queue
     * (an SRAM lookup inside the controller, not a DRAM access).
     */
    Cycle forwardLatency = 2;

    /**
     * When the controller retires per-bank refresh within the JEDEC
     * pull-in/postponement window (see refresh_policy.hh).  Ignored —
     * effectively kInOrder — under RefreshMode::kAllBank.
     */
    RefreshPolicy refreshPolicy = RefreshPolicy::kInOrder;
};

/** Aggregate controller statistics. */
struct ControllerStats
{
    std::uint64_t readsAccepted = 0;
    std::uint64_t writesAccepted = 0;
    std::uint64_t readsMerged = 0;    //!< merged onto a pending read
    std::uint64_t readsForwarded = 0; //!< served from the write queue
    std::uint64_t writesCoalesced = 0;

    std::uint64_t readsCompleted = 0;
    double readLatencySum = 0.0; //!< enqueue -> last data beat [cycles]
    std::uint64_t rowHitReads = 0;
    std::uint64_t rowHitWrites = 0;

    /** Read-latency distribution [cycles]; 8-cycle buckets to 2048,
     *  then overflow.  Feeds the p95/p99 tail metrics. */
    Histogram readLatencyHist{0.0, 8.0, 256};

    /** Latency percentile helper (fraction in [0, 1]). */
    double
    readLatencyPercentile(double fraction) const
    {
        return readLatencyHist.percentile(fraction);
    }

    std::uint64_t idleCycles = 0; //!< cycles with no issuable choice
    std::uint64_t tickCycles = 0; //!< total controller ticks
    double readQOccupancySum = 0.0;  //!< sum of per-cycle RQ length
    double writeQOccupancySum = 0.0; //!< sum of per-cycle WQ length

    /** Mean read-queue occupancy over the run. */
    double avgReadQOccupancy() const
    {
        return tickCycles
                   ? readQOccupancySum / static_cast<double>(tickCycles)
                   : 0.0;
    }

    /** Mean write-queue occupancy over the run. */
    double avgWriteQOccupancy() const
    {
        return tickCycles
                   ? writeQOccupancySum /
                         static_cast<double>(tickCycles)
                   : 0.0;
    }

    /** Average read latency in memory cycles. */
    double avgReadLatency() const
    {
        return readsCompleted
                   ? readLatencySum /
                         static_cast<double>(readsCompleted)
                   : 0.0;
    }
};

/** One DDR3 channel controller. */
class MemoryController : public MemoryPort
{
  public:
    /** Callback invoked for every waiter when read data returns. */
    using ReadCallback =
        std::function<void(const Waiter &, Addr addr, Cycle data_at)>;

    /**
     * @param dev       the channel's device model (not owned)
     * @param scheduler the command-selection policy (owned)
     * @param config    queue sizes, watermarks, mapping
     */
    MemoryController(DramDevice &dev,
                     std::unique_ptr<Scheduler> scheduler,
                     const ControllerConfig &config = ControllerConfig{});

    ~MemoryController(); // out-of-line: CtrlMetrics is incomplete here

    /** Install the read-completion callback. */
    void setReadCallback(ReadCallback cb) { readCallback_ = std::move(cb); }

    /**
     * Register this controller's metrics (command counts, queue
     * occupancy, read-latency histogram) under "ctrl<channel>." and
     * forward to the scheduler as "sched<channel>.".  Observation-only:
     * attaching changes no scheduling decision or statistic.  Call at
     * most once, before the first tick; @p registry must outlive the
     * controller's last tick.
     */
    void attachMetrics(MetricRegistry &registry, unsigned channel);

    /** True when a read for @p addr can be accepted this cycle. */
    bool canAcceptRead(Addr addr) const override;

    /** True when a write for @p addr can be accepted this cycle. */
    bool canAcceptWrite(Addr addr) const override;

    /**
     * Enqueue a read of the line containing @p addr.
     * The caller must have checked canAcceptRead.
     * @param waiter identifies the consumer for the completion callback
     * @param now    current memory cycle
     */
    void enqueueRead(Addr addr, const Waiter &waiter,
                     Cycle now) override;

    /** Enqueue a write of the line containing @p addr. */
    void enqueueWrite(Addr addr, Cycle now) override;

    /** Advance one memory cycle: maybe issue one command. */
    void tick(Cycle now);

    /**
     * Account @p cycles ticks starting at @p now during which this
     * controller provably does nothing: both queues empty, no refresh
     * due and no in-flight completion before now + cycles (the caller
     * guarantees the latter two by capping the span).  Updates the
     * per-cycle counters and the scheduler's cycle-driven state exactly
     * as that many real ticks would.
     */
    void skipIdle(Cycle now, Cycle cycles);

    /** Earliest in-flight read completion, or kNeverCycle. */
    Cycle nextCompletionAt() const;

    /** True when no request (queued or in flight) remains. */
    bool idle() const;

    /**
     * Ticks before this cycle skip candidate enumeration: the last
     * enumeration, or the issue that followed it, bounded every bank's
     * earliest legal command at or after this cycle, and nothing since
     * can have made one legal earlier (see DESIGN.md, "Controller
     * tick").  0 when the next tick enumerates.
     */
    Cycle wakeAt() const { return wakeAt_; }

    /** Queue occupancies. */
    std::size_t readQueueLen() const { return store_.size(false); }
    std::size_t writeQueueLen() const { return store_.size(true); }

    /** Aggregate statistics. */
    const ControllerStats &stats() const { return stats_; }

    /** The device this controller drives. */
    const DramDevice &device() const { return dev_; }

    /** The attached scheduler. */
    const Scheduler &scheduler() const { return *scheduler_; }

    /** The address mapping in use. */
    const AddressMapping &mapping() const { return mapping_; }

    /**
     * Row-buffer hit rate per the paper's equation (3):
     * (#column accesses - #activations) / #column accesses.
     */
    double hitRateEq3() const;

  private:
    /** A read whose data is still in flight from the device. */
    struct PendingCompletion
    {
        Cycle dataAt;
        Addr addr;
        std::vector<Waiter> waiters;
    };

    Addr lineAddr(Addr addr) const;
    SchedContext makeContext(Cycle now) const;

    /** Deliver finished reads whose data has arrived by @p now. */
    void processCompletions(Cycle now);

    /** Start tracking a read of @p line whose data arrives at
     *  @p data_at; its waiters are empty. */
    PendingCompletion &addCompletion(Cycle data_at, Addr line);

    /** The reads in flight. */
    std::span<PendingCompletion>
    inFlight()
    {
        return {inFlight_.data(), inFlightLen_};
    }
    std::span<const PendingCompletion>
    inFlight() const
    {
        return {inFlight_.data(), inFlightLen_};
    }

    /** Try to advance a due refresh; true if a command slot was used
     *  (or must stay reserved) for refresh this cycle.  Reads the
     *  cached verdicts (refreshVerdicts must have run this tick). */
    bool handleRefresh(Cycle now);

    /** handleRefresh body for per-bank (REFsb) mode: drains and
     *  refreshes only the due bank, leaving the rest of the rank
     *  schedulable. */
    bool handlePerBankRefresh(Cycle now);

    /**
     * The per-bank refresh policy's verdict: does (rank, bank) owe a
     * refresh at @p now?  kInOrder answers the nominal deadline
     * (RefreshEngine::due); DARP/SARP defer a due refresh while the
     * bank has queued demand (until the postponement deadline nears)
     * and pull one forward when the bank is idle but the controller is
     * busy elsewhere.  This is the single definition of the policy;
     * handleRefresh and enumerate read it through the per-bank cache
     * that refreshVerdicts fills, so a bank that owes a refresh
     * quiesces and one that doesn't keeps serving.
     */
    bool wantRefresh(RankId rank, BankId bank, Cycle now) const;

    /** True when (rank, bank)'s postponement window is nearly spent
     *  and its refresh can no longer be deferred. */
    bool refreshForced(RankId rank, BankId bank, Cycle now) const;

    /**
     * Bring the cached refresh verdicts up to date for @p now.  A
     * verdict is a function of the cycle's position against the
     * engine's thresholds (nextDueAt; under DARP/SARP also
     * deadlineAt - forceMargin_ and earliestIssueAt), of whether the
     * bank has queued demand and of whether both queues are empty.  So
     * every bank is refilled once the cycle reaches the earliest
     * threshold still ahead or after a REF/REFsb issues, and a single
     * bank is refilled after a queue change flips its demand; between
     * those events the cache is exact.
     */
    void refreshVerdicts(Cycle now);

    /** Recompute (rank, bank)'s verdict into its slot at @p now. */
    void fillVerdict(RankId rank, BankId bank, Cycle now);

    /** Record that a request for (rank, bank) entered or left a queue
     *  (an input to the DARP/SARP verdicts). */
    void noteDemandChange(RankId rank, BankId bank);

    /** Debug builds: panic unless every cached verdict equals a fresh
     *  wantRefresh()/refreshForced() at @p now. */
    void checkVerdicts(Cycle now) const;

    /** Try to advance (rank, bank)'s refresh: REFsb if legal, else a
     *  forced PRE on its open row.  True if a command was issued. */
    bool tryRefreshBank(RankId rank, BankId bank, Cycle now);

    /** Issue a PRE that drains (rank, bank) for refresh, if legal. */
    bool tryForcedPre(RankId rank, BankId bank, Cycle now);

    /**
     * Enumerate all legal candidates at @p now into @p out, in queue
     * order (read queue by arrival, then write queue by arrival), and
     * set wakeAt_.  Walks only banks whose readyAt has come.
     */
    void enumerate(Cycle now, std::vector<Candidate> &out);

    /** Command kinds a queued request can need next. */
    enum LegalKind : std::uint8_t
    {
        kLegalAct,
        kLegalRead,
        kLegalWrite,
        kLegalPre,
        kLegalKinds,
    };

    /** The kind of command @p req needs next, from its bank's state. */
    LegalKind kindFor(const Request &req) const;

    /** The command of @p kind that advances @p req. */
    Command commandFor(const Request &req, LegalKind kind) const;

    /** Add @p req's candidate at @p now to @p out, if it has a legal
     *  one; reads and fills its bank's walk memo. */
    void walkRequest(Request &req, Cycle now, std::vector<Candidate> &out);

    /**
     * Debug builds: panic unless @p cands (this tick's candidates; empty
     * on a tick the wake skipped) equals what a walk of both queues in
     * order finds at @p now — same commands, requests and order.
     */
    void checkWalk(Cycle now, const std::vector<Candidate> &cands);

    /** Issue @p cmd and tell the scheduler.  Every command the
     *  controller sends goes through here. */
    IssueResult issueCommand(const Command &cmd, Cycle now);

    /**
     * Issue a forced PRE, REF or REFsb: the refresh path's commands,
     * which no walk preceded.  Resets the wake and the readiness of the
     * bank (for REF, the rank) whose state it changed.
     */
    void issueForRefresh(const Command &cmd, Cycle now);

    /** Earliest cycle a command of @p kind to (@p rank, @p bank) is
     *  legal (see DramDevice::earliestIssueAt). */
    Cycle earliestOfKind(RankId rank, BankId bank, LegalKind kind) const;

    /**
     * After a scheduler-picked issue to (@p rank, @p bank) at @p now,
     * re-bound the readiness of that bank (from its new state and
     * demand) and of every bank this tick's walk found a candidate in
     * (from the command kinds the walk evaluated), and set the wake to
     * the earliest bound (see DESIGN.md, "Controller tick").
     */
    void boundWake(RankId rank, BankId bank, Cycle now);

    /** Issue the chosen candidate, retire its request if done, and
     *  bound the wake. */
    void issueCandidate(Candidate &cand, Cycle now);

    /** Queue a new request for @p line and lower the wake for it. */
    Request &queueRequest(Addr line, bool is_write, Cycle now);

    DramDevice &dev_;
    std::unique_ptr<Scheduler> scheduler_;
    ControllerConfig cfg_;
    AddressMapping mapping_;

    /** Effective refresh policy: cfg_.refreshPolicy under per-bank
     *  refresh, kInOrder otherwise. */
    RefreshPolicy policy_ = RefreshPolicy::kInOrder;

    /**
     * Deadline guard for out-of-order policies [cycles]: once a bank's
     * postponement deadline is within this margin, its refresh is
     * forced regardless of demand.  Sized in the constructor to cover
     * a worst-case drain (open-row recovery + forced PRE) plus the
     * rank's REFsb serialization, so a deferred refresh always lands
     * inside the window.
     */
    Cycle forceMargin_ = 0;

    /** Both queues, indexed by line and by bank. */
    RequestStore store_;

    /**
     * Reads whose data is still in flight are the first inFlightLen_
     * entries; the rest are spares whose waiter vectors keep their
     * capacity, traded for a queued read's when it issues, so steady
     * state allocates no waiter storage.
     */
    std::vector<PendingCompletion> inFlight_;
    std::size_t inFlightLen_ = 0;
    ReadCallback readCallback_;

    ControllerStats stats_;
    std::vector<Candidate> scratch_; //!< reused candidate buffer

    /**
     * Shard confinement (debug-asserted): a controller is driven by
     * exactly one thread — the worker running its System, or the
     * serve shard that adopted it after launch (construction on the
     * launching thread is fine; the launch edge hands it over).
     * tick/enqueue/skipIdle assert the owner, so cross-thread use
     * panics in debug builds instead of racing the queues.
     */
    ThreadConfined confined_;

    /** Resolved metric handles; null unless attachMetrics was called
     *  (every instrumentation site is one never-taken branch then). */
    struct CtrlMetrics;
    std::unique_ptr<CtrlMetrics> metrics_;

    /**
     * Everything the controller keeps per (rank, bank), indexed
     * rank * banks + bank, in one vector so construction allocates
     * once.
     */
    struct BankSlot
    {
        // Refresh verdict cache (refreshVerdicts).
        bool wantRefresh = false;   //!< wantRefresh() at the last fill
        bool refreshForced = false; //!< refreshForced() at the last fill
        bool verdictStale = false;  //!< demand flipped since the fill

        /**
         * No queued request of the bank has a legal command before
         * this cycle; kNeverCycle while the bank has no demand or is
         * draining for refresh.  Set by the bank's walk and re-bounded
         * after a scheduler-picked issue (boundWake); reset by a
         * refresh-path issue to the bank (for REF, its rank) and by a
         * verdict flip, lowered by an arrival.  An issue elsewhere only
         * moves the device's registers later, so it stays a lower bound
         * across those.
         */
        Cycle readyAt = 0;

        // Walk memo, reset at the start of each walk over the bank.
        // Within one enumeration nothing issues and no queue changes,
        // so the bank's earliest-legal cycle per command kind and its
        // open row's demand are fixed; legality does not depend on the
        // row or column, so every request to the bank shares them.
        std::uint8_t legalKnown = 0; //!< LegalKind bits evaluated
        bool preSeen = false;        //!< a PRE candidate was added
        bool openRowDemandKnown = false;
        RowId actSeenRow = kNoRow;  //!< row of the last ACT added
        unsigned openRowDemand = 0; //!< demandFor(open row), if known
        Cycle legalAt[kLegalKinds] = {}; //!< earliestIssueAt per kind

        void
        startWalk()
        {
            legalKnown = 0;
            preSeen = false;
            openRowDemandKnown = false;
            actSeenRow = kNoRow;
        }
    };

    std::vector<BankSlot> slots_;

    BankSlot &
    slotOf(RankId rank, BankId bank)
    {
        return slots_[rank.value() * dev_.geometry().banks + bank.value()];
    }

    /** Ticks before this cycle find no candidate (see wakeAt()). */
    Cycle wakeAt_ = 0;

    /** Cached verdicts hold for cycles < verdictsUntil_ (0 forces a
     *  full refill at the next tick). */
    Cycle verdictsUntil_ = 0;
    /** Some slot has verdictStale set. */
    bool verdictsStale_ = false;
    /** Banks whose cached verdict is "wants refresh". */
    unsigned wantingBanks_ = 0;
};

} // namespace nuat

#endif // NUAT_MEM_MEMORY_CONTROLLER_HH
