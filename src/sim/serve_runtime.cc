#include "serve_runtime.hh"

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <thread>

#include "channel_stack.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/mpsc_queue.hh"
#include "common/thread_annotations.hh"
#include "trace/workload_profile.hh"

namespace nuat {

namespace {

/** First / maximum pause of a producer's SpinBackoff schedule. */
constexpr unsigned kBackoffInitialYields = 1;
constexpr unsigned kBackoffCapYields = 1024;

/** Deterministic mode: rounds between inline watchdog polls. */
constexpr std::uint64_t kWatchdogPollRounds = 256;

/** Threaded mode: monitor yields between watchdog polls. */
constexpr unsigned kWatchdogPollYields = 4096;

/** Recoveries per shard before the watchdog fails the run. */
constexpr unsigned kWatchdogMaxRecoveries = 3;

/** Ceiling the stall threshold doubles to after a recovery, and clean
 *  polls required before it eases back one halving. */
constexpr unsigned kWatchdogHysteresisCap = 32;
constexpr unsigned kWatchdogCleanPolls = 16;

/** The serve view of the experiment: shards are the channels. */
ExperimentConfig
serveExperiment(const ServeConfig &cfg)
{
    ExperimentConfig exp = cfg.experiment;
    exp.geometry.channels = cfg.shards;
    return exp;
}

} // namespace

const char *
admissionPolicyName(AdmissionPolicy policy)
{
    switch (policy) {
      case AdmissionPolicy::kBlock:
        return "block";
      case AdmissionPolicy::kBoundedRetry:
        return "bounded";
      case AdmissionPolicy::kShed:
        return "shed";
    }
    return "?";
}

bool
parseAdmissionPolicy(const std::string &name, AdmissionPolicy *out)
{
    if (name == "block")
        *out = AdmissionPolicy::kBlock;
    else if (name == "bounded")
        *out = AdmissionPolicy::kBoundedRetry;
    else if (name == "shed")
        *out = AdmissionPolicy::kShed;
    else
        return false;
    return true;
}

void
ServeConfig::validate() const
{
    nuat_assert(shards >= 1, "(serve needs at least one shard)");
    nuat_assert((shards & (shards - 1)) == 0,
                "(shards are address-mapping channels and must be a "
                "power of two)");
    nuat_assert(producers >= 1, "(serve needs at least one producer)");
    nuat_assert(requestsPerProducer >= 1,
                "(each producer must push at least one request)");
    nuat_assert(ingestBatch >= 1, "(ingestBatch must be positive)");
    nuat_assert(admitCapacity >= 1,
                "(admitCapacity must be positive)");
    nuat_assert(blockPushRounds >= 1 && retryPushRounds >= 1,
                "(push-round budgets must be positive)");
    nuat_assert(watchdogStallPolls >= 1,
                "(watchdogStallPolls must be positive)");
    nuat_assert(!experiment.faultsEnabled(),
                "(serve mode has no fault world; drop --fault-profile)");
    serveExperiment(*this).validate();
    chaos.validate();
    for (const ChaosStall &st : chaos.stalls)
        nuat_assert(st.shard < shards,
                    "(chaos stall targets shard %u but only %u shards "
                    "exist)",
                    st.shard, shards);
}

AdmissionVerdict
admissionVerdict(const ServeConfig &cfg, unsigned cls,
                 std::uint64_t failedAttempts)
{
    switch (cfg.admission) {
      case AdmissionPolicy::kBlock:
        return failedAttempts >= cfg.blockPushRounds
                   ? AdmissionVerdict::kWedged
                   : AdmissionVerdict::kRetry;
      case AdmissionPolicy::kShed:
        if (cls != 0)
            return AdmissionVerdict::kShed;
        [[fallthrough]];
      case AdmissionPolicy::kBoundedRetry:
        return failedAttempts >= cfg.retryPushRounds
                   ? AdmissionVerdict::kShed
                   : AdmissionVerdict::kRetry;
    }
    nuat_panic("unhandled admission policy");
}

bool
ServeResult::conserves() const
{
    if (requestsProduced != requestsRetired + shedTotal())
        return false;
    for (const ServeClassStats &c : classes)
        if (c.produced != c.retired + c.shedTotal())
            return false;
    return true;
}

namespace {

static_assert(kServeClasses == 3,
              "per-class array initializers below assume 3 classes");

/** A request that left the ring, stamped with the shard clock so the
 *  dispatch deadline is measured in shard-local cycles (replayable,
 *  never wall time). */
struct AdmittedReq
{
    StreamRequest req{};
    Cycle admitAt = 0;
};

/**
 * One shard's full stack.  Built on the main thread, then owned
 * exclusively by its shard thread until join (the thread launch /
 * join pair provides the happens-before edges), so none of the
 * non-atomic state needs locks.  `confined` asserts exactly that in
 * debug builds: the shard thread adopts the state on its first loop
 * iteration, and any off-thread touch before the join panics.  Shared
 * pieces: `ring` (the MPSC hand-off point) and the three annotated
 * atomics the watchdog protocol rides on — everything else is
 * shard-confined.
 */
struct ShardState
{
    ShardState(const ExperimentConfig &exp, unsigned shard,
               std::size_t queueCapacity)
        : stack(exp, shard, nullptr),
          ring(std::make_unique<MpscQueue<StreamRequest>>(queueCapacity))
    {
    }

    ChannelStack stack;
    std::unique_ptr<MpscQueue<StreamRequest>> ring; //!< shared ingest

    ThreadConfined confined; //!< adopted by the shard thread

    Cycle now = 0; //!< this shard's private clock
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t readsDone = 0;
    bool hitCap = false;

    /** Popped from the ring, stamped, waiting for the controller
     *  (deadlines are enforced on this stage). */
    std::deque<AdmittedReq> admitted;

    /** Per-class accounting (index = priority class). */
    std::array<std::uint64_t, kServeClasses> retiredByClass{};
    std::array<std::uint64_t, kServeClasses> timeoutShed{};
    std::array<std::uint64_t, kServeClasses> poisonShed{};
    std::array<Histogram, kServeClasses> latencyHist{
        {Histogram{0.0, 8.0, 256}, Histogram{0.0, 8.0, 256},
         Histogram{0.0, 8.0, 256}}};

    /** Chaos stall schedule for this shard (filtered from profile). */
    std::vector<ChaosStall> stalls;
    std::size_t nextStall = 0;
    std::uint64_t stallRemaining = 0;

    std::uint64_t steps = 0;      //!< healthy step count
    std::uint64_t recoveries = 0; //!< watchdog recoveries honored

    std::atomic<std::uint64_t> heartbeat NUAT_LOCK_FREE(
        "progress gauge: relaxed-stored by the shard every healthy "
        "step, relaxed-loaded by the watchdog; freshness, not "
        "ordering, is what the poll needs"){0};
    std::atomic<bool> recoverReq NUAT_LOCK_FREE(
        "release-stored true by the watchdog, acquire-loaded by the "
        "shard; the shard relaxed-clears it (no data rides on the "
        "clear)"){false};
    std::atomic<bool> done NUAT_LOCK_FREE(
        "release-stored by the shard when its loop exits; the "
        "watchdog acquire-loads it to stop polling a finished "
        "shard"){false};
};

/** One producer's stream + locally accumulated counters; confined to
 *  its producer thread exactly like ShardState is to its shard. */
struct ProducerState
{
    std::unique_ptr<RequestStream> stream;
    ThreadConfined confined; //!< adopted by the producer thread
    unsigned producerIdx = 0;
    std::uint64_t pushed = 0;
    std::uint64_t yields = 0;
    std::uint64_t backoffRounds = 0;
    std::uint64_t poisonedInjected = 0;
    std::uint64_t reqIndex = 0;
    SpinBackoff backoff{kBackoffInitialYields, kBackoffCapYields};

    /** Per-class accounting (index = priority class). */
    std::array<std::uint64_t, kServeClasses> producedByClass{};
    std::array<std::uint64_t, kServeClasses> shedByClass{};

    /** Burst-storm pacing state. */
    std::uint64_t burstCount = 0;
    std::uint64_t gapRemaining = 0;

    /** The request being handed to its shard, and how many times its
     *  push has failed (one attempt per deterministic round). */
    StreamRequest cur{};
    bool curValid = false;
    std::uint64_t curFailures = 0;

    /** Deterministic mode: the stream is exhausted. */
    bool finished = false;
};

/** What one producer step did with the current request. */
enum class ProduceOutcome
{
    kAccounted, //!< pushed or shed
    kRetry,     //!< push failed; the request stays current
    kStop,      //!< stream exhausted, or the ring is wedged
};

/** What one shard step accomplished. */
enum class StepOutcome
{
    kDone,     //!< drained and producers finished (or cycle cap)
    kProgress, //!< moved requests or ticked the controller
    kIdle,     //!< nothing to do yet; waiting on producers
    kStalled,  //!< chaos stall in effect (no heartbeat)
};

/**
 * Watchdog bookkeeping: one rung ladder per shard, mirroring the
 * GuardbandManager hysteresis — a recovery doubles the shard's stall
 * threshold up to a cap, sustained clean polls ease it back one
 * halving at a time.  Owned by the monitor thread (threaded mode) or
 * the driver loop (deterministic mode); read by the merge code only
 * after the join.
 */
struct WatchdogMonitor
{
    struct PerShard
    {
        std::uint64_t last = 0; //!< heartbeat seen at the last poll
        unsigned frozen = 0;    //!< consecutive frozen polls
        unsigned threshold = 0; //!< current stall rung (hysteresis)
        unsigned clean = 0;     //!< consecutive healthy polls
        unsigned issued = 0;    //!< recovery requests posted
    };

    WatchdogMonitor(unsigned stallPolls, std::size_t n)
        : stallPolls_(stallPolls), perShard_(n)
    {
        for (PerShard &w : perShard_)
            w.threshold = stallPolls;
    }

    /**
     * One poll over every live shard.  Posts recovery requests for
     * frozen heartbeats; @return false (and sets `error`) when a
     * shard has exhausted its recovery budget and is still frozen.
     */
    bool
    poll(std::deque<ShardState> &shards)
    {
        const unsigned cap = std::max(kWatchdogHysteresisCap, stallPolls_);
        for (std::size_t i = 0; i < shards.size(); ++i) {
            ShardState &s = shards[i];
            PerShard &w = perShard_[i];
            // acquire: a finished shard's final counters
            // happen-before this observation.
            if (s.done.load(std::memory_order_acquire))
                continue;
            // relaxed: the heartbeat is a progress gauge; a stale
            // read only delays detection by one poll.
            const std::uint64_t hb =
                s.heartbeat.load(std::memory_order_relaxed);
            if (hb != w.last) {
                w.last = hb;
                w.frozen = 0;
                ++w.clean;
                if (w.clean >= kWatchdogCleanPolls &&
                    w.threshold > stallPolls_) {
                    w.threshold = std::max(w.threshold / 2, stallPolls_);
                    ++easeSteps;
                    w.clean = 0;
                }
                continue;
            }
            w.clean = 0;
            ++w.frozen;
            if (w.frozen < w.threshold)
                continue;
            if (w.issued >= kWatchdogMaxRecoveries) {
                error = "watchdog: shard " + std::to_string(i) +
                        " still frozen after " +
                        std::to_string(w.issued) +
                        " recoveries; giving up";
                return false;
            }
            // release: the recovery request must not be reordered
            // ahead of the poll state that justified it.
            s.recoverReq.store(true, std::memory_order_release);
            ++w.issued;
            w.frozen = 0;
            w.threshold = std::min(w.threshold * 2, cap);
        }
        return true;
    }

    const unsigned stallPolls_; //!< the initial rung
    std::vector<PerShard> perShard_;
    std::uint64_t easeSteps = 0;
    std::string error;
};

/** Pushes a producer attempts per deterministic round outside bursts
 *  (inside a burst the whole remaining burst is the budget, so storms
 *  actually saturate the rings). */
constexpr std::uint64_t kDetPushesPerRound = 4;

} // namespace

ServeResult
runServe(const ServeConfig &cfg)
{
    cfg.validate();
    const ExperimentConfig exp = serveExperiment(cfg);

    // Build every shard stack on this thread; shard threads take over
    // after launch.  Each stack owns its TimingDerate, so no charge
    // model state is ever shared across threads.
    std::deque<ShardState> shards;
    for (unsigned i = 0; i < cfg.shards; ++i) {
        ShardState &s = shards.emplace_back(exp, i, cfg.queueCapacity);
        s.stack.controller().setReadCallback(
            [sp = &s](const Waiter &w, Addr, Cycle data_at) {
                ++sp->readsDone;
                const std::size_t cls = static_cast<std::size_t>(
                    w.coreId < 0 ? 0 : w.coreId);
                ++sp->retiredByClass[cls];
                // token carries the admit stamp: this is the
                // end-to-end admitted-to-data latency.
                const Cycle lat =
                    data_at >= w.token ? data_at - w.token : 0;
                sp->latencyHist[cls].sample(static_cast<double>(lat));
            });
    }
    for (const ChaosStall &st : cfg.chaos.stalls)
        shards[st.shard].stalls.push_back(st);

    // Producers: each owns a deterministic stream over the full
    // (sharded) address space, with the same per-stream seed salt and
    // disjoint row footprints as System gives its cores.
    std::vector<ProducerState> producers(cfg.producers);
    const std::uint32_t stride =
        exp.geometry.rows / cfg.producers > 0
            ? exp.geometry.rows / cfg.producers
            : 1;
    for (unsigned i = 0; i < cfg.producers; ++i) {
        const WorkloadProfile profile = WorkloadProfile::byName(
            exp.workloads[i % exp.workloads.size()]);
        producers[i].stream = std::make_unique<RequestStream>(
            profile, exp.geometry, exp.seed + i * 7919,
            cfg.requestsPerProducer,
            (i * stride) % exp.geometry.rows);
        producers[i].producerIdx = i;
    }

    // ChannelMux's routing rule, shared read-only by every producer.
    const AddressMapping mapping(exp.controller.mapping, exp.geometry);
    std::atomic<bool> producersDone NUAT_LOCK_FREE(
        "release-stored by the launcher after joining every producer; "
        "shards acquire-load it so the final ring re-check observes "
        "the last push"){false};
    std::atomic<bool> abortRun NUAT_LOCK_FREE(
        "release-stored by whichever worker fails the run (wedged "
        "ring, exhausted watchdog); every loop acquire-loads it to "
        "unwind promptly"){false};

    Mutex errorsMu;
    std::vector<std::string> errors NUAT_GUARDED_BY(errorsMu);
    // Record why the run fails, then stop every worker.
    auto failRun = [&](std::string msg) {
        {
            MutexLock lock(errorsMu);
            errors.push_back(std::move(msg));
        }
        // release: the error record happens-before any worker
        // observing the abort.
        abortRun.store(true, std::memory_order_release);
    };

    WatchdogMonitor watch(cfg.watchdogStallPolls, shards.size());
    const Cycle cap = exp.maxMemCycles;

    /**
     * One producer step, shared by both execution modes: draw a
     * request when none is current (applying the chaos poison draw, a
     * stateless hash of (seed, producer, index), so both modes inject
     * identical poison), try to push it, and on a full ring do what
     * admissionVerdict() says.  A pushed or shed request advances the
     * chaos burst count, and the last one of a burst starts its gap.
     * The drivers add only pacing: the threaded one backs off between
     * retries and yields through burst gaps, the deterministic one
     * spends a gap in rounds and budgets pushes per round.
     */
    auto produceStep = [&](ProducerState &p) -> ProduceOutcome {
        if (!p.curValid) {
            if (!p.stream->next(p.cur))
                return ProduceOutcome::kStop;
            if (chaosPoisons(cfg.chaos, exp.seed, p.producerIdx,
                             p.reqIndex)) {
                p.cur.poisoned = true;
                ++p.poisonedInjected;
            }
            ++p.producedByClass[p.cur.cls];
            ++p.reqIndex;
            p.curValid = true;
            p.curFailures = 0;
        }
        const unsigned shard = mapping.decompose(p.cur.addr).channel;
        if (shards[shard].ring->tryPush(p.cur)) {
            ++p.pushed;
        } else {
            ++p.yields;
            ++p.curFailures;
            switch (admissionVerdict(cfg, p.cur.cls, p.curFailures)) {
              case AdmissionVerdict::kRetry:
                return ProduceOutcome::kRetry;
              case AdmissionVerdict::kWedged:
                failRun("producer " + std::to_string(p.producerIdx) +
                        ": shard " + std::to_string(shard) +
                        " ring still full after " +
                        std::to_string(p.curFailures) +
                        " push attempts; declaring it wedged");
                return ProduceOutcome::kStop;
              case AdmissionVerdict::kShed:
                ++p.shedByClass[p.cur.cls];
                break;
            }
        }
        p.curValid = false;
        if (cfg.chaos.burstLen > 0 &&
            ++p.burstCount >= cfg.chaos.burstLen) {
            p.burstCount = 0;
            p.gapRemaining = cfg.chaos.burstGap;
        }
        return ProduceOutcome::kAccounted;
    };

    /**
     * One shard step, shared verbatim between the threaded loop and
     * the deterministic round-robin: chaos stall bookkeeping, then
     * ingest (ring → admitted, shedding poison), dispatch (admitted →
     * controller, shedding expired deadlines), drain check, tick.
     */
    auto shardStep = [&](ShardState &s) -> StepOutcome {
        // Debug-asserted confinement: this thread (and after the
        // join, only the merge code) may touch the shard stack.
        s.confined.assertOwned("ShardState");

        if (s.stallRemaining == 0 && s.nextStall < s.stalls.size() &&
            s.steps >= s.stalls[s.nextStall].atStep) {
            s.stallRemaining = s.stalls[s.nextStall].forSteps;
            ++s.nextStall;
        }
        if (s.stallRemaining > 0) {
            // Stalled: no heartbeat, no work — the watchdog sees the
            // frozen counter.  Honoring a recovery request restarts
            // the step loop; the ring, admitted stage and controller
            // are their own checkpoint (nothing is lost), which is
            // what makes conservation provable across recoveries.
            if (s.recoverReq.load(std::memory_order_acquire)) {
                s.recoverReq.store(false, std::memory_order_relaxed);
                s.stallRemaining = 0;
                ++s.recoveries;
            } else {
                --s.stallRemaining;
                return StepOutcome::kStalled;
            }
        } else if (s.recoverReq.load(std::memory_order_relaxed)) {
            // Watchdog misfire on a healthy-but-descheduled shard:
            // clear the request without counting a recovery.
            s.recoverReq.store(false, std::memory_order_relaxed);
        }
        ++s.steps;
        // relaxed: freshness is all the watchdog needs (see decl).
        s.heartbeat.store(s.steps, std::memory_order_relaxed);

        // Ingest: ring → admitted stage.  Poisoned payloads fail the
        // integrity check here and are shed before ever reaching the
        // controller.
        const auto admit = [&s](const StreamRequest &r) {
            if (r.poisoned)
                ++s.poisonShed[r.cls];
            else
                s.admitted.push_back(AdmittedReq{r, s.now});
        };
        StreamRequest r;
        for (unsigned moved = 0; moved < cfg.ingestBatch &&
                                 s.admitted.size() < cfg.admitCapacity &&
                                 s.ring->tryPop(r);
             ++moved)
            admit(r);

        // Dispatch: admitted → controller, expiring overdue heads.
        // Deadlines are shard-local cycles since the admit stamp.
        MemoryController &ctrl = s.stack.controller();
        while (!s.admitted.empty()) {
            const AdmittedReq &a = s.admitted.front();
            const Cycle deadline = cfg.deadlineCycles[a.req.cls];
            if (deadline != 0 && s.now - a.admitAt > deadline) {
                ++s.timeoutShed[a.req.cls];
                s.admitted.pop_front();
                continue;
            }
            if (a.req.isWrite) {
                if (!ctrl.canAcceptWrite(a.req.addr))
                    break;
                ctrl.enqueueWrite(a.req.addr, s.now);
                ++s.writes;
                ++s.retiredByClass[a.req.cls];
            } else {
                if (!ctrl.canAcceptRead(a.req.addr))
                    break;
                ctrl.enqueueRead(
                    a.req.addr,
                    Waiter{static_cast<int>(a.req.cls), a.admitAt},
                    s.now);
                ++s.reads;
            }
            s.admitted.pop_front();
        }

        if (ctrl.idle() && s.admitted.empty()) {
            // Drained.  Either the run is over or the producers are
            // just slower than this shard: re-check the ring *after*
            // observing the done flag, closing the race with a
            // producer's final push.  acquire: pairs with the
            // launcher's release store after the join.
            if (producersDone.load(std::memory_order_acquire)) {
                if (!s.ring->tryPop(r))
                    return StepOutcome::kDone;
                admit(r);
                return StepOutcome::kProgress;
            }
            return StepOutcome::kIdle;
        }

        if (s.now >= cap) {
            s.hitCap = true;
            return StepOutcome::kDone;
        }
        ctrl.tick(s.now);
        ++s.now;
        return StepOutcome::kProgress;
    };

    auto shardMain = [&](ShardState &s) {
        for (;;) {
            // acquire: observe the failing worker's error record.
            if (abortRun.load(std::memory_order_acquire))
                break;
            const StepOutcome o = shardStep(s);
            if (o == StepOutcome::kDone)
                break;
            if (o == StepOutcome::kIdle || o == StepOutcome::kStalled)
                std::this_thread::yield();
        }
        // release: final counters happen-before the watchdog (or the
        // merge) observing the exit.
        s.done.store(true, std::memory_order_release);
    };

    auto producerMain = [&](ProducerState &p) {
        // Adopt the producer state: off-thread touches panic (debug).
        p.confined.assertOwned("ProducerState");
        // acquire: observe the failing worker's error record.
        while (!abortRun.load(std::memory_order_acquire)) {
            const ProduceOutcome o = produceStep(p);
            if (o == ProduceOutcome::kStop)
                return;
            if (o == ProduceOutcome::kRetry) {
                ++p.backoffRounds;
                p.yields += p.backoff.pause();
                continue;
            }
            p.backoff.reset();
            // Burst gap: pause without pushing (chaos pacing).
            for (; p.gapRemaining > 0 &&
                   !abortRun.load(std::memory_order_relaxed);
                 --p.gapRemaining)
                std::this_thread::yield();
        }
    };

    /**
     * One deterministic producer round: honor the burst gap, then
     * step up to the round's push budget, which inside a burst is the
     * rest of the burst.  A failed push ends the round (one attempt
     * per round, so `curFailures` counts rounds).
     * @return true when the producer has nothing left to do.
     */
    auto producerStepDet = [&](ProducerState &p) -> bool {
        if (p.finished)
            return true;
        p.confined.assertOwned("ProducerState");
        if (p.gapRemaining > 0) {
            --p.gapRemaining;
            return false;
        }
        std::uint64_t budget =
            cfg.chaos.burstLen > 0
                ? cfg.chaos.burstLen - p.burstCount
                : kDetPushesPerRound;
        for (; budget > 0; --budget) {
            const ProduceOutcome o = produceStep(p);
            if (o == ProduceOutcome::kStop) {
                p.finished = true;
                return true;
            }
            if (o == ProduceOutcome::kRetry)
                return false;
        }
        return false;
    };

    if (cfg.deterministic) {
        // Cooperative round-robin on this thread: every counter is a
        // pure function of (config, profile, seed).  The round cap is
        // an anti-livelock backstop only — shard clocks already stop
        // at exp.maxMemCycles.
        const std::uint64_t roundCap = 2 * exp.maxMemCycles + 10000;
        bool allProducersFinished = false;
        for (std::uint64_t round = 0;; ++round) {
            if (round >= roundCap) {
                failRun("deterministic serve exceeded " +
                        std::to_string(roundCap) +
                        " rounds without draining; declaring livelock");
                break;
            }
            if (!allProducersFinished) {
                bool fin = true;
                for (auto &p : producers)
                    fin = producerStepDet(p) && fin;
                if (fin) {
                    allProducersFinished = true;
                    producersDone.store(true,
                                        std::memory_order_release);
                }
            }
            bool allShardsDone = true;
            for (auto &s : shards) {
                if (s.done.load(std::memory_order_relaxed))
                    continue;
                if (shardStep(s) == StepOutcome::kDone)
                    s.done.store(true, std::memory_order_relaxed);
                else
                    allShardsDone = false;
            }
            if (abortRun.load(std::memory_order_acquire))
                break;
            if (cfg.watchdog && round > 0 &&
                round % kWatchdogPollRounds == 0) {
                if (!watch.poll(shards)) {
                    failRun(watch.error);
                    break;
                }
            }
            if (allProducersFinished && allShardsDone)
                break;
        }
    } else {
        std::vector<std::thread> pool;
        pool.reserve(cfg.shards);
        for (auto &s : shards)
            pool.emplace_back([&shardMain, &s] { shardMain(s); });

        std::thread monitor;
        if (cfg.watchdog) {
            monitor = std::thread([&] {
                for (;;) {
                    if (abortRun.load(std::memory_order_acquire))
                        return;
                    bool allDone = true;
                    for (const auto &s : shards)
                        allDone =
                            allDone &&
                            s.done.load(std::memory_order_acquire);
                    if (allDone)
                        return;
                    for (unsigned i = 0;
                         i < kWatchdogPollYields &&
                         !abortRun.load(std::memory_order_relaxed);
                         ++i)
                        std::this_thread::yield();
                    if (!watch.poll(shards)) {
                        failRun(watch.error);
                        return;
                    }
                }
            });
        }

        std::vector<std::thread> feeders;
        feeders.reserve(cfg.producers);
        for (auto &p : producers)
            feeders.emplace_back(
                [&producerMain, &p] { producerMain(p); });
        for (auto &t : feeders)
            t.join();
        // release: everything the producers wrote (ring slots,
        // counters) happens-before a shard's acquire load of the
        // done flag.
        producersDone.store(true, std::memory_order_release);
        for (auto &t : pool)
            t.join();
        if (monitor.joinable())
            monitor.join();
    }

    // Batched aggregation: every counter below was accumulated
    // thread-locally; this is the only merge point.
    ServeResult res;
    res.shards = cfg.shards;
    res.producers = cfg.producers;
    res.deterministic = cfg.deterministic;
    for (const auto &p : producers) {
        res.requestsIngested += p.pushed;
        res.backpressureYields += p.yields;
        res.backoffRounds += p.backoffRounds;
        res.poisonedInjected += p.poisonedInjected;
        for (unsigned k = 0; k < kServeClasses; ++k) {
            res.classes[k].produced += p.producedByClass[k];
            res.classes[k].shedAdmission += p.shedByClass[k];
        }
    }
    double latency_sum = 0.0;
    std::uint64_t completed = 0;
    for (const auto &s : shards) {
        res.readsRetired += s.readsDone;
        res.writesRetired += s.writes;
        res.shardRetired.push_back(s.readsDone + s.writes);
        res.shardRecoveries.push_back(s.recoveries);
        res.watchdogRecoveries += s.recoveries;
        if (s.now > res.maxShardCycles)
            res.maxShardCycles = s.now;
        res.totalShardCycles += s.now;
        res.hitCycleCap = res.hitCycleCap || s.hitCap;
        const ControllerStats &cs = s.stack.controller().stats();
        latency_sum += cs.readLatencySum;
        completed += cs.readsCompleted;
        for (unsigned k = 0; k < kServeClasses; ++k) {
            res.classes[k].retired += s.retiredByClass[k];
            res.classes[k].shedTimeout += s.timeoutShed[k];
            res.classes[k].shedPoison += s.poisonShed[k];
            res.classes[k].readLatency.merge(s.latencyHist[k]);
        }
    }
    for (const ServeClassStats &c : res.classes) {
        res.requestsProduced += c.produced;
        res.shedAdmission += c.shedAdmission;
        res.shedTimeout += c.shedTimeout;
        res.shedPoison += c.shedPoison;
    }
    res.watchdogEaseSteps = watch.easeSteps;
    res.requestsRetired = res.readsRetired + res.writesRetired;
    res.avgReadLatency =
        completed ? latency_sum / static_cast<double>(completed) : 0.0;
    {
        MutexLock lock(errorsMu);
        res.errors = errors;
    }
    res.failed = !res.errors.empty();
    if (exp.audit) {
        AuditReport merged;
        for (const auto &s : shards)
            merged.merge(s.stack.auditor()->report(),
                         exp.auditMaxMessages);
        res.audited = true;
        res.auditCommandsChecked = merged.commandsChecked;
        res.auditViolations = merged.violations;
        res.auditMessages = std::move(merged.messages);
    }
    return res;
}

void
publishServeMetrics(const ServeResult &res, MetricRegistry &registry)
{
    registry
        .counter("serve.produced",
                 "requests drawn from the producer streams")
        .inc(res.requestsProduced);
    registry
        .counter("serve.ingested",
                 "requests pushed into the shard ingest rings")
        .inc(res.requestsIngested);
    registry
        .counter("serve.retired",
                 "requests completed by the controllers")
        .inc(res.requestsRetired);
    registry.counter("serve.reads_retired", "reads whose data returned")
        .inc(res.readsRetired);
    registry.counter("serve.writes_retired", "writes accepted (posted)")
        .inc(res.writesRetired);
    registry
        .counter("serve.shed_admission",
                 "requests shed at a full ingest ring")
        .inc(res.shedAdmission);
    registry
        .counter("serve.shed_timeout",
                 "requests shed past their dispatch deadline")
        .inc(res.shedTimeout);
    registry
        .counter("serve.shed_poison",
                 "requests shed by the ingest integrity check")
        .inc(res.shedPoison);
    registry
        .counter("serve.poisoned_injected",
                 "chaos-poisoned requests injected by producers")
        .inc(res.poisonedInjected);
    registry
        .counter("serve.backpressure_yields",
                 "producer yields at a full ring")
        .inc(res.backpressureYields);
    registry
        .counter("serve.backoff_rounds",
                 "producer SpinBackoff pauses")
        .inc(res.backoffRounds);
    registry
        .counter("serve.watchdog_recoveries",
                 "shard recoveries honored after a watchdog request")
        .inc(res.watchdogRecoveries);
    registry
        .counter("serve.watchdog_ease_steps",
                 "hysteresis easings after sustained clean polls")
        .inc(res.watchdogEaseSteps);
    for (unsigned k = 0; k < kServeClasses; ++k) {
        const std::string prefix = "serve.c" + std::to_string(k) + ".";
        const ServeClassStats &c = res.classes[k];
        registry
            .counter(prefix + "produced",
                     "requests of this priority class produced")
            .inc(c.produced);
        registry
            .counter(prefix + "retired",
                     "requests of this priority class retired")
            .inc(c.retired);
        registry
            .counter(prefix + "shed_admission",
                     "admission sheds of this priority class")
            .inc(c.shedAdmission);
        registry
            .counter(prefix + "shed_timeout",
                     "deadline sheds of this priority class")
            .inc(c.shedTimeout);
        registry
            .counter(prefix + "shed_poison",
                     "integrity sheds of this priority class")
            .inc(c.shedPoison);
        registry
            .histogram(prefix + "read_latency", 0.0, 8.0, 256,
                       "admitted-to-data read latency [cycles]")
            .merge(c.readLatency);
    }
}

} // namespace nuat
