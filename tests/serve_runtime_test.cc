/**
 * @file
 * Tests for the sharded serve runtime: request conservation (every
 * produced request retires exactly once), clean shadow audits on
 * every shard, shard accounting consistency, and config validation.
 * Cycle counts and latencies are interleaving-dependent and are only
 * sanity-checked, never compared exactly.
 */

#include <gtest/gtest.h>

#include <array>
#include <numeric>
#include <stdexcept>
#include <string>

#include "common/logging.hh"
#include "sim/serve_runtime.hh"

namespace nuat {
namespace {

ServeConfig
smallConfig()
{
    ServeConfig cfg;
    cfg.experiment.workloads = {"ferret", "libq"};
    cfg.experiment.scheduler = SchedulerKind::kNuat;
    cfg.shards = 2;
    cfg.producers = 2;
    cfg.requestsPerProducer = 3000;
    cfg.queueCapacity = 256;
    return cfg;
}

TEST(ServeRuntime, ConservesRequestsAcrossShards)
{
    ServeConfig cfg = smallConfig();
    const ServeResult res = runServe(cfg);

    const std::uint64_t produced =
        std::uint64_t{cfg.producers} * cfg.requestsPerProducer;
    EXPECT_EQ(res.requestsIngested, produced);
    EXPECT_EQ(res.requestsRetired, produced);
    EXPECT_EQ(res.readsRetired + res.writesRetired,
              res.requestsRetired);
    EXPECT_FALSE(res.hitCycleCap);

    // Per-shard counts must sum to the total: retirement is counted
    // shard-locally and merged after join, nothing lost or doubled.
    ASSERT_EQ(res.shardRetired.size(), cfg.shards);
    const std::uint64_t summed =
        std::accumulate(res.shardRetired.begin(),
                        res.shardRetired.end(), std::uint64_t{0});
    EXPECT_EQ(summed, res.requestsRetired);

    EXPECT_GT(res.maxShardCycles, 0u);
    EXPECT_GE(res.totalShardCycles, res.maxShardCycles);
    EXPECT_GT(res.avgReadLatency, 0.0);
}

TEST(ServeRuntime, AuditedShardsStayViolationFree)
{
    ServeConfig cfg = smallConfig();
    cfg.experiment.audit = true;
    const ServeResult res = runServe(cfg);

    EXPECT_TRUE(res.audited);
    EXPECT_GT(res.auditCommandsChecked, 0u);
    EXPECT_EQ(res.auditViolations, 0u) << "shard auditors flagged "
                                       << res.auditViolations
                                       << " protocol violations";
    EXPECT_EQ(res.requestsRetired, res.requestsIngested);
}

TEST(ServeRuntime, FourShardsBalanceAcrossChannels)
{
    ServeConfig cfg = smallConfig();
    cfg.shards = 4;
    cfg.producers = 4;
    cfg.requestsPerProducer = 2000;
    const ServeResult res = runServe(cfg);

    EXPECT_EQ(res.requestsRetired,
              std::uint64_t{cfg.producers} * cfg.requestsPerProducer);
    ASSERT_EQ(res.shardRetired.size(), 4u);
    // The address mapping routes by channel bits; with stream
    // workloads every shard must see real traffic (not all requests
    // collapsing onto one channel).
    for (const std::uint64_t count : res.shardRetired)
        EXPECT_GT(count, 0u);
}

TEST(ServeRuntime, SingleShardSingleProducerRuns)
{
    ServeConfig cfg = smallConfig();
    cfg.shards = 1;
    cfg.producers = 1;
    cfg.requestsPerProducer = 2000;
    const ServeResult res = runServe(cfg);
    EXPECT_EQ(res.requestsRetired, cfg.requestsPerProducer);
    ASSERT_EQ(res.shardRetired.size(), 1u);
    EXPECT_EQ(res.shardRetired[0], cfg.requestsPerProducer);
}

TEST(ServeRuntime, ValidateRejectsBadConfigs)
{
    setPanicThrows(true);

    ServeConfig cfg = smallConfig();
    cfg.shards = 3; // not a power of two: no address-mapping channel
    EXPECT_THROW(cfg.validate(), std::logic_error);

    cfg = smallConfig();
    cfg.shards = 0;
    EXPECT_THROW(cfg.validate(), std::logic_error);

    cfg = smallConfig();
    cfg.producers = 0;
    EXPECT_THROW(cfg.validate(), std::logic_error);

    cfg = smallConfig();
    cfg.requestsPerProducer = 0;
    EXPECT_THROW(cfg.validate(), std::logic_error);

    cfg = smallConfig();
    cfg.experiment.workloads.clear();
    EXPECT_THROW(cfg.validate(), std::logic_error);

    cfg = smallConfig();
    cfg.admitCapacity = 0;
    EXPECT_THROW(cfg.validate(), std::logic_error);

    cfg = smallConfig();
    cfg.watchdogStallPolls = 0;
    EXPECT_THROW(cfg.validate(), std::logic_error);

    cfg = smallConfig();
    cfg.chaos.stalls = {{9, 100, 100}}; // shard 9 does not exist
    EXPECT_THROW(cfg.validate(), std::logic_error);

    // The experiment itself must be valid, as System requires: DARP
    // reorders per-bank refreshes, and the default preset refreshes
    // all banks at once.
    cfg = smallConfig();
    cfg.experiment.controller.refreshPolicy = RefreshPolicy::kDarp;
    EXPECT_THROW(cfg.validate(), std::logic_error);

    setPanicThrows(false);
}

TEST(ServeRuntime, ChaosOffMatchesLegacyBehavior)
{
    // With no chaos and the default block admission, the resilience
    // layer must be invisible: nothing shed, every produced request
    // ingested and retired.
    ServeConfig cfg = smallConfig();
    const ServeResult res = runServe(cfg);

    EXPECT_FALSE(res.failed);
    EXPECT_EQ(res.shedTotal(), 0u);
    EXPECT_EQ(res.poisonedInjected, 0u);
    EXPECT_EQ(res.watchdogRecoveries, 0u);
    EXPECT_EQ(res.requestsProduced, res.requestsIngested);
    EXPECT_EQ(res.requestsProduced, res.requestsRetired);
    EXPECT_TRUE(res.conserves());

    // Every request carries a hash-drawn class; all three must see
    // real traffic under the 1/8-5/8-2/8 split.
    for (const ServeClassStats &c : res.classes)
        EXPECT_GT(c.produced, 0u);
}

TEST(ServeRuntime, BoundedRetryShedsUnderPressure)
{
    // A tiny ring, one slow shard, a short retry budget: bounded
    // admission must shed rather than block, and every shed must be
    // accounted per class.
    ServeConfig cfg = smallConfig();
    cfg.deterministic = true;
    cfg.admission = AdmissionPolicy::kBoundedRetry;
    cfg.queueCapacity = 4;
    cfg.retryPushRounds = 2;
    cfg.chaos = *findChaosProfile("burst-storm");
    const ServeResult res = runServe(cfg);

    EXPECT_FALSE(res.failed);
    EXPECT_GT(res.shedAdmission, 0u);
    EXPECT_TRUE(res.conserves());
}

TEST(ServeRuntime, ShedPolicyProtectsClassZero)
{
    // Under kShed, best-effort classes drop on the first full-ring
    // hit while class 0 keeps its bounded-retry budget — so class 0's
    // shed *rate* must not exceed the others' under the same storm.
    ServeConfig cfg = smallConfig();
    cfg.deterministic = true;
    cfg.admission = AdmissionPolicy::kShed;
    cfg.queueCapacity = 4;
    cfg.chaos = *findChaosProfile("burst-storm");
    const ServeResult res = runServe(cfg);

    EXPECT_FALSE(res.failed);
    EXPECT_TRUE(res.conserves());
    EXPECT_GT(res.shedAdmission, 0u);
    const ServeClassStats &hi = res.classes[0];
    const ServeClassStats &lo = res.classes[2];
    ASSERT_GT(hi.produced, 0u);
    ASSERT_GT(lo.produced, 0u);
    const double hiRate = static_cast<double>(hi.shedAdmission) /
                          static_cast<double>(hi.produced);
    const double loRate = static_cast<double>(lo.shedAdmission) /
                          static_cast<double>(lo.produced);
    EXPECT_LE(hiRate, loRate);
}

TEST(ServeRuntime, AdmissionVerdictTable)
{
    ServeConfig cfg;
    cfg.retryPushRounds = 8;
    cfg.blockPushRounds = 100;
    constexpr AdmissionVerdict R = AdmissionVerdict::kRetry;
    constexpr AdmissionVerdict S = AdmissionVerdict::kShed;
    constexpr AdmissionVerdict W = AdmissionVerdict::kWedged;
    struct Row
    {
        AdmissionPolicy policy;
        unsigned cls;
        // failed attempts: 1, retry - 1, retry, block - 1, block
        std::array<AdmissionVerdict, 5> want;
    };
    const Row rows[] = {
        {AdmissionPolicy::kBlock, 0, {R, R, R, R, W}},
        {AdmissionPolicy::kBlock, 1, {R, R, R, R, W}},
        {AdmissionPolicy::kBoundedRetry, 0, {R, R, S, S, S}},
        {AdmissionPolicy::kBoundedRetry, 1, {R, R, S, S, S}},
        {AdmissionPolicy::kShed, 0, {R, R, S, S, S}},
        {AdmissionPolicy::kShed, 1, {S, S, S, S, S}},
        {AdmissionPolicy::kShed, 2, {S, S, S, S, S}},
    };
    const std::uint64_t attempts[] = {
        1, cfg.retryPushRounds - 1, cfg.retryPushRounds,
        cfg.blockPushRounds - 1, cfg.blockPushRounds};
    for (const Row &row : rows) {
        cfg.admission = row.policy;
        for (std::size_t i = 0; i < row.want.size(); ++i) {
            EXPECT_EQ(admissionVerdict(cfg, row.cls, attempts[i]),
                      row.want[i])
                << admissionPolicyName(row.policy) << " class "
                << row.cls << " after " << attempts[i] << " failures";
        }
    }
}

/** A stretch of watchdog polls that see one kind of heartbeat. */
struct PollStretch
{
    bool frozen;       //!< the heartbeat stays put (else it advances)
    unsigned polls;    //!< polls in the stretch
    bool done = false; //!< the shard has finished
};

/** What a ladder did over a script of stretches. */
struct LadderOutcome
{
    unsigned recoveries = 0;
    unsigned eases = 0;
    unsigned gaveUpAtPoll = 0; //!< 1-based; 0 when it never gave up
};

LadderOutcome
runLadder(unsigned stallPolls, const std::vector<PollStretch> &script)
{
    WatchdogShard w(stallPolls);
    std::uint64_t heartbeat = 0;
    LadderOutcome out;
    unsigned poll = 0;
    for (const PollStretch &st : script) {
        for (unsigned i = 0; i < st.polls; ++i) {
            ++poll;
            if (!st.frozen)
                ++heartbeat;
            const WatchdogPoll p =
                watchdogPoll(w, stallPolls, heartbeat, st.done);
            w = p.next;
            switch (p.action) {
              case WatchdogAction::kNone:
                break;
              case WatchdogAction::kEase:
                ++out.eases;
                break;
              case WatchdogAction::kRecover:
                ++out.recoveries;
                break;
              case WatchdogAction::kGiveUp:
                out.gaveUpAtPoll = poll;
                return out;
            }
        }
    }
    return out;
}

TEST(ServeRuntime, WatchdogLadderTable)
{
    // The watchdog ladder over scripted heartbeats, no threads.  A
    // healthy shard that is descheduled now and then (a short freeze
    // between long clean stretches) must never spend its budget; a
    // shard frozen for good must still fail after
    // kWatchdogMaxRecoveries, at the poll the doubling ladder implies.
    auto repeat = [](std::vector<PollStretch> unit, unsigned times) {
        std::vector<PollStretch> out;
        for (unsigned i = 0; i < times; ++i)
            out.insert(out.end(), unit.begin(), unit.end());
        return out;
    };
    struct Row
    {
        const char *name;
        unsigned stallPolls;
        std::vector<PollStretch> script;
        LadderOutcome want;
    };
    constexpr unsigned kCap = kWatchdogHysteresisCap;
    // clang-format off: one case per row
    const Row rows[] = {
        {"always healthy", 4, {{false, 1000}}, {0, 0, 0}},
        {"isolated short freezes", 4,
         repeat({{true, 4}, {false, 64}}, 10), {10, 10, 0}},
        {"isolated freezes at the hysteresis cap", kCap,
         repeat({{true, kCap}, {false, 64}}, 10), {10, 0, 0}},
        {"frozen for good", 4, {{true, 1000}}, {3, 0, 4 + 8 + 16 + 32}},
        {"flapping, clean gaps too short to refund", 4,
         {{true, 4}, {false, 2}, {true, 8}, {false, 2}, {true, 16},
          {false, 2}, {true, 32}},
         {3, 0, 4 + 2 + 8 + 2 + 16 + 2 + 32}},
        {"finished shards are not polled", 4,
         {{false, 10}, {true, 1000, true}}, {0, 0, 0}},
    };
    // clang-format on
    static_assert(kWatchdogMaxRecoveries == 3,
                  "the table's give-up polls assume 3 recoveries");
    for (const Row &row : rows) {
        const LadderOutcome got = runLadder(row.stallPolls, row.script);
        EXPECT_EQ(got.recoveries, row.want.recoveries) << row.name;
        EXPECT_EQ(got.eases, row.want.eases) << row.name;
        EXPECT_EQ(got.gaveUpAtPoll, row.want.gaveUpAtPoll) << row.name;
    }
}

TEST(ServeRuntime, FullRingTerminatesWithError)
{
    // The old runtime would spin forever pushing at a permanently
    // wedged shard.  Now the block policy declares the ring wedged
    // after blockPushRounds failed attempts and fails the run with a
    // clear error instead of hanging.
    ServeConfig cfg = smallConfig();
    cfg.deterministic = true;
    cfg.admission = AdmissionPolicy::kBlock;
    cfg.queueCapacity = 4;
    cfg.blockPushRounds = 500;
    cfg.watchdog = false; // nobody rescues the stalled shard
    cfg.chaos.name = "wedge";
    cfg.chaos.stalls = {{0, 0, std::uint64_t{1} << 30}};
    const ServeResult res = runServe(cfg);

    EXPECT_TRUE(res.failed);
    ASSERT_FALSE(res.errors.empty());
    EXPECT_NE(res.errors.front().find("wedged"), std::string::npos);
}

TEST(ServeRuntime, DeadlineShedsExpired)
{
    // A 1-cycle deadline on the lowest class with a deep admitted
    // stage: under storm pressure some class-2 requests must expire
    // before dispatch, and only class 2 pays.
    ServeConfig cfg = smallConfig();
    cfg.deterministic = true;
    cfg.queueCapacity = 64;
    cfg.deadlineCycles = {{0, 0, 1}};
    cfg.chaos = *findChaosProfile("burst-storm");
    const ServeResult res = runServe(cfg);

    EXPECT_FALSE(res.failed);
    EXPECT_TRUE(res.conserves());
    EXPECT_GT(res.shedTimeout, 0u);
    EXPECT_EQ(res.classes[0].shedTimeout, 0u);
    EXPECT_EQ(res.classes[1].shedTimeout, 0u);
    EXPECT_GT(res.classes[2].shedTimeout, 0u);
}

TEST(ServeRuntime, PoisonedRequestsAreShedAndCounted)
{
    ServeConfig cfg = smallConfig();
    cfg.deterministic = true;
    cfg.chaos = *findChaosProfile("poison");
    const ServeResult res = runServe(cfg);

    EXPECT_FALSE(res.failed);
    EXPECT_TRUE(res.conserves());
    EXPECT_GT(res.poisonedInjected, 0u);
    // Every poisoned request that reached a ring is shed by the
    // integrity check; none may retire.
    EXPECT_EQ(res.shedPoison, res.poisonedInjected);
    EXPECT_EQ(res.requestsRetired,
              res.requestsProduced - res.shedTotal());
}

TEST(ServeRuntime, WatchdogRecoversStalledShard)
{
    // storm-stall wedges shard 0 effectively forever; only a watchdog
    // recovery lets the run finish.  Conservation must survive the
    // stall + recovery, and the hysteresis ladder must have stepped.
    ServeConfig cfg = smallConfig();
    cfg.deterministic = true;
    cfg.admission = AdmissionPolicy::kBoundedRetry;
    cfg.chaos = *findChaosProfile("storm-stall");
    const ServeResult res = runServe(cfg);

    EXPECT_FALSE(res.failed);
    EXPECT_GE(res.watchdogRecoveries, 1u);
    ASSERT_EQ(res.shardRecoveries.size(), cfg.shards);
    EXPECT_GE(res.shardRecoveries[0], 1u);
    EXPECT_TRUE(res.conserves());
    EXPECT_EQ(res.auditViolations, 0u);
}

TEST(ServeRuntime, DeterministicRunsAreByteIdentical)
{
    // Same (config, profile, seed) => every counter identical,
    // including the per-class latency histograms bucket by bucket.
    ServeConfig cfg = smallConfig();
    cfg.deterministic = true;
    cfg.admission = AdmissionPolicy::kShed;
    cfg.queueCapacity = 64;
    cfg.deadlineCycles = {{0, 4000, 2000}};
    cfg.chaos = *findChaosProfile("storm-stall");
    const ServeResult a = runServe(cfg);
    const ServeResult b = runServe(cfg);

    EXPECT_FALSE(a.failed);
    EXPECT_EQ(a.requestsProduced, b.requestsProduced);
    EXPECT_EQ(a.requestsIngested, b.requestsIngested);
    EXPECT_EQ(a.requestsRetired, b.requestsRetired);
    EXPECT_EQ(a.shedAdmission, b.shedAdmission);
    EXPECT_EQ(a.shedTimeout, b.shedTimeout);
    EXPECT_EQ(a.shedPoison, b.shedPoison);
    EXPECT_EQ(a.watchdogRecoveries, b.watchdogRecoveries);
    EXPECT_EQ(a.watchdogEaseSteps, b.watchdogEaseSteps);
    EXPECT_EQ(a.backpressureYields, b.backpressureYields);
    EXPECT_EQ(a.maxShardCycles, b.maxShardCycles);
    EXPECT_EQ(a.totalShardCycles, b.totalShardCycles);
    EXPECT_EQ(a.shardRetired, b.shardRetired);
    EXPECT_EQ(a.shardRecoveries, b.shardRecoveries);
    for (unsigned k = 0; k < kServeClasses; ++k) {
        const ServeClassStats &ca = a.classes[k];
        const ServeClassStats &cb = b.classes[k];
        EXPECT_EQ(ca.produced, cb.produced);
        EXPECT_EQ(ca.retired, cb.retired);
        EXPECT_EQ(ca.shedAdmission, cb.shedAdmission);
        EXPECT_EQ(ca.shedTimeout, cb.shedTimeout);
        EXPECT_EQ(ca.shedPoison, cb.shedPoison);
        ASSERT_EQ(ca.readLatency.buckets(), cb.readLatency.buckets());
        for (unsigned i = 0; i < ca.readLatency.buckets(); ++i)
            EXPECT_EQ(ca.readLatency.bucketCount(i),
                      cb.readLatency.bucketCount(i));
        EXPECT_EQ(ca.readLatency.underflow(),
                  cb.readLatency.underflow());
        EXPECT_EQ(ca.readLatency.overflow(),
                  cb.readLatency.overflow());
    }
}

TEST(ServeRuntime, EveryPresetAndRefreshModeRunsAudited)
{
    // Each shard's charge model, device and auditor must run at the
    // preset's bus clock, and every refresh policy must stay inside
    // the auditor's envelope on every generation.
    for (const DramGen gen : {DramGen::kDdr3_1600, DramGen::kDdr4_2400,
                              DramGen::kDdr5_4800}) {
        for (const RefreshMode mode :
             {RefreshMode::kAllBank, RefreshMode::kPerBank}) {
            for (const RefreshPolicy policy :
                 {RefreshPolicy::kInOrder, RefreshPolicy::kDarp,
                  RefreshPolicy::kSarp}) {
                if (mode == RefreshMode::kAllBank &&
                    policy != RefreshPolicy::kInOrder)
                    continue; // nothing to reorder
                ServeConfig cfg = smallConfig();
                cfg.deterministic = true;
                cfg.requestsPerProducer = 2000;
                cfg.experiment.audit = true;
                cfg.experiment.applyDramGen(gen, mode);
                cfg.experiment.controller.refreshPolicy = policy;
                const ServeResult res = runServe(cfg);

                SCOPED_TRACE(std::string(dramGenName(gen)) +
                             (mode == RefreshMode::kPerBank
                                  ? " per-bank "
                                  : " all-bank ") +
                             refreshPolicyName(policy));
                EXPECT_FALSE(res.failed);
                EXPECT_TRUE(res.audited);
                EXPECT_GT(res.auditCommandsChecked, 0u);
                EXPECT_EQ(res.auditViolations, 0u);
                EXPECT_TRUE(res.conserves());
                EXPECT_EQ(res.requestsRetired, res.requestsProduced);
            }
        }
    }
}

TEST(ServeRuntime, DrainOnStopConservesInFlight)
{
    // Threaded graceful-shutdown stress (also the TSan chaos case):
    // a burst storm plus a scheduled stall while real threads race
    // the watchdog.  On stop every in-flight request must have
    // drained — produced == retired + shed, per class.
    ServeConfig cfg = smallConfig();
    cfg.admission = AdmissionPolicy::kBoundedRetry;
    cfg.retryPushRounds = 64;
    cfg.chaos = *findChaosProfile("storm-stall");
    const ServeResult res = runServe(cfg);

    EXPECT_FALSE(res.failed);
    EXPECT_TRUE(res.conserves());
    EXPECT_EQ(res.requestsRetired + res.shedTotal(),
              res.requestsProduced);
}

} // namespace
} // namespace nuat
