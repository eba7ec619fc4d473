/**
 * @file
 * Memory-controller tests: end-to-end request timing, merging,
 * forwarding, coalescing, refresh forcing, the cached DARP refresh
 * verdicts, the events that wake a sleeping controller, and
 * statistics.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "charge/timing_derate.hh"
#include "dram/dram_spec.hh"
#include "mem/memory_controller.hh"
#include "sched/frfcfs_scheduler.hh"

namespace nuat {
namespace {

struct Completion
{
    Waiter waiter;
    Addr addr;
    Cycle dataAt;
};

class ControllerTest : public ::testing::Test
{
  protected:
    ControllerTest() : cell_(), sa_(cell_), derate_(sa_)
    {
        dev_ = std::make_unique<DramDevice>(DramGeometry{},
                                            TimingParams{}, derate_);
        mc_ = std::make_unique<MemoryController>(
            *dev_, std::make_unique<FrFcfsScheduler>(PagePolicy::kOpen));
        mc_->setReadCallback(
            [this](const Waiter &w, Addr a, Cycle at) {
                completions_.push_back(Completion{w, a, at});
            });
    }

    /** Tick until @p cycle (exclusive upper bound on issued work). */
    void
    runTo(Cycle cycle)
    {
        while (now_ < cycle)
            mc_->tick(now_++);
    }

    /** Tick until the controller drains (bounded). */
    void
    drain()
    {
        while (!mc_->idle() && now_ < 1000000)
            mc_->tick(now_++);
        ASSERT_TRUE(mc_->idle());
    }

    /** Line address of (rank 0, @p bank, @p row). */
    Addr
    addr(unsigned bank, unsigned row) const
    {
        DramCoord c;
        c.bank = BankId{bank};
        c.row = RowId{row};
        return mc_->mapping().compose(c);
    }

    Waiter
    waiter(std::uint64_t token) const
    {
        Waiter w;
        w.coreId = 0;
        w.token = token;
        return w;
    }

    CellModel cell_;
    SenseAmpModel sa_;
    TimingDerate derate_;
    std::unique_ptr<DramDevice> dev_;
    std::unique_ptr<MemoryController> mc_;
    std::vector<Completion> completions_;
    Cycle now_ = 0;
    const TimingParams tp_;
};

TEST_F(ControllerTest, ColdReadLatencyIsActPlusClPlusBurst)
{
    mc_->enqueueRead(0x10000, waiter(1), 0);
    drain();
    ASSERT_EQ(completions_.size(), 1u);
    // tick(0) issues the ACT (same-cycle arrival is schedulable),
    // column read at +tRCD, data tCL + tBL later.
    EXPECT_EQ(completions_[0].dataAt, tp_.tRCD + tp_.tCL + tp_.tBL);
    EXPECT_EQ(mc_->stats().readsCompleted, 1u);
}

TEST_F(ControllerTest, RowHitReadSkipsActivation)
{
    mc_->enqueueRead(0x10000, waiter(1), 0);
    mc_->enqueueRead(0x10040, waiter(2), 0); // same row, next line
    drain();
    ASSERT_EQ(completions_.size(), 2u);
    EXPECT_EQ(completions_[1].dataAt - completions_[0].dataAt,
              tp_.tCCD);
    EXPECT_EQ(mc_->stats().rowHitReads, 1u);
    EXPECT_EQ(dev_->counters().acts, 1u);
}

TEST_F(ControllerTest, SameLineReadsMerge)
{
    mc_->enqueueRead(0x10000, waiter(1), 0);
    mc_->enqueueRead(0x10008, waiter(2), 0); // same cache line
    drain();
    ASSERT_EQ(completions_.size(), 2u); // both waiters notified
    EXPECT_EQ(completions_[0].dataAt, completions_[1].dataAt);
    EXPECT_EQ(mc_->stats().readsMerged, 1u);
    EXPECT_EQ(dev_->counters().reads, 1u); // one DRAM access
}

TEST_F(ControllerTest, ReadForwardedFromWriteQueue)
{
    mc_->enqueueWrite(0x20000, 0);
    mc_->enqueueRead(0x20000, waiter(9), 0);
    drain();
    ASSERT_GE(completions_.size(), 1u);
    EXPECT_EQ(completions_[0].dataAt, 0 + ControllerConfig{}.forwardLatency);
    EXPECT_EQ(mc_->stats().readsForwarded, 1u);
}

TEST_F(ControllerTest, WritesCoalesce)
{
    mc_->enqueueWrite(0x30000, 0);
    mc_->enqueueWrite(0x30008, 0); // same line
    drain();
    EXPECT_EQ(mc_->stats().writesCoalesced, 1u);
    EXPECT_EQ(dev_->counters().writes, 1u);
}

TEST_F(ControllerTest, RowConflictPrechargesAndReactivates)
{
    // Two reads to different rows of the same bank.
    const Addr row_a = 0x10000;
    const Addr row_b = 0x10000 + 0x2000ull * 8; // next row, same bank
    mc_->enqueueRead(row_a, waiter(1), 0);
    drain();
    completions_.clear();
    const Cycle start = now_;
    mc_->enqueueRead(row_b, waiter(2), now_);
    drain();
    ASSERT_EQ(completions_.size(), 1u);
    // PRE (tRP) + ACT (tRCD) + CL + BL, give or take issue alignment.
    EXPECT_GE(completions_[0].dataAt - start,
              tp_.tRP + tp_.tRCD + tp_.tCL + tp_.tBL);
    EXPECT_EQ(dev_->counters().pres, 1u);
}

TEST_F(ControllerTest, BackpressureReportsNoRoom)
{
    // Fill the read queue with reads to distinct lines in distinct
    // rows so nothing merges.
    std::size_t accepted = 0;
    for (std::uint64_t i = 0; i < 100; ++i) {
        const Addr a = i * 0x2000ull * 8; // distinct banks/rows
        if (!mc_->canAcceptRead(a))
            break;
        mc_->enqueueRead(a, waiter(i), 0);
        ++accepted;
    }
    EXPECT_EQ(accepted, ControllerConfig{}.readQueueCapacity);
    drain();
    EXPECT_EQ(completions_.size(), accepted);
}

TEST_F(ControllerTest, RefreshForcedOnSchedule)
{
    // Run long enough to cross two REF deadlines with an open row.
    mc_->enqueueRead(0x10000, waiter(1), 0);
    runTo(2 * tp_.refInterval() + 1000);
    EXPECT_GE(dev_->counters().refreshes, 2u);
}

TEST_F(ControllerTest, RefreshDrainsOpenBanksFirst)
{
    // Keep a row open right up to the refresh deadline; the controller
    // must precharge it and still refresh within the slack window.
    const Cycle due = dev_->refresh(RankId{0}).nextDueAt();
    runTo(due - 5);
    mc_->enqueueRead(0x10000, waiter(1), now_);
    runTo(due + tp_.tRAS + tp_.tRP + tp_.tRFC + 50);
    EXPECT_EQ(dev_->counters().refreshes, 1u);
}

TEST_F(ControllerTest, HitRateEq3MatchesCounters)
{
    mc_->enqueueRead(0x10000, waiter(1), 0);
    mc_->enqueueRead(0x10040, waiter(2), 0);
    mc_->enqueueRead(0x10080, waiter(3), 0);
    drain();
    // 3 column accesses, 1 activation -> (3 - 1) / 3.
    EXPECT_NEAR(mc_->hitRateEq3(), 2.0 / 3.0, 1e-9);
}

TEST_F(ControllerTest, LatencyStatsAccumulate)
{
    mc_->enqueueRead(0x10000, waiter(1), 0);
    drain();
    const double lat = mc_->stats().avgReadLatency();
    EXPECT_DOUBLE_EQ(lat,
                     static_cast<double>(tp_.tRCD + tp_.tCL + tp_.tBL));
}

TEST_F(ControllerTest, IdleWhenDrained)
{
    EXPECT_TRUE(mc_->idle());
    mc_->enqueueWrite(0x40, 0);
    EXPECT_FALSE(mc_->idle());
    drain();
    EXPECT_TRUE(mc_->idle());
}

TEST_F(ControllerTest, ArrivalWakesASleepingController)
{
    // Bank 0 opens row 1 for a read; a second read to row 2 then needs
    // a PRE that must wait out the row's tRAS, and the controller
    // sleeps on that wait.
    mc_->enqueueRead(addr(0, 1), waiter(1), 0);
    mc_->enqueueRead(addr(0, 2), waiter(2), 0);
    while (dev_->counters().reads == 0)
        mc_->tick(now_++);
    mc_->tick(now_++); // finds nothing legal and goes to sleep
    const Cycle asleep_until = mc_->wakeAt();
    ASSERT_GT(asleep_until, now_ + 4) << "should sleep on bank 0's tRAS";

    // A read for idle bank 1 arrives meanwhile.  Its ACT must issue at
    // its own earliest legal cycle, as without the wake, not when the
    // controller would next have looked.
    mc_->enqueueRead(addr(1, 7), waiter(3), now_);
    Command act;
    act.type = CmdType::kAct;
    act.bank = BankId{1};
    act.row = RowId{7};
    act.actTiming = RowTiming{tp_.tRCD, tp_.tRAS, tp_.tRC};
    const Cycle expect = std::max(now_, dev_->earliestIssueAt(act));
    ASSERT_LT(expect, asleep_until);
    while (dev_->bank(RankId{0}, BankId{1}).isClosed())
        mc_->tick(now_++);
    EXPECT_EQ(now_ - 1, expect);
}

TEST_F(ControllerTest, CandidateIssueBoundsTheWake)
{
    // A scheduler-picked issue bounds the wake from the issued bank's
    // new state instead of resetting it: after the ACT for a lone read
    // to a closed bank, nothing can issue before the column read's
    // tRCD, and the read issues exactly there.
    mc_->enqueueRead(addr(0, 1), waiter(1), 0);
    mc_->tick(now_++);
    ASSERT_EQ(dev_->counters().acts, 1u);
    EXPECT_EQ(mc_->wakeAt(), tp_.tRCD);
    while (dev_->counters().reads == 0)
        mc_->tick(now_++);
    EXPECT_EQ(now_ - 1, tp_.tRCD);
}

TEST_F(ControllerTest, CandidateIssueRebindsTheBankNotPicked)
{
    // Two reads to closed banks of one rank: both ACTs are candidates
    // and the older one issues.  The other bank had a candidate this
    // tick, so it is re-bounded from the ACT kind its walk evaluated,
    // now behind the rank's tRRD gate.
    mc_->enqueueRead(addr(0, 1), waiter(1), 0);
    mc_->enqueueRead(addr(1, 1), waiter(2), 0);
    mc_->tick(now_++);
    ASSERT_EQ(dev_->counters().acts, 1u);
    ASSERT_FALSE(dev_->bank(RankId{0}, BankId{0}).isClosed());
    ASSERT_LT(tp_.tRRD, tp_.tRCD);
    EXPECT_EQ(mc_->wakeAt(), tp_.tRRD);
    while (dev_->counters().acts < 2)
        mc_->tick(now_++);
    EXPECT_EQ(now_ - 1, tp_.tRRD);
}

TEST(ControllerWakeTest, OtherRankRebindsToTheCommandBus)
{
    // The same with the second read on another rank: no rank gate
    // applies, so the bank not picked re-bounds to the command bus,
    // one cycle after the ACT.
    const CellModel cell;
    const SenseAmpModel sa(cell);
    const TimingDerate derate(sa);
    DramGeometry geom;
    geom.ranks = 2;
    DramDevice dev(geom, TimingParams{}, derate);
    MemoryController mc(
        dev, std::make_unique<FrFcfsScheduler>(PagePolicy::kOpen));
    auto addr = [&](unsigned rank, unsigned bank) {
        DramCoord c;
        c.rank = RankId{rank};
        c.bank = BankId{bank};
        c.row = RowId{1};
        return mc.mapping().compose(c);
    };
    mc.enqueueRead(addr(0, 0), Waiter{}, 0);
    mc.enqueueRead(addr(1, 0), Waiter{}, 0);
    mc.tick(0);
    ASSERT_EQ(dev.counters().acts, 1u);
    ASSERT_FALSE(dev.bank(RankId{0}, BankId{0}).isClosed());
    EXPECT_EQ(mc.wakeAt(), 1u);
    mc.tick(1);
    EXPECT_FALSE(dev.bank(RankId{1}, BankId{0}).isClosed());
}

TEST_F(ControllerTest, RefreshPathIssuesResetTheWake)
{
    // The commands handleRefresh sends on its own, the forced PRE and
    // the REF, follow no walk of their bank, so they reset the wake.
    const Cycle due = dev_->refresh(RankId{0}).nextDueAt();
    runTo(due - 5);
    mc_->enqueueRead(addr(0, 1), waiter(1), now_);
    std::uint64_t pres = 0;
    std::uint64_t refs = 0;
    while (refs == 0 && now_ < due + tp_.tRAS + tp_.tRP + 100) {
        mc_->tick(now_++);
        if (dev_->counters().pres != pres) {
            pres = dev_->counters().pres;
            EXPECT_EQ(mc_->wakeAt(), 0u) << "forced PRE at " << now_ - 1;
        }
        if (dev_->counters().refreshes != refs) {
            refs = dev_->counters().refreshes;
            EXPECT_EQ(mc_->wakeAt(), 0u) << "REF at " << now_ - 1;
        }
    }
    EXPECT_EQ(pres, 1u) << "the open row is drained by one forced PRE";
    EXPECT_EQ(refs, 1u);
}

TEST(ControllerDarpTest, EnqueueDefersAnIdleBanksPullIn)
{
    // DARP pulls an idle bank's REFsb forward while the controller is
    // busy elsewhere and defers it once the bank has queued demand.
    // The verdict is cached between events, so a request arriving for
    // the next bank in line must cancel that bank's pull-in on the
    // very next tick, exactly as a fresh wantRefresh() would.
    const DramSpec &spec = DramSpec::preset(DramGen::kDdr5_4800);
    const Clock clock{spec.busMhz};
    TimingParams tp = spec.timing;
    tp.refreshMode = RefreshMode::kPerBank;
    NominalTiming nominal;
    nominal.trcd = tp.tRCD;
    nominal.tras = tp.tRAS;
    nominal.trp = tp.tRP;
    const CellModel cell;
    const SenseAmpModel sa(cell);
    const TimingDerate derate(sa, nominal, clock);
    DramDevice dev(spec.geometry, tp, derate, clock);
    ControllerConfig cfg;
    cfg.refreshPolicy = RefreshPolicy::kDarp;
    MemoryController mc(
        dev, std::make_unique<FrFcfsScheduler>(PagePolicy::kOpen), cfg);

    const RankId rank{0};
    auto addr = [&](unsigned bank, unsigned row) {
        DramCoord c;
        c.bank = BankId{bank};
        c.row = RowId{row};
        return mc.mapping().compose(c);
    };
    auto refreshes = [&](unsigned bank) {
        return dev.refreshFor(rank, BankId{bank}).refreshesDone();
    };

    // Row conflicts keep bank 1 busy, so the controller is never idle
    // and every other bank may pull its refresh in.
    for (unsigned row = 0; row < 8; ++row)
        mc.enqueueRead(addr(1, row), Waiter{}, 0);
    Cycle now = 0;
    mc.tick(now++);
    ASSERT_EQ(refreshes(0), 1u) << "bank 0 should be pulled in first";
    ASSERT_EQ(dev.refreshFor(rank, BankId{0}).pulledIn(), 1u);

    // Bank 2 is next in line once tREFSBRD has passed.
    const Cycle next = dev.rank(rank).lastRefsbAt + tp.tREFSBRD;
    while (now < next)
        mc.tick(now++);
    ASSERT_EQ(refreshes(2), 0u);
    ASSERT_EQ(refreshes(3), 0u);

    mc.enqueueRead(addr(2, 0), Waiter{}, now);
    mc.tick(now);
    EXPECT_EQ(refreshes(2), 0u) << "bank 2 has demand: its REFsb waits";
    EXPECT_EQ(refreshes(3), 1u) << "the next idle bank takes the slot";
    EXPECT_EQ(dev.rank(rank).lastRefsbAt, now);
}

TEST(ControllerDarpTest, PullInVerdictFlipWakesTheController)
{
    // Bank 2 is suppressed, waiting for its pulled-in REFsb, while the
    // controller sleeps on bank 1's tRAS.  A read arriving for bank 2
    // cancels the pull-in; that verdict flip must wake the controller
    // so the read's ACT issues at once, not at the next refresh.
    const DramSpec &spec = DramSpec::preset(DramGen::kDdr5_4800);
    const Clock clock{spec.busMhz};
    TimingParams tp = spec.timing;
    tp.refreshMode = RefreshMode::kPerBank;
    NominalTiming nominal;
    nominal.trcd = tp.tRCD;
    nominal.tras = tp.tRAS;
    nominal.trp = tp.tRP;
    const CellModel cell;
    const SenseAmpModel sa(cell);
    const TimingDerate derate(sa, nominal, clock);
    DramDevice dev(spec.geometry, tp, derate, clock);
    ControllerConfig cfg;
    cfg.refreshPolicy = RefreshPolicy::kDarp;
    MemoryController mc(
        dev, std::make_unique<FrFcfsScheduler>(PagePolicy::kOpen), cfg);
    auto addr = [&](unsigned bank, unsigned row) {
        DramCoord c;
        c.bank = BankId{bank};
        c.row = RowId{row};
        return mc.mapping().compose(c);
    };

    for (unsigned row = 0; row < 8; ++row)
        mc.enqueueRead(addr(1, row), Waiter{}, 0);
    Cycle now = 0;
    while (dev.counters().reads == 0)
        mc.tick(now++);
    mc.tick(now++); // finds nothing legal and goes to sleep
    const RankId rank{0};
    const Cycle next_refsb = dev.rank(rank).lastRefsbAt + tp.tREFSBRD;
    ASSERT_GT(mc.wakeAt(), now + 4) << "should sleep on bank 1's tRAS";
    ASSERT_GT(next_refsb, now + 4);
    ASSERT_EQ(dev.refreshFor(rank, BankId{2}).refreshesDone(), 0u);

    mc.enqueueRead(addr(2, 0), Waiter{}, now);
    Command act;
    act.type = CmdType::kAct;
    act.bank = BankId{2};
    act.row = RowId{0};
    act.actTiming = RowTiming{tp.tRCD, tp.tRAS, tp.tRC};
    const Cycle expect = std::max(now, dev.earliestIssueAt(act));
    ASSERT_LT(expect, next_refsb);
    while (dev.bank(rank, BankId{2}).isClosed())
        mc.tick(now++);
    EXPECT_EQ(now - 1, expect);
    EXPECT_EQ(dev.refreshFor(rank, BankId{2}).refreshesDone(), 0u);
}

} // namespace
} // namespace nuat
