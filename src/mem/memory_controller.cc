#include "memory_controller.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/metrics.hh"

namespace nuat {

/** Raw metric handles, resolved once at attach time (see metrics.hh:
 *  all hot-path updates are plain increments through these). */
struct MemoryController::CtrlMetrics
{
    Counter *cmdAct;
    Counter *cmdPre;
    Counter *cmdRead;
    Counter *cmdReadAp;
    Counter *cmdWrite;
    Counter *cmdWriteAp;
    Counter *cmdRef;
    Counter *cmdRefsb;
    Counter *forcedPre; //!< PREs forced by refresh draining
    Counter *readsForwarded;
    Counter *readsMerged;
    Counter *writesCoalesced;
    Counter *readsCompleted;
    Histogram *readLatency;
    Histogram *readqOccupancy;
    Histogram *writeqOccupancy;
    Gauge *readqLen;
    Gauge *writeqLen;

    /** The issue counter for @p type. */
    Counter *
    command(CmdType type) const
    {
        switch (type) {
          case CmdType::kAct:
            return cmdAct;
          case CmdType::kPre:
            return cmdPre;
          case CmdType::kRead:
            return cmdRead;
          case CmdType::kWrite:
            return cmdWrite;
          case CmdType::kReadAp:
            return cmdReadAp;
          case CmdType::kWriteAp:
            return cmdWriteAp;
          case CmdType::kRef:
            return cmdRef;
          case CmdType::kRefsb:
            break;
        }
        return cmdRefsb;
    }
};

MemoryController::~MemoryController() = default;

void
MemoryController::attachMetrics(MetricRegistry &registry,
                                unsigned channel)
{
    nuat_assert(!metrics_, "(attachMetrics called twice)");
    const std::string p = "ctrl" + std::to_string(channel) + ".";
    metrics_ = std::make_unique<CtrlMetrics>();
    CtrlMetrics &m = *metrics_;
    m.cmdAct = &registry.counter(p + "cmd_act", "ACT commands issued");
    m.cmdPre =
        &registry.counter(p + "cmd_pre", "explicit PRE commands issued");
    m.cmdRead = &registry.counter(p + "cmd_read", "READ commands issued");
    m.cmdReadAp = &registry.counter(p + "cmd_read_ap",
                                    "READ+auto-precharge commands");
    m.cmdWrite =
        &registry.counter(p + "cmd_write", "WRITE commands issued");
    m.cmdWriteAp = &registry.counter(p + "cmd_write_ap",
                                     "WRITE+auto-precharge commands");
    m.cmdRef = &registry.counter(p + "cmd_ref", "REF commands issued");
    m.cmdRefsb = &registry.counter(p + "cmd_refsb",
                                   "REFSB (per-bank refresh) commands");
    m.forcedPre = &registry.counter(
        p + "forced_pre", "PREs forced while draining for refresh");
    m.readsForwarded = &registry.counter(
        p + "reads_forwarded", "reads served from the write queue");
    m.readsMerged = &registry.counter(
        p + "reads_merged", "reads merged onto a pending access");
    m.writesCoalesced = &registry.counter(
        p + "writes_coalesced", "writes coalesced in the write queue");
    m.readsCompleted =
        &registry.counter(p + "reads_completed", "reads completed");
    m.readLatency = &registry.histogram(
        p + "read_latency", 0.0, 8.0, 64,
        "read latency enqueue->data [cycles], 8-cycle buckets");
    m.readqOccupancy = &registry.histogram(
        p + "readq_occupancy", 0.0, 1.0, 64,
        "read-queue length sampled every tick");
    m.writeqOccupancy = &registry.histogram(
        p + "writeq_occupancy", 0.0, 1.0, 64,
        "write-queue length sampled every tick");
    m.readqLen =
        &registry.gauge(p + "readq_len", "read-queue length now");
    m.writeqLen =
        &registry.gauge(p + "writeq_len", "write-queue length now");
    registry.addSampleHook([this] {
        metrics_->readqLen->set(static_cast<double>(readQ_.size()));
        metrics_->writeqLen->set(static_cast<double>(writeQ_.size()));
    });
    scheduler_->attachMetrics(registry,
                              "sched" + std::to_string(channel) + ".");
}

MemoryController::MemoryController(DramDevice &dev,
                                   std::unique_ptr<Scheduler> scheduler,
                                   const ControllerConfig &config)
    : dev_(dev), scheduler_(std::move(scheduler)), cfg_(config),
      mapping_(config.mapping,
               [&] {
                   DramGeometry g = dev.geometry();
                   g.channels = config.channels;
                   return g;
               }()),
      readQ_(config.readQueueCapacity), writeQ_(config.writeQueueCapacity)
{
    nuat_assert(scheduler_ != nullptr);
    nuat_assert(cfg_.writeQueueLowWatermark < cfg_.writeQueueHighWatermark);
    nuat_assert(cfg_.writeQueueHighWatermark < cfg_.writeQueueCapacity);

    const unsigned ranks = dev_.geometry().ranks;
    const unsigned banks = dev_.geometry().banks;
    demand_.reset(ranks, banks);
    readQ_.attachDemandTracker(&demand_);
    writeQ_.attachDemandTracker(&demand_);
    slots_.resize(static_cast<std::size_t>(ranks) * banks);

    // Out-of-order refresh policies only exist on the REFsb substrate;
    // under all-bank REF the config knob degenerates to in-order.
    const TimingParams &tp = dev_.timing();
    if (tp.refreshMode == RefreshMode::kPerBank)
        policy_ = cfg_.refreshPolicy;
    if (policy_ != RefreshPolicy::kInOrder) {
        // Worst case between "refresh forced" and "REFsb lands": the
        // open row finishes its access (tRAS-class recovery + write
        // recovery), a forced PRE closes it, and the REFsb waits out
        // the rank's same-rank spacing behind every other bank, plus a
        // same-cycle-scan slack term.
        forceMargin_ = tp.tRAS + tp.tCWL + tp.tBL + tp.tWR + tp.tRP +
                       static_cast<Cycle>(banks) * tp.tREFSBRD +
                       tp.tRFCpb + 64;
        nuat_assert(forceMargin_ < tp.refPostponeWindow(),
                    "(postponement window too small to defer refresh)");
    }
}

Addr
MemoryController::lineAddr(Addr addr) const
{
    return addr & ~static_cast<Addr>(dev_.geometry().lineBytes - 1);
}

SchedContext
MemoryController::makeContext(Cycle now) const
{
    SchedContext ctx;
    ctx.now = now;
    ctx.dev = &dev_;
    ctx.readQLen = readQ_.size();
    ctx.writeQLen = writeQ_.size();
    ctx.wqHighWatermark = cfg_.writeQueueHighWatermark;
    ctx.wqLowWatermark = cfg_.writeQueueLowWatermark;
    ctx.refreshPolicy = policy_;
    return ctx;
}

bool
MemoryController::canAcceptRead(Addr addr) const
{
    const Addr line = lineAddr(addr);
    if (writeQ_.findLine(line) || readQ_.findLine(line))
        return true; // forwarded or merged; no new queue slot needed
    for (const auto &f : inFlight_) {
        if (f.addr == line)
            return true; // merges onto the in-flight access
    }
    return readQ_.hasRoom();
}

bool
MemoryController::canAcceptWrite(Addr addr) const
{
    const Addr line = lineAddr(addr);
    return writeQ_.findLine(line) != nullptr || writeQ_.hasRoom();
}

void
MemoryController::enqueueRead(Addr addr, const Waiter &waiter, Cycle now)
{
    confined_.assertOwned("MemoryController");
    const Addr line = lineAddr(addr);
    ++stats_.readsAccepted;

    // Forward from a pending write: the controller already holds the
    // line's data, no DRAM access needed.
    if (writeQ_.findLine(line)) {
        ++stats_.readsForwarded;
        ++stats_.readsCompleted;
        NUAT_METRIC(if (metrics_) {
            metrics_->readsForwarded->inc();
            metrics_->readsCompleted->inc();
            metrics_->readLatency->sample(
                static_cast<double>(cfg_.forwardLatency));
        });
        stats_.readLatencySum += static_cast<double>(cfg_.forwardLatency);
        stats_.readLatencyHist.sample(
            static_cast<double>(cfg_.forwardLatency));
        inFlight_.push_back(
            PendingCompletion{now + cfg_.forwardLatency, line, {waiter}});
        return;
    }

    // Merge onto a pending read to the same line.
    if (Request *pending = readQ_.findLine(line)) {
        ++stats_.readsMerged;
        NUAT_METRIC(if (metrics_) metrics_->readsMerged->inc());
        pending->waiters.push_back(waiter);
        return;
    }
    for (auto &f : inFlight_) {
        if (f.addr == line) {
            ++stats_.readsMerged;
            NUAT_METRIC(if (metrics_) metrics_->readsMerged->inc());
            f.waiters.push_back(waiter);
            return;
        }
    }

    nuat_assert(readQ_.hasRoom(), "(enqueueRead without canAcceptRead)");
    queueRequest(line, false, now).waiters.push_back(waiter);
}

void
MemoryController::enqueueWrite(Addr addr, Cycle now)
{
    confined_.assertOwned("MemoryController");
    const Addr line = lineAddr(addr);
    ++stats_.writesAccepted;

    if (writeQ_.findLine(line)) {
        ++stats_.writesCoalesced; // last-writer-wins, one DRAM write
        NUAT_METRIC(if (metrics_) metrics_->writesCoalesced->inc());
        return;
    }

    nuat_assert(writeQ_.hasRoom(), "(enqueueWrite without canAcceptWrite)");
    queueRequest(line, true, now);
}

Request &
MemoryController::queueRequest(Addr line, bool is_write, Cycle now)
{
    auto owned = std::make_unique<Request>();
    Request &req = *owned;
    req.id = nextRequestId_++;
    req.isWrite = is_write;
    req.addr = line;
    const DramCoord c = mapping_.decompose(line);
    req.rank = c.rank;
    req.bank = c.bank;
    req.row = c.row;
    req.col = c.col;
    req.arrivalAt = now;
    (is_write ? writeQ_ : readQ_).push(std::move(owned));
    noteDemandChange(req.rank, req.bank);

    // Lower the wake.  The new request can add only its own candidate:
    // joining the open row's demand or an ACT run only suppresses one,
    // and a candidate it lets through has its bank's kind of command,
    // so the same earliest-legal cycle.  A bank draining for refresh
    // adds none until its verdict flips, which resets the wake.
    BankSlot &s = slotOf(req.rank, req.bank);
    if (!s.wantRefresh) {
        const Cycle at =
            dev_.earliestIssueAt(commandFor(req, kindFor(req)));
        s.readyAt = std::min(s.readyAt, at);
        wakeAt_ = std::min(wakeAt_, at);
    }
    return req;
}

void
MemoryController::processCompletions(Cycle now)
{
    for (std::size_t i = 0; i < inFlight_.size();) {
        if (inFlight_[i].dataAt <= now) {
            if (readCallback_) {
                for (const Waiter &w : inFlight_[i].waiters)
                    readCallback_(w, inFlight_[i].addr,
                                  inFlight_[i].dataAt);
            }
            inFlight_[i] = std::move(inFlight_.back());
            inFlight_.pop_back();
        } else {
            ++i;
        }
    }
}

bool
MemoryController::handleRefresh(Cycle now)
{
    if (wantingBanks_ == 0)
        return false;
    if (dev_.timing().refreshMode == RefreshMode::kPerBank)
        return handlePerBankRefresh(now);

    const unsigned banks = dev_.geometry().banks;
    for (unsigned r = 0; r < dev_.geometry().ranks; ++r) {
        const RankId rank{r};
        // All banks of the rank share its one engine: bank 0's verdict
        // is the rank's.
        if (!slots_[r * banks].wantRefresh)
            continue;

        Command ref;
        ref.type = CmdType::kRef;
        ref.rank = rank;
        if (dev_.canIssue(ref, now)) {
            issueCommand(ref, now);
            return true;
        }

        // Drain open banks with forced precharges so REF can proceed.
        for (unsigned b = 0; b < banks; ++b) {
            if (tryForcedPre(rank, BankId{b}, now))
                return true;
        }
        // Nothing issuable yet (tRAS / tRTP / tWR still running); the
        // rank's candidates are suppressed below, so progress is
        // guaranteed.  Other ranks may still be scheduled.
    }
    return false;
}

bool
MemoryController::tryRefreshBank(RankId rank, BankId bank, Cycle now)
{
    Command refsb;
    refsb.type = CmdType::kRefsb;
    refsb.rank = rank;
    refsb.bank = bank;
    if (dev_.canIssue(refsb, now)) {
        issueCommand(refsb, now);
        return true;
    }
    // If the target bank is still busy (tRAS / tRTP / tWR / tREFSBRD),
    // its candidates stay suppressed in enumerate, so it quiesces.
    return tryForcedPre(rank, bank, now);
}

bool
MemoryController::tryForcedPre(RankId rank, BankId bank, Cycle now)
{
    Command pre;
    pre.type = CmdType::kPre;
    pre.rank = rank;
    pre.bank = bank;
    if (!dev_.canIssue(pre, now))
        return false; // closed, or the open row is still recovering
    issueCommand(pre, now);
    NUAT_METRIC(if (metrics_) metrics_->forcedPre->inc());
    return true;
}

bool
MemoryController::refreshForced(RankId rank, BankId bank,
                                Cycle now) const
{
    return now + forceMargin_ >=
           dev_.refreshFor(rank, bank).deadlineAt();
}

bool
MemoryController::wantRefresh(RankId rank, BankId bank, Cycle now) const
{
    const RefreshEngine &eng = dev_.refreshFor(rank, bank);
    if (policy_ == RefreshPolicy::kInOrder)
        return eng.due(now);

    // DARP/SARP: the postponement deadline overrides everything.
    if (refreshForced(rank, bank, now))
        return true;
    // Defer: the bank has queued demand and window to spare.
    if (demand_.bankDemand(rank, bank) > 0)
        return false;
    // No demand for this bank.  At the nominal deadline, refresh — a
    // fully idle system must keep the in-order cadence (the idle
    // fast-forward jumps to exactly these deadlines).
    if (eng.due(now))
        return true;
    // Pull in: only while the controller is busy elsewhere.  An idle
    // controller must not refresh early — the fast-forward skips spans
    // where provably nothing happens, and results must be identical
    // with the optimization off.
    return eng.canPullIn(now) && readQ_.size() + writeQ_.size() != 0;
}

void
MemoryController::fillVerdict(RankId rank, BankId bank, Cycle now)
{
    BankSlot &s = slotOf(rank, bank);
    const bool wanted = s.wantRefresh;
    wantingBanks_ -= s.wantRefresh;
    s.refreshForced = policy_ != RefreshPolicy::kInOrder &&
                      refreshForced(rank, bank, now);
    s.wantRefresh = wantRefresh(rank, bank, now);
    s.verdictStale = false;
    wantingBanks_ += s.wantRefresh;
    if (s.wantRefresh != wanted) {
        // The bank starts or stops draining for refresh, which adds or
        // drops all its candidates at once: walk it at the next tick.
        s.readyAt = 0;
        wakeAt_ = 0;
    }

    // The cycle-driven inputs: each threshold still ahead flips one
    // comparison in wantRefresh/refreshForced when the cycle reaches
    // it.  Thresholds already passed stay passed until a refresh moves
    // the schedule, which refills every bank anyway.
    const RefreshEngine &eng = dev_.refreshFor(rank, bank);
    auto ahead = [&](Cycle at) {
        if (at > now && at < verdictsUntil_)
            verdictsUntil_ = at;
    };
    ahead(eng.nextDueAt());
    if (policy_ != RefreshPolicy::kInOrder) {
        ahead(eng.deadlineAt() - forceMargin_);
        ahead(eng.earliestIssueAt());
    }
}

void
MemoryController::refreshVerdicts(Cycle now)
{
    const unsigned ranks = dev_.geometry().ranks;
    const unsigned banks = dev_.geometry().banks;
    const bool all = now >= verdictsUntil_;
    if (!all && !verdictsStale_)
        return;
    if (all)
        verdictsUntil_ = kNeverCycle;
    for (unsigned r = 0; r < ranks; ++r) {
        for (unsigned b = 0; b < banks; ++b) {
            if (all || slots_[r * banks + b].verdictStale)
                fillVerdict(RankId{r}, BankId{b}, now);
        }
    }
    verdictsStale_ = false;
}

void
MemoryController::noteDemandChange(RankId rank, BankId bank)
{
    // Only DARP/SARP verdicts read demand, and only as "bank has any"
    // and "either queue has any": a change that cannot flip either
    // leaves the cache exact.
    if (policy_ == RefreshPolicy::kInOrder)
        return;
    if (readQ_.size() + writeQ_.size() <= 1) {
        verdictsUntil_ = 0; // queue emptiness may have flipped
    } else if (demand_.bankDemand(rank, bank) <= 1) {
        slotOf(rank, bank).verdictStale = true;
        verdictsStale_ = true;
    }
}

void
MemoryController::checkVerdicts(Cycle now) const
{
    unsigned wanting = 0;
    const unsigned banks = dev_.geometry().banks;
    for (unsigned r = 0; r < dev_.geometry().ranks; ++r) {
        for (unsigned b = 0; b < banks; ++b) {
            const RankId rank{r};
            const BankId bank{b};
            const BankSlot &s = slots_[r * banks + b];
            nuat_assert(s.wantRefresh == wantRefresh(rank, bank, now),
                        "(stale refresh verdict: rank %u bank %u at "
                        "cycle %llu)",
                        r, b, static_cast<unsigned long long>(now));
            nuat_assert(policy_ == RefreshPolicy::kInOrder ||
                            s.refreshForced ==
                                refreshForced(rank, bank, now),
                        "(stale forced verdict: rank %u bank %u)", r, b);
            wanting += s.wantRefresh;
        }
    }
    nuat_assert(wanting == wantingBanks_);
}

bool
MemoryController::handlePerBankRefresh(Cycle now)
{
    // Per-bank refresh only drains the *target* bank: the rest of the
    // rank keeps servicing requests during the REFsb's tRFCpb window —
    // the property the DDR5 sweep exists to measure.
    const unsigned ranks = dev_.geometry().ranks;
    const unsigned banks = dev_.geometry().banks;

    // In order: every due bank in (rank, bank) order.  Out-of-order
    // (DARP/SARP): deadline-critical banks first — they can no longer
    // be deferred, so they must not lose the slot to an opportunistic
    // pull-in elsewhere.  Then everything else the policy approves
    // (due idle banks, pull-ins).  kInOrder never sets refreshForced,
    // so its first pass finds nothing.
    for (int pass = 0; pass < 2; ++pass) {
        for (unsigned r = 0; r < ranks; ++r) {
            for (unsigned b = 0; b < banks; ++b) {
                const BankSlot &s = slots_[r * banks + b];
                if (pass == 0 ? !s.refreshForced
                              : (s.refreshForced || !s.wantRefresh))
                    continue;
                if (tryRefreshBank(RankId{r}, BankId{b}, now))
                    return true;
                // Keep scanning: another bank may be issuable now.
            }
        }
    }
    return false;
}

MemoryController::LegalKind
MemoryController::kindFor(const Request &req) const
{
    const BankState &b = dev_.bank(req.rank, req.bank);
    if (b.openRow() == req.row)
        return req.isWrite ? kLegalWrite : kLegalRead;
    return b.isClosed() ? kLegalAct : kLegalPre;
}

Command
MemoryController::commandFor(const Request &req, LegalKind kind) const
{
    Command cmd;
    cmd.rank = req.rank;
    cmd.bank = req.bank;
    switch (kind) {
      case kLegalAct:
        cmd.type = CmdType::kAct;
        cmd.row = req.row;
        cmd.actTiming = RowTiming{dev_.timing().tRCD, dev_.timing().tRAS,
                                  dev_.timing().tRC};
        break;
      case kLegalRead:
      case kLegalWrite:
        cmd.type = kind == kLegalWrite ? CmdType::kWrite : CmdType::kRead;
        cmd.col = req.col;
        cmd.row = req.row;
        break;
      case kLegalPre:
      case kLegalKinds:
        cmd.type = CmdType::kPre;
        break;
    }
    return cmd;
}

void
MemoryController::walkRequest(Request &req, Cycle now,
                              std::vector<Candidate> &out)
{
    BankSlot &s = slotOf(req.rank, req.bank);
    if (s.wantRefresh)
        return; // rank (or this bank) is draining for refresh

    // Queued requests on the bank's open row, from the incrementally
    // maintained tracker (updated on queue push/remove).  Used both to
    // suppress precharges of rows with pending hits (FR-FCFS
    // semantics; NUAT's HIT element agrees) and to tell close-page
    // policies whether a column access is the row's last pending one.
    auto openRowDemand = [&] {
        if (!s.openRowDemandKnown) {
            s.openRowDemand = demand_.demandFor(
                req.rank, req.bank, dev_.bank(req.rank, req.bank).openRow());
            s.openRowDemandKnown = true;
        }
        return s.openRowDemand;
    };

    const LegalKind kind = kindFor(req);
    if (kind == kLegalAct && s.actSeenRow == req.row)
        return; // one ACT candidate per (bank, row) run
    // Row conflict: precharge, unless the open row still has pending
    // hits or a PRE candidate already exists.
    if (kind == kLegalPre && (s.preSeen || openRowDemand() > 0))
        return;

    Candidate cand;
    cand.cmd = commandFor(req, kind);
    const auto bit = static_cast<std::uint8_t>(1u << kind);
    if (!(s.legalKnown & bit)) {
        s.legalKnown |= bit;
        s.legalAt[kind] = dev_.earliestIssueAt(cand.cmd);
    }
    if (s.legalAt[kind] > now)
        return;

    cand.req = &req;
    cand.isWrite = req.isWrite;
    if (kind == kLegalAct) {
        s.actSeenRow = req.row;
    } else if (kind == kLegalPre) {
        s.preSeen = true;
    } else {
        cand.isRowHit = true;
        cand.morePendingToRow = openRowDemand() > 1;
    }
    out.push_back(cand);
}

void
MemoryController::enumerate(Cycle now, std::vector<Candidate> &out)
{
    out.clear();

    // Walk each bank whose readyAt has come: its reads, then its
    // writes, each in arrival order, so every bank sees its requests
    // in the same order as a walk of the read queue, then the write
    // queue.  A bank not walked has no legal command before its
    // readyAt, which bounds the wake.
    const unsigned banks = dev_.geometry().banks;
    Cycle wake = kNeverCycle;
    for (unsigned r = 0; r < dev_.geometry().ranks; ++r) {
        for (unsigned b = 0; b < banks; ++b) {
            BankSlot &s = slots_[r * banks + b];
            if (s.readyAt > now) {
                wake = std::min(wake, s.readyAt);
                continue;
            }
            // Nothing to walk until a verdict flip or an arrival
            // lowers readyAt again.
            s.readyAt = kNeverCycle;
            if (s.wantRefresh)
                continue; // draining for refresh
            s.startWalk();
            for (Request *q = demand_.oldest(RankId{r}, BankId{b}, false);
                 q; q = q->bankNext)
                walkRequest(*q, now, out);
            for (Request *q = demand_.oldest(RankId{r}, BankId{b}, true);
                 q; q = q->bankNext)
                walkRequest(*q, now, out);
            for (unsigned k = 0; k < kLegalKinds; ++k) {
                if (s.legalKnown & (1u << k))
                    s.readyAt = std::min(s.readyAt, s.legalAt[k]);
            }
            wake = std::min(wake, s.readyAt);
        }
    }
    wakeAt_ = wake;

    // Candidate order is part of the contract (pick breaks ties by
    // index): read queue by arrival, then write queue by arrival.
    // Request ids rise with arrival.
    std::sort(out.begin(), out.end(),
              [](const Candidate &a, const Candidate &b) {
                  return a.isWrite != b.isWrite ? b.isWrite
                                                : a.req->id < b.req->id;
              });
#ifndef NDEBUG
    checkWalk(now, out);
#endif

    // SARP write-drain shadowing: while some bank sits in its tRFCpb
    // window, steer the slot toward the write queue — the drain hides
    // inside the refresh shadow instead of stealing read bandwidth
    // later.  Only filters when both kinds are present, so it never
    // idles a slot the open-bank candidates could have used.
    if (policy_ == RefreshPolicy::kSarp && !out.empty() &&
        dev_.refsbInFlight(now)) {
        bool any_write = false;
        bool any_read = false;
        for (const Candidate &c : out)
            (c.isWrite ? any_write : any_read) = true;
        if (any_write && any_read) {
            out.erase(std::remove_if(out.begin(), out.end(),
                                     [](const Candidate &c) {
                                         return !c.isWrite;
                                     }),
                      out.end());
        }
    }
}

void
MemoryController::checkWalk(Cycle now, const std::vector<Candidate> &cands)
{
    std::vector<Candidate> ref;
    for (BankSlot &s : slots_)
        s.startWalk();
    for (const auto &req : readQ_)
        walkRequest(*req, now, ref);
    for (const auto &req : writeQ_)
        walkRequest(*req, now, ref);
    nuat_assert(ref.size() == cands.size(),
                "(bank walk found %zu candidates, queue walk %zu, at "
                "cycle %llu)",
                cands.size(), ref.size(),
                static_cast<unsigned long long>(now));
    for (std::size_t i = 0; i < ref.size(); ++i) {
        const Command &a = ref[i].cmd;
        const Command &b = cands[i].cmd;
        nuat_assert(ref[i].req == cands[i].req && a.type == b.type &&
                        a.rank == b.rank && a.bank == b.bank &&
                        a.row == b.row && a.col == b.col &&
                        ref[i].isRowHit == cands[i].isRowHit &&
                        ref[i].morePendingToRow ==
                            cands[i].morePendingToRow,
                    "(bank walk candidate %zu differs from the queue "
                    "walk at cycle %llu)",
                    i, static_cast<unsigned long long>(now));
    }
}

IssueResult
MemoryController::issueCommand(const Command &cmd, Cycle now)
{
    const IssueResult result = dev_.issue(cmd, now);
    scheduler_->onIssue(cmd, makeContext(now));

    // The command changed its bank's state (REF: its rank's), so the
    // bank's readiness is unknown; every other register it moved only
    // moved later.
    wakeAt_ = 0;
    if (cmd.type == CmdType::kRef) {
        const unsigned banks = dev_.geometry().banks;
        for (unsigned b = 0; b < banks; ++b)
            slots_[cmd.rank.value() * banks + b].readyAt = 0;
    } else {
        slotOf(cmd.rank, cmd.bank).readyAt = 0;
    }
    if (isRefreshCmd(cmd.type))
        verdictsUntil_ = 0; // the refresh schedule moved on

    NUAT_METRIC(if (metrics_) metrics_->command(cmd.type)->inc());
    return result;
}

void
MemoryController::issueCandidate(Candidate &cand, Cycle now)
{
    const IssueResult result = issueCommand(cand.cmd, now);

    switch (cand.cmd.type) {
      case CmdType::kAct:
        cand.req->hadOwnAct = true;
        break;
      case CmdType::kPre:
        break;
      case CmdType::kRead:
      case CmdType::kReadAp: {
        std::unique_ptr<Request> req = readQ_.remove(cand.req);
        noteDemandChange(req->rank, req->bank);
        ++stats_.readsCompleted;
        stats_.readLatencySum +=
            static_cast<double>(result.dataAt - req->arrivalAt);
        stats_.readLatencyHist.sample(
            static_cast<double>(result.dataAt - req->arrivalAt));
        NUAT_METRIC(if (metrics_) {
            metrics_->readsCompleted->inc();
            metrics_->readLatency->sample(
                static_cast<double>(result.dataAt - req->arrivalAt));
        });
        if (!req->hadOwnAct)
            ++stats_.rowHitReads;
        inFlight_.push_back(PendingCompletion{result.dataAt, req->addr,
                                              std::move(req->waiters)});
        break;
      }
      case CmdType::kWrite:
      case CmdType::kWriteAp: {
        std::unique_ptr<Request> req = writeQ_.remove(cand.req);
        noteDemandChange(req->rank, req->bank);
        if (!req->hadOwnAct)
            ++stats_.rowHitWrites;
        break;
      }
      case CmdType::kRef:
      case CmdType::kRefsb:
        nuat_panic("refresh must not come from the scheduler");
    }
}

void
MemoryController::tick(Cycle now)
{
    confined_.assertOwned("MemoryController");
    ++stats_.tickCycles;
    stats_.readQOccupancySum += static_cast<double>(readQ_.size());
    stats_.writeQOccupancySum += static_cast<double>(writeQ_.size());
    NUAT_METRIC(if (metrics_) {
        metrics_->readqOccupancy->sample(
            static_cast<double>(readQ_.size()));
        metrics_->writeqOccupancy->sample(
            static_cast<double>(writeQ_.size()));
    });

    processCompletions(now);
    scheduler_->tick(makeContext(now));

    refreshVerdicts(now);
#ifndef NDEBUG
    checkVerdicts(now);
#endif
    if (handleRefresh(now))
        return;

    if (now < wakeAt_) {
        // Nothing can have become legal since the last enumeration
        // found no candidate.
#ifndef NDEBUG
        scratch_.clear();
        checkWalk(now, scratch_);
#endif
        ++stats_.idleCycles;
        return;
    }

    enumerate(now, scratch_);
    if (scratch_.empty()) {
        ++stats_.idleCycles;
        return;
    }

    const int idx = scheduler_->pick(scratch_, makeContext(now));
    if (idx < 0) {
        ++stats_.idleCycles;
        return;
    }
    nuat_assert(static_cast<std::size_t>(idx) < scratch_.size());
    issueCandidate(scratch_[static_cast<std::size_t>(idx)], now);
}

void
MemoryController::skipIdle(Cycle now, Cycle cycles)
{
    confined_.assertOwned("MemoryController");
    nuat_assert(readQ_.empty() && writeQ_.empty(),
                "(skipIdle with queued requests)");
    nuat_assert(nextCompletionAt() >= now + cycles,
                "(skipIdle across an in-flight completion)");
    // Each skipped cycle would have ticked with empty queues: count it,
    // enumerate nothing, idle.  Occupancy sums gain zero.
    stats_.tickCycles += cycles;
    stats_.idleCycles += cycles;
    NUAT_METRIC(if (metrics_) {
        metrics_->readqOccupancy->sampleN(0.0, cycles);
        metrics_->writeqOccupancy->sampleN(0.0, cycles);
    });
    scheduler_->fastForward(cycles, makeContext(now));
}

Cycle
MemoryController::nextCompletionAt() const
{
    Cycle earliest = kNeverCycle;
    for (const auto &f : inFlight_) {
        if (f.dataAt < earliest)
            earliest = f.dataAt;
    }
    return earliest;
}

bool
MemoryController::idle() const
{
    return readQ_.empty() && writeQ_.empty() && inFlight_.empty();
}

double
MemoryController::hitRateEq3() const
{
    const auto &c = dev_.counters();
    const double cols = static_cast<double>(c.reads + c.writes);
    if (cols <= 0.0)
        return 0.0;
    const double hits = cols - static_cast<double>(c.acts);
    return hits > 0.0 ? hits / cols : 0.0;
}

} // namespace nuat
