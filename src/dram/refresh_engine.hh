/**
 * @file
 * Refresh bookkeeping: the linear refresh row counter NUAT's PBR reads.
 *
 * Every cell must be refreshed once per 64 ms retention period.  The
 * device refreshes rowsPerRef consecutive rows (in every bank of the
 * rank) per REF command, issued every rowsPerRef * tREFI, walking the
 * row address space with a linear counter (the paper's Sec. 5.1
 * simplifying assumption).
 *
 * The engine keeps two views:
 *  - the *schedule* (deadline of the next REF, the counter position) —
 *    this is what a memory controller can legitimately know, and it is
 *    all that PBR uses;
 *  - the *ground truth* (actual refresh cycle of every row) — used only
 *    by the device model to verify that charge-derated activations are
 *    physically safe.
 */

#ifndef NUAT_DRAM_REFRESH_ENGINE_HH
#define NUAT_DRAM_REFRESH_ENGINE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "common/units.hh"
#include "timing_params.hh"

namespace nuat {

/** Per-rank refresh counter, schedule, and ground-truth history. */
class RefreshEngine
{
  public:
    /**
     * @param rows rows per bank
     * @param tp   timing parameters (rowsPerRef, tREFI)
     *
     * Initial state models a steady-state device: row groups were last
     * refreshed at evenly spaced (negative) times, with the counter
     * about to wrap to row 0 — i.e. row 0 is the *oldest* row at cycle
     * 0 and will be refreshed by the first REF.
     */
    RefreshEngine(std::uint32_t rows, const TimingParams &tp);

    /**
     * Like the two-argument constructor, but with the first REF due at
     * @p first_due_at in (0, interval] instead of a full interval in.
     * The steady-state history shifts with the phase (group g was last
     * refreshed at first_due_at - (groups - g) * interval, never in
     * the future), which is how per-bank refresh staggers its banks so
     * their REFsb commands don't all land on the same cycle.  A phase
     * of interval() reproduces the default schedule exactly.
     */
    RefreshEngine(std::uint32_t rows, const TimingParams &tp,
                  Cycle first_due_at);

    /** Deadline of the next REF command [cycle]. */
    Cycle nextDueAt() const { return nextDueAt_; }

    /** True when the next REF's deadline has arrived at @p now. */
    bool due(Cycle now) const { return now >= nextDueAt_; }

    /**
     * Latest cycle the next REF may legally land: the nominal deadline
     * plus the JEDEC postponement window (TimingParams::
     * refPostponeWindow).  Out-of-order policies defer up to here.
     */
    Cycle deadlineAt() const { return nextDueAt_ + postponeWindow_; }

    /**
     * Earliest cycle the next REF may legally land: the nominal
     * deadline minus the pull-in window.  With the default budget of
     * rowsPerRef tREFIs this is exactly the previous deadline, so a
     * bank can run at most one REF ahead of its nominal schedule.
     */
    Cycle earliestIssueAt() const
    {
        return nextDueAt_ > pullInWindow_ ? nextDueAt_ - pullInWindow_
                                          : 0;
    }

    /** True when pulling the next REF forward to @p now is legal. */
    bool canPullIn(Cycle now) const { return now >= earliestIssueAt(); }

    /** First row the next REF will refresh (the counter position). */
    RowId nextRow() const { return RowId{nextRow_}; }

    /**
     * Last-Refreshed-Row-Address: the most recently refreshed row.
     * This is the LRRA of the paper's equation (1).
     */
    RowId lrra() const
    {
        return RowId{(nextRow_ + rows_ - 1) % rows_};
    }

    /**
     * Relative age of @p row in rows: how many row-refresh steps ago it
     * was refreshed.  (LRRA - row) mod #rows; 0 = just refreshed.
     * This is the quantity PBR shifts down to a PRE_PB index.
     */
    std::uint32_t relativeAge(RowId row) const
    {
        return (lrra().value() + rows_ - row.value()) % rows_;
    }

    /** Rows refreshed per REF command. */
    unsigned rowsPerRef() const { return rowsPerRef_; }

    /** Rows per bank. */
    std::uint32_t rows() const { return rows_; }

    /** Interval between REF commands [cycles]. */
    Cycle interval() const { return interval_; }

    /**
     * Perform one REF at @p now: stamps the next rowsPerRef rows as
     * refreshed, advances the counter and the deadline.
     */
    void performRefresh(Cycle now);

    /** Ground truth: the cycle @p row was last refreshed (can be
     *  negative for the synthetic pre-simulation history). */
    std::int64_t lastRefreshAt(RowId row) const;

    /** Ground truth: time elapsed at @p now since @p row's last
     *  refresh, converted through @p clock. */
    Nanoseconds elapsedSinceRefresh(RowId row, Cycle now,
                                    const Clock &clock) const;

    /** Total REF commands performed. */
    std::uint64_t refreshesDone() const { return refreshesDone_; }

    /** REFs performed before their nominal deadline (pull-ins). */
    std::uint64_t pulledIn() const { return pulledIn_; }

    /** REFs performed after their nominal deadline (postponements —
     *  including the few-cycle slips of in-order operation). */
    std::uint64_t postponed() const { return postponed_; }

  private:
    std::uint32_t rows_;
    unsigned rowsPerRef_;
    Cycle interval_;
    Cycle pullInWindow_;
    Cycle postponeWindow_;
    std::uint32_t nextRow_ = 0;
    Cycle nextDueAt_;
    std::uint64_t refreshesDone_ = 0;
    std::uint64_t pulledIn_ = 0;
    std::uint64_t postponed_ = 0;
    /** Ground truth, one entry per aligned group of rowsPerRef_ rows
     *  (a REF always refreshes exactly one whole group). */
    std::vector<std::int64_t> lastRefreshAt_;
};

} // namespace nuat

#endif // NUAT_DRAM_REFRESH_ENGINE_HH
