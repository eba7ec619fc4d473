#include "refresh_engine.hh"

#include "common/logging.hh"

namespace nuat {

RefreshEngine::RefreshEngine(std::uint32_t rows, const TimingParams &tp)
    : RefreshEngine(rows, tp, tp.refInterval())
{
}

RefreshEngine::RefreshEngine(std::uint32_t rows, const TimingParams &tp,
                             Cycle first_due_at)
    : rows_(rows), rowsPerRef_(tp.rowsPerRef),
      interval_(tp.refInterval()), pullInWindow_(tp.refPullInWindow()),
      postponeWindow_(tp.refPostponeWindow())
{
    nuat_assert(rows_ > 0 && rowsPerRef_ > 0);
    nuat_assert(rows_ % rowsPerRef_ == 0,
                "(rows %u not divisible by rowsPerRef %u)", rows_,
                rowsPerRef_);
    nuat_assert(first_due_at > 0 && first_due_at <= interval_,
                "(refresh phase outside (0, interval])");

    // Steady-state history: with the first REF due at phase d, group g
    // of rowsPerRef rows was last refreshed at d - (G - g) intervals —
    // strictly before cycle 0, evenly spaced, with group G-1 the
    // freshest.  At d == interval this is the classic schedule (last
    // group refreshed exactly at cycle 0).
    const std::uint32_t groups = rows_ / rowsPerRef_;
    lastRefreshAt_.resize(groups);
    for (std::uint32_t g = 0; g < groups; ++g) {
        lastRefreshAt_[g] = static_cast<std::int64_t>(first_due_at) -
                            static_cast<std::int64_t>(groups - g) *
                                static_cast<std::int64_t>(interval_);
    }
    nextRow_ = 0;
    nextDueAt_ = first_due_at;
}

void
RefreshEngine::performRefresh(Cycle now)
{
    // nextRow_ only ever advances by whole groups from row 0.
    lastRefreshAt_[nextRow_ / rowsPerRef_] = static_cast<std::int64_t>(now);
    if (now < nextDueAt_)
        ++pulledIn_;
    else if (now > nextDueAt_)
        ++postponed_;
    nextRow_ = (nextRow_ + rowsPerRef_) % rows_;
    nextDueAt_ += interval_; // absolute schedule: lateness never accrues
    ++refreshesDone_;
}

std::int64_t
RefreshEngine::lastRefreshAt(RowId row) const
{
    nuat_assert(row.value() < rows_);
    return lastRefreshAt_[row.value() / rowsPerRef_];
}

Nanoseconds
RefreshEngine::elapsedSinceRefresh(RowId row, Cycle now,
                                   const Clock &clock) const
{
    const std::int64_t delta =
        static_cast<std::int64_t>(now) - lastRefreshAt(row);
    nuat_assert(delta >= 0, "(row %u refreshed in the future?)",
                row.value());
    return static_cast<double>(delta) * clock.period();
}

} // namespace nuat
