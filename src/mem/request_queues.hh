/**
 * @file
 * Read / write request queues with line-merging support.
 *
 * Reads to a line that already has a pending read merge onto it (one
 * DRAM access serves all waiters); writes to a line with a pending
 * write coalesce (last-writer-wins, and the line is only written once);
 * reads that hit a pending write are forwarded by the controller and
 * never enter the read queue.
 */

#ifndef NUAT_MEM_REQUEST_QUEUES_HH
#define NUAT_MEM_REQUEST_QUEUES_HH

#include <deque>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "request.hh"

namespace nuat {

/**
 * Incremental per-(rank,bank) demand over one or more request queues.
 *
 * The controller's candidate enumeration needs, every cycle it runs,
 * each bank's queued requests and the number of them targeting each
 * (rank, bank, row) — to suppress precharges of rows with pending hits
 * and to tell close-page policies whether a column access is the row's
 * last pending one.  Rebuilding that from both queues each cycle
 * dominates the tick; instead the queues it is attached to update it
 * on push/remove: every bank keeps an intrusive list of its queued
 * reads and one of its queued writes (linked through the requests
 * themselves, in arrival order) and its row counts, so lookups are
 * allocation-free and O(rows pending in the bank).
 */
class RowDemandTracker
{
  public:
    /** Size for @p ranks x @p banks; drops all counts. */
    void reset(unsigned ranks, unsigned banks);

    /** Count and link @p req (called by RequestQueue::push). */
    void add(Request &req);

    /** Uncount and unlink @p req (called by RequestQueue::remove). */
    void remove(Request &req);

    /** Queued requests targeting @p row of (@p rank, @p bank). */
    unsigned demandFor(RankId rank, BankId bank, RowId row) const;

    /**
     * Queued requests targeting (@p rank, @p bank), any row.  O(1) —
     * refresh policies consult this every (rank, bank) every tick to
     * decide whether a bank is idle enough to pull its REFsb forward.
     */
    unsigned bankDemand(RankId rank, BankId bank) const
    {
        return bank_[rank.value() * banks_ + bank.value()].count;
    }

    /**
     * Oldest queued write (@p writes) or read of (@p rank, @p bank), or
     * nullptr; Request::bankNext continues in arrival order.
     */
    Request *oldest(RankId rank, BankId bank, bool writes) const
    {
        return bank_[rank.value() * banks_ + bank.value()].head[writes];
    }

  private:
    struct RowDemand
    {
        RowId row;
        unsigned count;
    };

    /** One bank's total and its read [0] / write [1] lists. */
    struct BankEntry
    {
        unsigned count = 0;
        Request *head[2] = {nullptr, nullptr};
        Request *tail[2] = {nullptr, nullptr};
    };

    unsigned banks_ = 0;
    /** Indexed rank * banks_ + bank; inner vectors keep their
     *  capacity across swap-removes, so steady state never allocates. */
    std::vector<std::vector<RowDemand>> perBank_;
    /** Per-(rank,bank) totals and lists, same indexing. */
    std::vector<BankEntry> bank_;
};

/** A bounded FIFO of requests (arrival order preserved). */
class RequestQueue
{
  public:
    /** @param capacity maximum simultaneously queued requests */
    explicit RequestQueue(std::size_t capacity);

    /** Mirror queue contents into @p tracker (may be shared with other
     *  queues; must outlive this queue; attach while empty). */
    void attachDemandTracker(RowDemandTracker *tracker);

    /** True when another request can be accepted. */
    bool hasRoom() const { return queue_.size() < capacity_; }

    /** Current occupancy. */
    std::size_t size() const { return queue_.size(); }

    /** True when empty. */
    bool empty() const { return queue_.empty(); }

    /** Configured capacity. */
    std::size_t capacity() const { return capacity_; }

    /** Append @p req (takes ownership); panics when full. */
    void push(std::unique_ptr<Request> req);

    /** Find the queued request for line @p addr, or nullptr. */
    Request *findLine(Addr addr);

    /** Find the queued request for line @p addr, or nullptr. */
    const Request *findLine(Addr addr) const;

    /** Remove and return the request with identity @p req. */
    std::unique_ptr<Request> remove(const Request *req);

    /** Iterate requests in arrival order. */
    auto begin() const { return queue_.begin(); }
    auto end() const { return queue_.end(); }

    /** True when any queued request targets @p row of rank/bank. */
    bool hasRowHit(RankId rank, BankId bank, RowId row) const;

  private:
    std::size_t capacity_;
    std::deque<std::unique_ptr<Request>> queue_;
    RowDemandTracker *demand_ = nullptr;
};

} // namespace nuat

#endif // NUAT_MEM_REQUEST_QUEUES_HH
