/**
 * @file
 * The controller's read and write queues, held in one fixed-capacity
 * request store.
 *
 * Reads to a line that already has a pending read merge onto it (one
 * DRAM access serves all waiters); writes to a line with a pending
 * write coalesce (last-writer-wins, and the line is only written once);
 * reads that hit a pending write are forwarded by the controller and
 * never enter the read queue.  A line can therefore be queued once as
 * a read and once as a write, but never twice in one direction.
 */

#ifndef NUAT_MEM_REQUEST_STORE_HH
#define NUAT_MEM_REQUEST_STORE_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "address_mapping.hh"
#include "common/types.hh"
#include "request.hh"

namespace nuat {

/**
 * Both request queues of one controller in a single block of request
 * slots, allocated once at construction and reused, with every lookup
 * the controller makes answered without a scan or an allocation:
 *  - by line: one open-addressed (linear-probing) index per direction,
 *    the address match a hardware controller does with a CAM.  Merging,
 *    coalescing and forwarding ask it on every arrival, and a blocked
 *    admission head re-asks it every cycle.
 *  - by bank: each (rank, bank) keeps an intrusive list of its queued
 *    reads and one of its queued writes (linked through the requests
 *    themselves, in arrival order) and its per-row counts.  Candidate
 *    enumeration walks these lists, precharge suppression and
 *    close-page policies read the row counts, and remove unlinks in
 *    O(1).
 * Request ids rise with arrival, so sorting by id recovers the queue
 * order of either direction.
 */
class RequestStore
{
  public:
    /**
     * @param read_capacity  maximum simultaneously queued reads
     * @param write_capacity maximum simultaneously queued writes
     * @param ranks, banks   the channel's geometry, for the bank lists
     */
    RequestStore(std::size_t read_capacity, std::size_t write_capacity,
                 unsigned ranks, unsigned banks);

    /** Queued writes (@p writes) or reads. */
    std::size_t size(bool writes) const { return len_[writes]; }

    /** True when another write (@p writes) or read fits. */
    bool hasRoom(bool writes) const { return len_[writes] < cap_[writes]; }

    /** True when neither direction holds a request. */
    bool empty() const { return len_[0] + len_[1] == 0; }

    /**
     * Queue a write (@p is_write) or read of @p line, at DRAM
     * coordinates @p at, arriving at @p now.  Returns its slot with a
     * fresh id and no waiters.  Panics when the direction is full or
     * already holds the line.
     */
    Request &push(bool is_write, Addr line, const DramCoord &at, Cycle now);

    /** The queued write (@p writes) or read of @p line, or nullptr. */
    const Request *find(Addr line, bool writes) const;

    /** The queued write (@p writes) or read of @p line, or nullptr. */
    Request *
    find(Addr line, bool writes)
    {
        return const_cast<Request *>(std::as_const(*this).find(line, writes));
    }

    /** Dequeue @p req and free its slot; panics unless it is queued. */
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

    /**
     * The queued writes (@p writes) or reads in arrival order, from a
     * scan of every slot.  Allocates: for cross-checks and tests, not
     * for the tick.
     */
    std::vector<Request *> arrivalOrder(bool writes);

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

    /** Direction @p writes's index bucket where @p line's probe starts. */
    std::size_t home(Addr line, bool writes) const;

    /** The bucket holding @p line in direction @p writes, or the empty
     *  bucket that ends its probe. */
    std::size_t probe(Addr line, bool writes) const;

    /** Unlink @p req from its bank list and uncount its row. */
    void untrack(Request &req);

    /** Debug builds: panic unless @p found is what a scan of every
     *  slot finds for (@p line, @p writes). */
    void checkFind(Addr line, bool writes, const Request *found) const;

    std::size_t cap_[2];
    std::size_t len_[2] = {0, 0};
    std::uint64_t nextId_ = 1;

    /**
     * Every slot, in one block reserved at construction.  Slots are
     * built on first use, so construction touches none of it; the
     * block never grows past the reservation, so requests never move.
     * Freed slots are chained through Request::bankNext from free_.
     */
    std::vector<Request> slots_;
    Request *free_ = nullptr;

    /** A bucket of index_ that holds no request. */
    static constexpr std::uint16_t kEmptyBucket = 0xffff;

    /** The read index, then the write index, each indexBuckets_ long
     *  (a power of two at least twice the larger capacity): the slot
     *  number of a queued request, or kEmptyBucket. */
    std::vector<std::uint16_t> index_;
    std::size_t indexBuckets_ = 0;
    unsigned indexShift_ = 0; //!< 64 - log2(indexBuckets_)

    unsigned banks_ = 0;
    /** Per-(rank,bank) totals and lists, indexed rank * banks_ + bank. */
    std::vector<BankEntry> bank_;
    /** Row counts, same indexing; inner vectors keep their capacity
     *  across swap-removes, so steady state never allocates. */
    std::vector<std::vector<RowDemand>> perBank_;
};

} // namespace nuat

#endif // NUAT_MEM_REQUEST_STORE_HH
