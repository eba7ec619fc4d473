#include "request_store.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace nuat {

RequestStore::RequestStore(std::size_t read_capacity,
                           std::size_t write_capacity, unsigned ranks,
                           unsigned banks)
    : cap_{read_capacity, write_capacity}, banks_(banks),
      bank_(static_cast<std::size_t>(ranks) * banks),
      perBank_(static_cast<std::size_t>(ranks) * banks)
{
    nuat_assert(read_capacity > 0 && write_capacity > 0);
    nuat_assert(read_capacity + write_capacity < kEmptyBucket);
    slots_.reserve(read_capacity + write_capacity);
    // At most half full, so a probe ends after a bucket or two.
    indexBuckets_ = std::bit_ceil(2 * std::max(read_capacity, write_capacity));
    indexShift_ = static_cast<unsigned>(64 - std::countr_zero(indexBuckets_));
    index_.assign(2 * indexBuckets_, kEmptyBucket);
}

std::size_t
RequestStore::home(Addr line, bool writes) const
{
    // Fibonacci hashing: the product's top bits mix every address bit,
    // including the row and channel bits above the line offset.
    const std::size_t h = (line * 0x9e3779b97f4a7c15ull) >> indexShift_;
    return (writes ? indexBuckets_ : 0) + h;
}

std::size_t
RequestStore::probe(Addr line, bool writes) const
{
    const std::size_t base = writes ? indexBuckets_ : 0;
    const std::size_t mask = indexBuckets_ - 1;
    std::size_t i = home(line, writes);
    while (index_[i] != kEmptyBucket && slots_[index_[i]].addr != line)
        i = base + ((i - base + 1) & mask);
    return i;
}

Request &
RequestStore::push(bool is_write, Addr line, const DramCoord &at, Cycle now)
{
    nuat_assert(hasRoom(is_write),
                "(queue overflow: caller must check hasRoom)");
    std::uint16_t &bucket = index_[probe(line, is_write)];
    nuat_assert(bucket == kEmptyBucket,
                "(line %#llx queued twice in one direction)",
                static_cast<unsigned long long>(line));

    // Room in the direction means a free slot or an unbuilt one.
    if (!free_) {
        slots_.emplace_back();
        free_ = &slots_.back();
    }
    Request &req = *free_;
    free_ = req.bankNext;
    bucket = static_cast<std::uint16_t>(&req - slots_.data());
    req.id = nextId_++;
    req.isWrite = is_write;
    req.addr = line;
    req.rank = at.rank;
    req.bank = at.bank;
    req.row = at.row;
    req.col = at.col;
    req.arrivalAt = now;
    req.waiters.clear(); // keeps its capacity for the next merge
    req.hadOwnAct = false;
    req.queued = true;
    ++len_[is_write];

    const std::size_t idx = req.rank.value() * banks_ + req.bank.value();
    BankEntry &b = bank_[idx];
    ++b.count;
    req.bankNext = nullptr;
    req.bankPrev = b.tail[is_write];
    (req.bankPrev ? req.bankPrev->bankNext : b.head[is_write]) = &req;
    b.tail[is_write] = &req;

    auto &rows = perBank_[idx];
    for (auto &d : rows) {
        if (d.row == req.row) {
            ++d.count;
            return req;
        }
    }
    rows.push_back(RowDemand{req.row, 1});
    return req;
}

const Request *
RequestStore::find(Addr line, bool writes) const
{
    const std::uint16_t slot = index_[probe(line, writes)];
    const Request *found = slot == kEmptyBucket ? nullptr : &slots_[slot];
#ifndef NDEBUG
    checkFind(line, writes, found);
#endif
    return found;
}

void
RequestStore::checkFind(Addr line, bool writes, const Request *found) const
{
    const Request *scan = nullptr;
    for (const Request &slot : slots_) {
        if (slot.queued && slot.isWrite == writes && slot.addr == line) {
            nuat_assert(!scan, "(line %#llx queued twice)",
                        static_cast<unsigned long long>(line));
            scan = &slot;
        }
    }
    nuat_assert(found == scan,
                "(line index disagrees with the slot scan for %#llx)",
                static_cast<unsigned long long>(line));
}

void
RequestStore::remove(Request &req)
{
    const bool writes = req.isWrite;
    std::size_t i = probe(req.addr, writes);
    if (index_[i] == kEmptyBucket || &slots_[index_[i]] != &req)
        nuat_panic("request %llu not in queue",
                   static_cast<unsigned long long>(req.id));

    // Backward-shift deletion: pull later members of the probe run
    // into the hole unless their home lies cyclically in (hole, j], so
    // every probe still ends at the first empty bucket.
    const std::size_t base = writes ? indexBuckets_ : 0;
    const std::size_t mask = indexBuckets_ - 1;
    for (std::size_t j = i;;) {
        j = base + ((j - base + 1) & mask);
        if (index_[j] == kEmptyBucket)
            break;
        const std::size_t k = home(slots_[index_[j]].addr, writes);
        const bool stays = i <= j ? (i < k && k <= j) : (i < k || k <= j);
        if (!stays) {
            index_[i] = index_[j];
            i = j;
        }
    }
    index_[i] = kEmptyBucket;
    --len_[writes];

    untrack(req);
    req.queued = false;
    req.bankNext = free_;
    free_ = &req;
}

void
RequestStore::untrack(Request &req)
{
    const std::size_t idx = req.rank.value() * banks_ + req.bank.value();
    BankEntry &b = bank_[idx];
    --b.count;
    (req.bankPrev ? req.bankPrev->bankNext : b.head[req.isWrite]) =
        req.bankNext;
    (req.bankNext ? req.bankNext->bankPrev : b.tail[req.isWrite]) =
        req.bankPrev;
    req.bankPrev = req.bankNext = nullptr;

    auto &rows = perBank_[idx];
    for (auto &d : rows) {
        if (d.row == req.row) {
            if (--d.count == 0) {
                d = rows.back();
                rows.pop_back();
            }
            return;
        }
    }
    nuat_panic("removing request %llu with no tracked row demand",
               static_cast<unsigned long long>(req.id));
}

unsigned
RequestStore::demandFor(RankId rank, BankId bank, RowId row) const
{
    for (const auto &d : perBank_[rank.value() * banks_ + bank.value()]) {
        if (d.row == row)
            return d.count;
    }
    return 0;
}

std::vector<Request *>
RequestStore::arrivalOrder(bool writes)
{
    std::vector<Request *> out;
    for (Request &slot : slots_) {
        if (slot.queued && slot.isWrite == writes)
            out.push_back(&slot);
    }
    std::sort(out.begin(), out.end(), [](const Request *a, const Request *b) {
        return a->id < b->id;
    });
    return out;
}

} // namespace nuat
