/**
 * @file
 * Tests for the request store: capacity, line lookup, removal, the
 * per-bank lists and row counts, and a seeded differential test of all
 * of them against a linear reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "common/logging.hh"
#include "mem/request_store.hh"

namespace nuat {
namespace {

DramCoord
at(unsigned bank, std::uint32_t row = 0, unsigned rank = 0)
{
    DramCoord c;
    c.rank = RankId{rank};
    c.bank = BankId{bank};
    c.row = RowId{row};
    return c;
}

TEST(RequestStore, CapacityAndRoomPerDirection)
{
    RequestStore q(2, 1, 1, 8);
    EXPECT_TRUE(q.hasRoom(false));
    EXPECT_TRUE(q.empty());
    q.push(false, 0x40, at(0), 0);
    EXPECT_TRUE(q.hasRoom(false));
    q.push(false, 0x80, at(0), 0);
    EXPECT_FALSE(q.hasRoom(false));
    EXPECT_TRUE(q.hasRoom(true)) << "writes have their own capacity";
    EXPECT_EQ(q.size(false), 2u);
    EXPECT_EQ(q.size(true), 0u);
    q.push(true, 0x40, at(0), 0);
    EXPECT_FALSE(q.hasRoom(true));
}

TEST(RequestStore, OverflowPanics)
{
    setPanicThrows(true);
    RequestStore q(1, 1, 1, 8);
    q.push(false, 0x40, at(0), 0);
    EXPECT_THROW(q.push(false, 0x80, at(0), 0), std::logic_error);
    setPanicThrows(false);
}

TEST(RequestStore, SameLineTwiceInOneDirectionPanics)
{
    setPanicThrows(true);
    RequestStore q(4, 4, 1, 8);
    q.push(true, 0x40, at(0), 0);
    EXPECT_THROW(q.push(true, 0x40, at(0), 0), std::logic_error);
    setPanicThrows(false);
}

TEST(RequestStore, FindLineByDirection)
{
    RequestStore q(4, 4, 1, 8);
    q.push(false, 0x40, at(0), 3);
    Request &r = q.push(false, 0x80, at(1), 4);
    Request &w = q.push(true, 0x80, at(1), 5);
    EXPECT_EQ(q.find(0x80, false), &r);
    EXPECT_EQ(q.find(0x80, true), &w);
    EXPECT_EQ(q.find(0x40, true), nullptr);
    EXPECT_EQ(q.find(0xc0, false), nullptr);
    EXPECT_EQ(r.id, 2u);
    EXPECT_EQ(r.arrivalAt, 4u);
    EXPECT_FALSE(r.isWrite);
    EXPECT_TRUE(w.isWrite);
}

TEST(RequestStore, RemoveFreesTheLineAndTheSlot)
{
    RequestStore q(1, 1, 1, 8);
    Request &r = q.push(false, 0x40, at(0), 0);
    r.waiters.push_back(Waiter{0, 7});
    q.remove(r);
    EXPECT_EQ(q.size(false), 0u);
    EXPECT_EQ(q.find(0x40, false), nullptr);
    EXPECT_EQ(q.bankDemand(RankId{0}, BankId{0}), 0u);
    Request &again = q.push(false, 0xc0, at(2), 1);
    EXPECT_TRUE(again.waiters.empty()) << "a reused slot has no waiters";
    EXPECT_EQ(again.id, 2u);
}

TEST(RequestStore, RemoveUnknownPanics)
{
    setPanicThrows(true);
    RequestStore q(4, 4, 1, 8);
    Request &r = q.push(false, 0x40, at(0), 0);
    Request ghost;
    EXPECT_THROW(q.remove(ghost), std::logic_error);
    q.remove(r);
    EXPECT_THROW(q.remove(r), std::logic_error) << "removed twice";
    setPanicThrows(false);
}

TEST(RequestStore, ArrivalOrderPerDirection)
{
    RequestStore q(4, 4, 1, 8);
    q.push(false, 0x40, at(3), 0);
    q.push(true, 0x40, at(3), 0);
    q.push(false, 0x80, at(1), 0);
    q.push(false, 0xc0, at(2), 0);
    std::vector<std::uint64_t> ids;
    for (const Request *r : q.arrivalOrder(false))
        ids.push_back(r->id);
    EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 3, 4}));
    ASSERT_EQ(q.arrivalOrder(true).size(), 1u);
    EXPECT_EQ(q.arrivalOrder(true)[0]->id, 2u);
}

/** One queued request as the linear reference keeps it. */
struct RefEntry
{
    bool isWrite;
    Addr line;
    DramCoord coord;
    Request *req;
};

using Reference = std::vector<RefEntry>;

/** The reference's entry for line @p line of one direction. */
Reference::iterator
findRef(Reference &ref, bool writes, Addr line)
{
    return std::find_if(ref.begin(), ref.end(), [&](const RefEntry &e) {
        return e.isWrite == writes && e.line == line;
    });
}

/** The reference's requests of one direction in arrival order; only
 *  those of @p bank's (rank, bank) when it is given. */
std::vector<Request *>
refQueue(const Reference &ref, bool writes, const DramCoord *bank)
{
    std::vector<Request *> out;
    for (const RefEntry &e : ref) {
        const bool in_bank = !bank || (e.coord.rank == bank->rank &&
                                       e.coord.bank == bank->bank);
        if (e.isWrite == writes && in_bank)
            out.push_back(e.req);
    }
    return out;
}

/** The store's list of one direction for @p bank's (rank, bank). */
std::vector<Request *>
bankList(const RequestStore &q, const DramCoord &bank, bool writes)
{
    std::vector<Request *> out;
    for (Request *r = q.oldest(bank.rank, bank.bank, writes); r;
         r = r->bankNext)
        out.push_back(r);
    return out;
}

/** Queued requests of the reference to @p row of @p bank. */
unsigned
refRowDemand(const Reference &ref, const DramCoord &bank, RowId row)
{
    unsigned n = 0;
    for (const RefEntry &e : ref) {
        n += e.coord.rank == bank.rank && e.coord.bank == bank.bank &&
             e.coord.row == row;
    }
    return n;
}

/**
 * Random push/remove/find sequences against a plain vector in arrival
 * order.  Every step looks the touched line up in both directions; at
 * the end every queue, bank list, bank total and row count must match.
 * Lines come from a small pool, so the same line sits in both
 * directions, probe runs collide and wrap, and removals shift index
 * entries; pushes are attempted until each direction is full.
 */
TEST(RequestStore, DifferentialAgainstALinearReference)
{
    constexpr unsigned kRanks = 2;
    constexpr unsigned kBanks = 4;
    constexpr unsigned kRows = 3;
    constexpr std::size_t kCap = 16;
    for (std::uint32_t seed = 1; seed <= 20; ++seed) {
        std::mt19937 rng(seed);
        auto pick = [&](std::size_t n) {
            return static_cast<unsigned>(rng() % n);
        };
        RequestStore q(kCap, kCap, kRanks, kBanks);
        Reference ref;
        std::uint64_t pushes = 0;
        bool filled[2] = {false, false};

        for (unsigned step = 0; step < 4000; ++step) {
            const bool writes = pick(2) == 1;
            Addr line = pick(48) * 64ull + (Addr{pick(4)} << 20);
            const std::size_t queued = refQueue(ref, writes, nullptr).size();
            const unsigned op = pick(10);
            if (op < 5) {
                // Push, as the controller does: only an absent line,
                // only with room.
                if (findRef(ref, writes, line) != ref.end())
                    continue;
                ASSERT_EQ(q.hasRoom(writes), queued < kCap);
                if (queued == kCap) {
                    filled[writes] = true;
                    continue;
                }
                const DramCoord c =
                    at(pick(kBanks), pick(kRows), pick(kRanks));
                Request &r = q.push(writes, line, c, step);
                ASSERT_EQ(r.id, ++pushes);
                ref.push_back(RefEntry{writes, line, c, &r});
            } else if (op < 8) {
                // Remove a random queued request of the direction.
                if (queued == 0)
                    continue;
                Request *victim = refQueue(ref, writes, nullptr)[pick(queued)];
                line = victim->addr;
                q.remove(*victim);
                ref.erase(findRef(ref, writes, line));
            }
            for (bool dir : {false, true}) {
                const auto e = findRef(ref, dir, line);
                ASSERT_EQ(q.find(line, dir), e == ref.end() ? nullptr : e->req)
                    << "seed " << seed << " step " << step;
            }
        }
        EXPECT_TRUE(filled[0] && filled[1]) << "seed " << seed;

        for (bool dir : {false, true}) {
            EXPECT_EQ(q.arrivalOrder(dir), refQueue(ref, dir, nullptr));
            EXPECT_EQ(q.size(dir), refQueue(ref, dir, nullptr).size());
        }
        for (unsigned r = 0; r < kRanks; ++r) {
            for (unsigned b = 0; b < kBanks; ++b) {
                const DramCoord c = at(b, 0, r);
                const auto reads = refQueue(ref, false, &c);
                const auto writes = refQueue(ref, true, &c);
                EXPECT_EQ(bankList(q, c, false), reads);
                EXPECT_EQ(bankList(q, c, true), writes);
                EXPECT_EQ(q.bankDemand(c.rank, c.bank),
                          reads.size() + writes.size());
                for (std::uint32_t row = 0; row < kRows; ++row) {
                    EXPECT_EQ(q.demandFor(c.rank, c.bank, RowId{row}),
                              refRowDemand(ref, c, RowId{row}));
                }
            }
        }

        // Removing a request the store does not hold still panics,
        // even one that matches a queued line.
        setPanicThrows(true);
        Request ghost;
        ghost.addr = ref.empty() ? 0 : ref.front().line;
        ghost.isWrite = !ref.empty() && ref.front().isWrite;
        EXPECT_THROW(q.remove(ghost), std::logic_error);
        setPanicThrows(false);
    }
}

} // namespace
} // namespace nuat
