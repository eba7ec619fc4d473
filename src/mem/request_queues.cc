#include "request_queues.hh"

#include "common/logging.hh"

namespace nuat {

void
RowDemandTracker::reset(unsigned ranks, unsigned banks)
{
    banks_ = banks;
    perBank_.assign(static_cast<std::size_t>(ranks) * banks, {});
    bank_.assign(static_cast<std::size_t>(ranks) * banks, {});
}

void
RowDemandTracker::add(Request &req)
{
    const std::size_t idx = req.rank.value() * banks_ + req.bank.value();
    BankEntry &e = bank_[idx];
    ++e.count;
    req.bankNext = nullptr;
    req.bankPrev = e.tail[req.isWrite];
    (req.bankPrev ? req.bankPrev->bankNext : e.head[req.isWrite]) = &req;
    e.tail[req.isWrite] = &req;

    auto &list = perBank_[idx];
    for (auto &d : list) {
        if (d.row == req.row) {
            ++d.count;
            return;
        }
    }
    list.push_back(RowDemand{req.row, 1});
}

void
RowDemandTracker::remove(Request &req)
{
    const std::size_t idx = req.rank.value() * banks_ + req.bank.value();
    auto &list = perBank_[idx];
    for (auto &d : list) {
        if (d.row == req.row) {
            BankEntry &e = bank_[idx];
            --e.count;
            (req.bankPrev ? req.bankPrev->bankNext : e.head[req.isWrite]) =
                req.bankNext;
            (req.bankNext ? req.bankNext->bankPrev : e.tail[req.isWrite]) =
                req.bankPrev;
            req.bankPrev = req.bankNext = nullptr;
            if (--d.count == 0) {
                d = list.back();
                list.pop_back();
            }
            return;
        }
    }
    nuat_panic("removing request %llu with no tracked row demand",
               static_cast<unsigned long long>(req.id));
}

unsigned
RowDemandTracker::demandFor(RankId rank, BankId bank, RowId row) const
{
    for (const auto &d : perBank_[rank.value() * banks_ + bank.value()]) {
        if (d.row == row)
            return d.count;
    }
    return 0;
}

RequestQueue::RequestQueue(std::size_t capacity) : capacity_(capacity)
{
    nuat_assert(capacity_ > 0);
}

void
RequestQueue::attachDemandTracker(RowDemandTracker *tracker)
{
    nuat_assert(queue_.empty(), "(attach while the queue holds requests)");
    demand_ = tracker;
}

void
RequestQueue::push(std::unique_ptr<Request> req)
{
    nuat_assert(hasRoom(), "(queue overflow: caller must check hasRoom)");
    if (demand_)
        demand_->add(*req);
    queue_.push_back(std::move(req));
}

Request *
RequestQueue::findLine(Addr addr)
{
    for (auto &r : queue_) {
        if (r->addr == addr)
            return r.get();
    }
    return nullptr;
}

const Request *
RequestQueue::findLine(Addr addr) const
{
    return const_cast<RequestQueue *>(this)->findLine(addr);
}

std::unique_ptr<Request>
RequestQueue::remove(const Request *req)
{
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (it->get() == req) {
            std::unique_ptr<Request> out = std::move(*it);
            queue_.erase(it);
            if (demand_)
                demand_->remove(*out);
            return out;
        }
    }
    nuat_panic("request %llu not in queue",
               static_cast<unsigned long long>(req->id));
}

bool
RequestQueue::hasRowHit(RankId rank, BankId bank, RowId row) const
{
    for (const auto &r : queue_) {
        if (r->rank == rank && r->bank == bank && r->row == row)
            return true;
    }
    return false;
}

} // namespace nuat
