#include "host_reference.hh"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

namespace nuat::perfbench {

namespace {

/** Iteration counts, sized so the kernel takes about
 *  kReferenceNominalSeconds, split roughly 2:1:1 across its parts. */
constexpr int kAluIters = 11000000;
constexpr int kSortRounds = 16;
constexpr std::size_t kSortKeys = 16384;
constexpr int kChurnIters = 800000;

volatile std::uint64_t g_sink;

std::uint64_t
xorshift(std::uint64_t &x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

/** Four independent xorshift chains. */
std::uint64_t
aluChains()
{
    std::uint64_t a = 1, b = 2, c = 3, d = 4;
    for (int i = 0; i < kAluIters; ++i) {
        xorshift(a);
        xorshift(b);
        xorshift(c);
        xorshift(d);
    }
    return a + b + c + d;
}

/** Sorts fresh random keys kSortRounds times. */
std::uint64_t
sortRounds()
{
    std::vector<std::uint32_t> keys(kSortKeys);
    std::uint64_t x = 7, sum = 0;
    for (int r = 0; r < kSortRounds; ++r) {
        for (std::uint32_t &k : keys)
            k = static_cast<std::uint32_t>(xorshift(x));
        std::sort(keys.begin(), keys.end());
        sum += keys[kSortKeys / 2];
    }
    return sum;
}

/** Inserts, finds and counts random keys in a hash map and a tree. */
std::uint64_t
mapChurn()
{
    std::unordered_map<std::uint64_t, std::uint64_t> hash;
    std::map<std::uint64_t, int> tree;
    std::uint64_t x = 88172645463325252ull, sum = 0;
    for (int i = 0; i < kChurnIters; ++i) {
        xorshift(x);
        hash[x & 0xfff] += static_cast<std::uint64_t>(i);
        if ((x & 7) == 0)
            ++tree[(x >> 12) & 0x3ff];
        const auto it = hash.find((x >> 20) & 0xfff);
        if (it != hash.end())
            sum += it->second;
    }
    return sum + tree.size();
}

} // namespace

double
referenceSeconds()
{
    const auto t0 = std::chrono::steady_clock::now();
    g_sink = aluChains() + sortRounds() + mapChurn();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

} // namespace nuat::perfbench
