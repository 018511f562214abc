#include "common/rng.h"

#include "common/log.h"

namespace gpulitmus {

namespace {

uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // anonymous namespace

void
Rng::reseed(uint64_t seed)
{
    uint64_t x = seed;
    for (auto &s : s_)
        s = splitmix64(x);
}

int64_t
Rng::range(int64_t lo, int64_t hi)
{
    if (lo > hi)
        panic("Rng::range called with lo > hi");
    uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(below(span));
}

Rng
Rng::split()
{
    return Rng(next() ^ 0xa5a5a5a5deadbeefULL);
}

} // namespace gpulitmus
