#include "hw/cache.h"

namespace nesgx::hw {

LastLevelCache::LastLevelCache(std::uint64_t capacityBytes)
    : capacityLines_(capacityBytes / kCacheLineSize)
{
}

bool
LastLevelCache::touchLine(Paddr line)
{
    auto it = lines_.find(line);
    if (it != lines_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second);
        ++hits_;
        return true;
    }
    ++misses_;
    lru_.push_front(line);
    lines_[line] = lru_.begin();
    if (lines_.size() > capacityLines_) {
        lines_.erase(lru_.back());
        lru_.pop_back();
    }
    return false;
}

bool
LastLevelCache::touch(Paddr pa)
{
    return touchLine(lineBase(pa));
}

std::uint64_t
LastLevelCache::touchRange(Paddr pa, std::uint64_t count)
{
    std::uint64_t hitLines = 0;
    Paddr line = lineBase(pa);
    for (std::uint64_t i = 0; i < count; ++i) {
        if (touchLine(line)) ++hitLines;
        line += kCacheLineSize;
    }
    return hitLines;
}

void
LastLevelCache::flush()
{
    lru_.clear();
    lines_.clear();
}

}  // namespace nesgx::hw
