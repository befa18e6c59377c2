#include "hw/page_table.h"

namespace nesgx::hw {

void
PageTable::map(Vaddr va, Paddr pa, bool writable, bool executable)
{
    entries_[pageNumber(va)] = Pte{pageBase(pa), writable, executable, true};
}

void
PageTable::unmap(Vaddr va)
{
    entries_.erase(pageNumber(va));
}

void
PageTable::setPresent(Vaddr va, bool present)
{
    auto it = entries_.find(pageNumber(va));
    if (it != entries_.end()) it->second.present = present;
}

std::optional<Pte>
PageTable::walk(Vaddr va) const
{
    auto it = entries_.find(pageNumber(va));
    if (it == entries_.end() || !it->second.present) return std::nullopt;
    return it->second;
}

std::optional<Pte>
PageTable::entry(Vaddr va) const
{
    auto it = entries_.find(pageNumber(va));
    if (it == entries_.end()) return std::nullopt;
    return it->second;
}

}  // namespace nesgx::hw
