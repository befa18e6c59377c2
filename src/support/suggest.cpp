#include "support/suggest.h"

#include <algorithm>

namespace nesgx {

std::size_t
editDistance(std::string_view a, std::string_view b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t subst = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
            diag = row[j];
            row[j] = std::min({row[j] + 1, row[j - 1] + 1, subst});
        }
    }
    return row[b.size()];
}

std::string
closestName(std::string_view name,
            const std::vector<std::string_view>& candidates)
{
    std::size_t best = std::size_t(-1);
    std::string_view bestName;
    for (std::string_view candidate : candidates) {
        const std::size_t d = editDistance(name, candidate);
        if (d < best) {
            best = d;
            bestName = candidate;
        }
    }
    if (!bestName.empty() &&
        best <= std::max<std::size_t>(2, name.size() / 2)) {
        return std::string(bestName);
    }
    return {};
}

}  // namespace nesgx
