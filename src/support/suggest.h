/**
 * "Did you mean" helpers shared by every user-facing name parser: fault
 * site names in a `--faults` spec and command-line flag names.
 */
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace nesgx {

/** Levenshtein distance between two names. */
std::size_t editDistance(std::string_view a, std::string_view b);

/** The candidate closest to a typo'd `name`, or "" when nothing is close
 *  enough to be worth suggesting (further than max(2, |name| / 2) edits
 *  away is noise). Ties go to the earliest candidate. */
std::string closestName(std::string_view name,
                        const std::vector<std::string_view>& candidates);

}  // namespace nesgx
