#include "support/flags.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "support/suggest.h"

namespace nesgx {

namespace {

/** std::from_chars over the whole text: no sign for unsigned types, no
 *  leading whitespace, no trailing garbage, no silent wrap. */
template <typename T>
bool
parseWhole(const std::string& text, T& out)
{
    const char* end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, out);
    return ec == std::errc() && stop == end;
}

[[noreturn]] void
usageError(const std::string& message)
{
    std::fprintf(stderr, "error: %s\n", message.c_str());
    std::exit(2);
}

[[noreturn]] void
badValue(const std::string& name, const std::string& text,
         const char* expected)
{
    usageError("flag --" + name + " expects " + expected + ", got \"" +
               text + "\"");
}

}  // namespace

Flags::Flags(int argc, char** argv, std::vector<std::string> switches)
{
    auto isSwitch = [&switches](const std::string& name) {
        return std::find(switches.begin(), switches.end(), name) !=
               switches.end();
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "-h" && isSwitch("help")) arg = "--help";
        if (arg.size() < 3 || arg.compare(0, 2, "--") != 0) {
            usageError("unexpected argument \"" + arg + "\"");
        }
        const std::string name = arg.substr(2);
        if (isSwitch(name)) {
            values_[name] = "";
        } else if (i + 1 < argc) {
            values_[name] = argv[++i];
        } else {
            usageError("flag " + arg + " expects a value");
        }
    }
}

const std::string*
Flags::find(const std::string& name) const
{
    read_.insert(name);
    auto it = values_.find(name);
    return it == values_.end() ? nullptr : &it->second;
}

bool
Flags::has(const std::string& name) const
{
    return find(name) != nullptr;
}

std::uint64_t
Flags::u64(const std::string& name, std::uint64_t fallback) const
{
    const std::string* text = find(name);
    if (text == nullptr) return fallback;
    std::uint64_t parsed = 0;
    if (!parseWhole(*text, parsed)) {
        badValue(name, *text, "a non-negative number");
    }
    return parsed;
}

bool
Flags::toggle(const std::string& name, bool fallback) const
{
    const std::string* text = find(name);
    if (text == nullptr) return fallback;
    if (*text != "0" && *text != "1") badValue(name, *text, "0 or 1");
    return *text == "1";
}

double
Flags::f64(const std::string& name, double fallback) const
{
    const std::string* text = find(name);
    if (text == nullptr) return fallback;
    double parsed = 0.0;
    if (!parseWhole(*text, parsed) || !(parsed >= 0.0)) {
        badValue(name, *text, "a non-negative number");
    }
    return parsed;
}

std::string
Flags::str(const std::string& name, const std::string& fallback) const
{
    const std::string* text = find(name);
    return text == nullptr ? fallback : *text;
}

void
Flags::finish() const
{
    const std::vector<std::string_view> known(read_.begin(), read_.end());
    for (const auto& [name, value] : values_) {
        if (read_.count(name) != 0) continue;
        std::string message = "unknown flag --" + name;
        const std::string suggestion = closestName(name, known);
        if (!suggestion.empty()) {
            message += " — did you mean '--" + suggestion + "'?";
        }
        usageError(message);
    }
}

}  // namespace nesgx
