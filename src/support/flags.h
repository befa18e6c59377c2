/**
 * Strict command-line flags, the one parser behind nesgx_serve,
 * nesgx_check and every bench_* binary: `--name value` pairs plus the
 * value-less switches a binary declares. Every misuse is a usage error —
 * an `error:` line on stderr and exit 2, never a silent fallback, a
 * wrapped value or an uncaught-exception abort:
 *
 *  - a trailing flag with no value, or a stray positional argument
 *    (rejected by the constructor);
 *  - a malformed number: trailing garbage (`4x`), a sign (`-1`, which
 *    stoull would wrap to 2^64-1), or no digits at all (`abc`);
 *  - a flag the binary never reads (rejected by finish(), with a "did
 *    you mean" suggestion drawn from the flags it did read).
 */
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace nesgx {

class Flags {
  public:
    /** `switches` names the value-less flags (e.g. "trace"); every other
     *  `--name` consumes the next argument as its value. `-h` is
     *  shorthand for `--help` when "help" is a declared switch. */
    Flags(int argc, char** argv, std::vector<std::string> switches = {});

    /** Whether `--name` was given (how switches are read). */
    bool has(const std::string& name) const;

    /** The whole value must be a non-negative decimal integer. */
    std::uint64_t u64(const std::string& name, std::uint64_t fallback) const;

    /** A 0|1 toggle (`--switchless 1`); any other value is an error. */
    bool toggle(const std::string& name, bool fallback) const;

    /** The whole value must be a non-negative number. */
    double f64(const std::string& name, double fallback) const;

    std::string str(const std::string& name,
                    const std::string& fallback) const;

    /** Rejects every given flag no accessor has asked about. Call once,
     *  after the binary has read all of its flags. */
    void finish() const;

  private:
    /** Looks `name` up and records that the binary reads it. */
    const std::string* find(const std::string& name) const;

    std::map<std::string, std::string> values_;  ///< switches map to ""
    mutable std::set<std::string> read_;
};

}  // namespace nesgx
