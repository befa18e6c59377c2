/**
 * Lightweight status / result types used across the nesgx library.
 *
 * The hardware model reports faults (general-protection fault, page fault,
 * SGX leaf error codes) as values rather than exceptions so the emulated
 * instruction semantics stay explicit, mirroring how a microcode
 * implementation signals failure through flags and fault vectors.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

namespace nesgx {

/** Error codes surfaced by the emulated hardware and runtimes. */
enum class Err : std::uint32_t {
    Ok = 0,
    /// #GP(0): invalid leaf operands, bad transitions, busy TCS, ...
    GeneralProtection,
    /// #PF: translation exists but access is not permitted / page evicted.
    PageFault,
    /// SGX leaf: supplied EPC page already has a valid EPCM entry.
    PageInUse,
    /// SGX leaf: EPCM entry invalid / wrong page type for the operation.
    InvalidEpcPage,
    /// SGX leaf: SECS attributes or measurement checks failed at EINIT.
    InvalidMeasurement,
    /// SGX leaf: SIGSTRUCT signature did not verify.
    InvalidSignature,
    /// NASSO: expected peer measurement did not match (paper Fig. 4).
    AssociationRejected,
    /// ETRACK/EWB: threads still reference stale translations.
    TrackingIncomplete,
    /// EWB/ELDU: MAC or version check on an evicted page failed.
    PagingIntegrity,
    /// Runtime: call target not registered in the enclave interface.
    NoSuchCall,
    /// Runtime: marshalling buffer malformed or out of bounds.
    BadCallBuffer,
    /// OS model refused the request (out of EPC, bad mapping, ...).
    OsError,
    /// Attestation report MAC verification failed.
    ReportMacMismatch,
    /// Trusted heap exhausted.
    OutOfMemory,
    /// Lookup found nothing matching (victim selection, registries).
    NotFound,
    /// Serving layer: per-tenant admission queue is full.
    Backpressure,
    /// Serving layer: tenant quarantined (circuit breaker open / mid-rebuild).
    Unavailable,
    /// Serving layer: the server refused the sealed request (bad seal or
    /// sequence replay) — the response slot came back empty by design.
    SealRejected,
    /// Serving layer: request shed because its deadline passed in queue.
    Deadline,
    /// Trust path: NEREPORT evidence chain failed verification (bad MAC,
    /// identity/signer mismatch, wrong chain depth, or stale nonce).
    AttestationFailed,
    /// Serving layer: request stamped with a stale placement epoch — the
    /// tenant moved or rebuilt since the client last resolved it. The
    /// client must re-resolve placement and retry (redirect semantics).
    WrongEpoch,
    /// A configuration refused before anything ran (zero tenants, zero
    /// batch size, a thread count past the documented cap, ...).
    InvalidConfig,
};

/** Number of Err enumerators (exhaustive errName round-trip tests). */
constexpr std::size_t kErrCount = std::size_t(Err::InvalidConfig) + 1;

/** Human-readable name for an error code. */
const char* errName(Err e);

/** Exception wrapper used only at API boundaries that prefer throwing. */
class NesgxError : public std::runtime_error {
  public:
    explicit NesgxError(Err code, const std::string& what)
        : std::runtime_error(what), code_(code) {}

    Err code() const { return code_; }

  private:
    Err code_;
};

/**
 * Result of an emulated operation: either Ok or a fault code.
 *
 * Implicitly convertible to bool (true == success) so hardware-model call
 * sites read like the validation flow charts in the paper.
 */
class Status {
  public:
    Status() : code_(Err::Ok) {}
    Status(Err code) : code_(code) {}  // NOLINT: implicit by design

    static Status ok() { return Status(); }

    bool isOk() const { return code_ == Err::Ok; }
    explicit operator bool() const { return isOk(); }

    Err code() const { return code_; }
    const char* name() const { return errName(code_); }

    /** Throws NesgxError when the status is a failure. */
    void orThrow(const std::string& context) const;

    friend bool operator==(const Status& a, const Status& b) {
        return a.code_ == b.code_;
    }

  private:
    Err code_;
};

/** A value-or-fault result for emulated operations that produce data. */
template <typename T>
class Result {
  public:
    Result(T value) : value_(std::move(value)), status_() {}  // NOLINT
    Result(Err code) : status_(code) {}                       // NOLINT
    Result(Status status) : status_(status) {}                // NOLINT

    bool isOk() const { return status_.isOk(); }
    explicit operator bool() const { return isOk(); }

    Status status() const { return status_; }
    Err code() const { return status_.code(); }

    const T& value() const& { return *value_; }
    T& value() & { return *value_; }
    T&& value() && { return std::move(*value_); }

    /** Returns the value or throws NesgxError on fault. */
    T& orThrow(const std::string& context) & {
        status_.orThrow(context);
        return *value_;
    }

    T orThrow(const std::string& context) && {
        status_.orThrow(context);
        return std::move(*value_);
    }

  private:
    std::optional<T> value_;
    Status status_;
};

}  // namespace nesgx
