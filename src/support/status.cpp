#include "support/status.h"

namespace nesgx {

const char*
errName(Err e)
{
    switch (e) {
      case Err::Ok: return "Ok";
      case Err::GeneralProtection: return "GeneralProtection";
      case Err::PageFault: return "PageFault";
      case Err::PageInUse: return "PageInUse";
      case Err::InvalidEpcPage: return "InvalidEpcPage";
      case Err::InvalidMeasurement: return "InvalidMeasurement";
      case Err::InvalidSignature: return "InvalidSignature";
      case Err::AssociationRejected: return "AssociationRejected";
      case Err::TrackingIncomplete: return "TrackingIncomplete";
      case Err::PagingIntegrity: return "PagingIntegrity";
      case Err::NoSuchCall: return "NoSuchCall";
      case Err::BadCallBuffer: return "BadCallBuffer";
      case Err::OsError: return "OsError";
      case Err::ReportMacMismatch: return "ReportMacMismatch";
      case Err::OutOfMemory: return "OutOfMemory";
      case Err::NotFound: return "NotFound";
      case Err::Backpressure: return "Backpressure";
      case Err::Unavailable: return "Unavailable";
      case Err::SealRejected: return "SealRejected";
      case Err::Deadline: return "Deadline";
      case Err::AttestationFailed: return "AttestationFailed";
      case Err::WrongEpoch: return "WrongEpoch";
      case Err::InvalidConfig: return "InvalidConfig";
    }
    return "Unknown";
}

void
Status::orThrow(const std::string& context) const
{
    if (!isOk()) {
        throw NesgxError(code_, context + ": " + name());
    }
}

}  // namespace nesgx
