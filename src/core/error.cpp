#include "core/error.hpp"

#include "numeric/rational.hpp"

namespace hypart {

const char* to_string(ErrorKind kind) {
  switch (kind) {
    case ErrorKind::Parse: return "parse";
    case ErrorKind::Config: return "config";
    case ErrorKind::Unsatisfiable: return "unsatisfiable";
    case ErrorKind::Fault: return "fault";
    case ErrorKind::Stall: return "stall";
    case ErrorKind::WorkerDeath: return "worker-death";
    case ErrorKind::Io: return "io";
    case ErrorKind::Internal: return "internal";
    case ErrorKind::Overloaded: return "overloaded";
  }
  return "?";
}

int Error::exit_code() const {
  switch (kind_) {
    case ErrorKind::Parse: return 65;
    case ErrorKind::Unsatisfiable: return 69;
    case ErrorKind::Internal: return 70;
    case ErrorKind::Io: return 74;
    case ErrorKind::Stall: return 75;
    case ErrorKind::WorkerDeath: return 76;
    case ErrorKind::Fault: return 77;
    case ErrorKind::Config: return 78;
    case ErrorKind::Overloaded: return 79;
  }
  return 70;
}

Error classify_failure(const std::exception& e) {
  if (const auto* typed = dynamic_cast<const Error*>(&e)) return *typed;
  if (dynamic_cast<const ArithmeticError*>(&e) != nullptr)
    return Error(ErrorKind::Config,
                 std::string("input too large for exact 64-bit closed forms: ") + e.what());
  return Error(ErrorKind::Internal, e.what());
}

}  // namespace hypart
