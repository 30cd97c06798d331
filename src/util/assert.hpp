// CreditFlow: contract-checking macros (Core Guidelines I.6/I.8 style).
#pragma once

#include <stdexcept>
#include <string>

namespace creditflow::util {

/// Thrown when a precondition (caller error) is violated.
class PreconditionError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Thrown when an internal invariant (library bug) is violated.
class InvariantError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// A precondition without a message names its expression and location.
[[noreturn]] inline void fail_precondition(const char* expr, const char* file,
                                           int line) {
  throw PreconditionError(std::string("precondition failed: ") + expr + " at " +
                          file + ":" + std::to_string(line));
}

/// A precondition with a message: the message alone explains the caller's
/// error to the user, without the expression or the source path.
[[noreturn]] inline void fail_precondition(const std::string& msg) {
  throw PreconditionError(msg);
}

[[noreturn]] inline void fail_invariant(const char* expr, const char* file,
                                        int line, const std::string& msg) {
  throw InvariantError(std::string("invariant failed: ") + expr + " at " +
                       file + ":" + std::to_string(line) +
                       (msg.empty() ? "" : (" — " + msg)));
}

}  // namespace creditflow::util

/// Check a caller-facing precondition; throws PreconditionError on violation.
#define CF_EXPECTS(cond)                                                     \
  do {                                                                       \
    if (!(cond))                                                             \
      ::creditflow::util::fail_precondition(#cond, __FILE__, __LINE__);      \
  } while (false)

/// Check a caller-facing precondition; the PreconditionError's message is
/// `msg` alone.
#define CF_EXPECTS_MSG(cond, msg)                                            \
  do {                                                                       \
    if (!(cond))                                                             \
      ::creditflow::util::fail_precondition(msg);                            \
  } while (false)

/// Check an internal invariant; throws InvariantError on violation.
#define CF_ENSURES(cond)                                                   \
  do {                                                                     \
    if (!(cond))                                                           \
      ::creditflow::util::fail_invariant(#cond, __FILE__, __LINE__, {});   \
  } while (false)

/// Check an internal invariant with an explanatory message.
#define CF_ENSURES_MSG(cond, msg)                                          \
  do {                                                                     \
    if (!(cond))                                                           \
      ::creditflow::util::fail_invariant(#cond, __FILE__, __LINE__, msg);  \
  } while (false)
