// Error handling primitives for SpDISTAL.
//
// Three failure classes are distinguished:
//  - SpdError: user-facing errors (bad notation, illegal schedule, I/O
//    failures, simulated OOM). Thrown and expected to be catchable.
//  - SPD_ASSERT / SPDISTAL_CHECK: internal invariant violations. Abort in
//    all build types so that miscompilations never silently produce wrong
//    numbers.
//  - SPDISTAL_DCHECK: invariants on per-element / per-task hot paths.
//    Message-bearing and active in Debug builds (the sanitizer CI jobs),
//    compiled out under NDEBUG so Release inner loops stay branch-free.
#pragma once

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

namespace spdistal {

// Base class for all user-facing SpDISTAL errors.
class SpdError : public std::runtime_error {
 public:
  explicit SpdError(const std::string& what) : std::runtime_error(what) {}
};

// Raised when a simulated memory cannot hold a requested instance.
class OutOfMemoryError : public SpdError {
 public:
  explicit OutOfMemoryError(const std::string& what) : SpdError(what) {}
};

// Raised for malformed tensor index notation / distribution notation.
class NotationError : public SpdError {
 public:
  explicit NotationError(const std::string& what) : SpdError(what) {}
};

// Raised when a schedule is illegal for the statement it is applied to.
class ScheduleError : public SpdError {
 public:
  explicit ScheduleError(const std::string& what) : SpdError(what) {}
};

// Raised by the verification subsystem (SPDISTAL_VERIFY=1): a privilege
// violation caught by the region access checker, or a dependence-race/
// stale-residency finding from the plan auditor. Schedule errors are
// ScheduleErrors from CompiledKernel::compile in every mode.
class VerifyError : public SpdError {
 public:
  explicit VerifyError(const std::string& what) : SpdError(what) {}
};

[[noreturn]] void assert_fail(const char* expr, const char* file, int line,
                              const std::string& msg);

namespace detail {
// Builds an assertion message from a stream expression lazily.
struct MsgStream {
  std::ostringstream os;
  template <typename T>
  MsgStream& operator<<(const T& v) {
    os << v;
    return *this;
  }
  std::string str() const { return os.str(); }
};
}  // namespace detail

}  // namespace spdistal

// Internal invariant check; always on.
#define SPD_ASSERT(expr, msg)                                          \
  do {                                                                 \
    if (!(expr)) {                                                     \
      ::spdistal::assert_fail(#expr, __FILE__, __LINE__,               \
                              (::spdistal::detail::MsgStream() << msg) \
                                  .str());                             \
    }                                                                  \
  } while (0)

// User-facing check; throws the given exception type with a streamed message.
#define SPD_CHECK(expr, ExcType, msg)                                        \
  do {                                                                       \
    if (!(expr)) {                                                           \
      throw ExcType((::spdistal::detail::MsgStream() << msg).str());         \
    }                                                                        \
  } while (0)

// Always-on invariant check; identical to SPD_ASSERT under the project-
// prefixed name. Pairs with SPDISTAL_DCHECK so call sites state whether an
// invariant must hold in every build or only under Debug.
#define SPDISTAL_CHECK(expr, msg) SPD_ASSERT(expr, msg)

// Hot-path invariant check: full message-bearing abort in Debug builds
// (where the sanitizer CI jobs run), compiled out under NDEBUG. The
// condition and message stay compiled (type errors still fail the build)
// but are dead code the optimizer removes, so per-element access paths in
// Release carry no branch.
#ifndef NDEBUG
#define SPDISTAL_DCHECK(expr, msg) SPD_ASSERT(expr, msg)
#else
#define SPDISTAL_DCHECK(expr, msg)                                \
  do {                                                            \
    if (false) {                                                  \
      (void)(expr);                                               \
      (void)(::spdistal::detail::MsgStream() << msg);             \
    }                                                             \
  } while (0)
#endif
