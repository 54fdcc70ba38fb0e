#pragma once

#include <stdexcept>
#include <string_view>

namespace mqsp {

/// Base class for all errors raised by the mqsp library.
class Error : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Raised when an argument violates a documented precondition
/// (e.g. a qudit dimension < 2, a state vector of mismatched length).
class InvalidArgumentError : public Error {
public:
    using Error::Error;
};

/// Raised when an internal invariant is violated. Seeing this exception
/// indicates a bug in the library, not in the caller.
class InternalError : public Error {
public:
    using Error::Error;
};

namespace detail {
/// The throw paths, kept out of line so an inlined check costs its
/// compare and a never-taken branch.
[[noreturn]] void throwInvalidArgument(std::string_view message);
[[noreturn]] void throwInternal(std::string_view message);
} // namespace detail

// A check is free when it passes: the message is a literal, and a message
// composed from runtime values is built only on the failure branch
// (`if (!cond) { detail::throwInvalidArgument("..." + value); }`). Taking
// `const char*` makes a composed std::string argument a compile error.

/// Check a caller-facing precondition; throws InvalidArgumentError on failure.
inline void requireThat(bool condition, const char* message) {
    if (!condition) [[unlikely]] {
        detail::throwInvalidArgument(message);
    }
}

/// Check an internal invariant; throws InternalError on failure.
inline void ensureThat(bool condition, const char* message) {
    if (!condition) [[unlikely]] {
        detail::throwInternal(message);
    }
}

} // namespace mqsp
