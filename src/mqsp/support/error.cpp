#include "mqsp/support/error.hpp"

#include <string>

namespace mqsp::detail {

void throwInvalidArgument(std::string_view message) {
    throw InvalidArgumentError(std::string(message));
}

void throwInternal(std::string_view message) {
    throw InternalError(std::string(message));
}

} // namespace mqsp::detail
