// Error reporting and assertion utilities for the simulation kernel.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace craft {

/// Exception type thrown for all simulation errors (elaboration errors,
/// protocol violations, assertion failures inside processes).
class SimError : public std::runtime_error {
 public:
  explicit SimError(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {

/// `path` with "." components, repeated separators and "dir/.." pairs
/// removed; a leading "/" (and a relative path's leading "..") kept.
std::string LexicallyNormal(std::string_view path);

/// A __FILE__ as error messages print it: lexically normalised and, inside
/// the checkout this kernel was built from, relative to its root —
/// "src/soc/soc.hpp", not "/abs/checkout/src/soc/../soc/soc.hpp".
std::string SourcePath(std::string_view file);

[[noreturn]] void RaiseError(const char* file, int line, const std::string& msg);

}  // namespace detail

}  // namespace craft

/// Raises a SimError with file/line context. Usable from any process.
#define CRAFT_ERROR(msg)                                        \
  do {                                                          \
    std::ostringstream craft_os_;                               \
    craft_os_ << msg;                                           \
    ::craft::detail::RaiseError(__FILE__, __LINE__, craft_os_.str()); \
  } while (0)

/// Always-on assertion (simulation correctness does not depend on NDEBUG).
#define CRAFT_ASSERT(cond, msg)                                  \
  do {                                                           \
    if (!(cond)) {                                               \
      CRAFT_ERROR("assertion failed: " #cond ": " << msg);       \
    }                                                            \
  } while (0)
