// The machine and build a report came from, and the rule that refuses
// to time a build whose numbers would mislead: with assertions on,
// Configuration::step runs hash_self_check on every step, and sanitizer
// builds are several times slower in every layer.
#pragma once

#include <string>

namespace perfbench {

struct BuildInfo {
  unsigned cores = 0;      ///< std::thread::hardware_concurrency()
  std::string build_type;  ///< CMAKE_BUILD_TYPE
  std::string compiler;    ///< compiler id and version
  std::string flags;       ///< the C++ flags of the build type
  bool assertions = false; ///< NDEBUG unset, or _GLIBCXX_ASSERTIONS set
  bool sanitizers = false; ///< any -fsanitize in the build
};

/// What this binary was built with, on this machine.
[[nodiscard]] BuildInfo current_build();

/// One-line reason to refuse timing `info`, or "" when it may be timed.
[[nodiscard]] std::string timing_refusal(const BuildInfo& info);

/// JSON object rendering of `info`.
[[nodiscard]] std::string build_info_json(const BuildInfo& info);

}  // namespace perfbench
