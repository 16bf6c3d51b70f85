#include "build_info.h"

#include <thread>

#include "json.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace perfbench {

BuildInfo current_build() {
  BuildInfo info;
  info.cores = std::thread::hardware_concurrency();
  info.build_type = PERFBENCH_BUILD_TYPE;
#if defined(__clang__)
  info.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  info.compiler = "gcc " __VERSION__;
#else
  info.compiler = "unknown";
#endif
  info.flags = PERFBENCH_CXX_FLAGS;
#if !defined(NDEBUG) || defined(_GLIBCXX_ASSERTIONS)
  info.assertions = true;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  info.sanitizers = true;
#endif
  if (info.flags.find("-fsanitize") != std::string::npos) {
    info.sanitizers = true;
  }
  return info;
}

std::string timing_refusal(const BuildInfo& info) {
  if (info.assertions) {
    return "refusing to report timings from a build with assertions on "
           "(build type '" + info.build_type +
           "'); configure with -DCMAKE_BUILD_TYPE=Release";
  }
  if (info.sanitizers) {
    return "refusing to report timings from a sanitizer build (flags '" +
           info.flags + "')";
  }
  return "";
}

std::string build_info_json(const BuildInfo& info) {
  JsonObject out;
  out.add("cores", static_cast<std::uint64_t>(info.cores));
  out.add("build_type", info.build_type);
  out.add("compiler", info.compiler);
  out.add("flags", info.flags);
  out.add("assertions", info.assertions);
  out.add("sanitizers", info.sanitizers);
  return out.str();
}

}  // namespace perfbench
