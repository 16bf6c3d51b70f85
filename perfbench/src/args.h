// Command-line flags of the benchmark binary, parsed with range checks.
//
// Every numeric flag is read with std::from_chars over the whole value:
// non-numeric text, trailing junk, a sign and anything outside the
// flag's range are rejected with a one-line message (the binary then
// exits 2).  Parsing never acts on a value, so rejecting
// `--threads=1000000` starts no thread.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// The benchmark's workloads, in presentation order.
[[nodiscard]] const std::vector<std::string>& workload_names();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t seconds = 10;
  bool trace = false;
  std::size_t threads = 4;  ///< worker threads of the parallel engines
  std::string scratch = ".bench_build/scratch";  ///< spill files, traces
};

inline constexpr std::uint64_t kMaxSeconds = 3600;
inline constexpr std::size_t kMaxThreads = 256;

/// Outcome of parse_args: the flags, or a one-line error.
struct ParseResult {
  std::optional<Args> args;
  std::string error;
};

/// Parse `--name value` or `--name=value` flags (argv[0] excluded).
/// --workload is required; every other flag has a default.
[[nodiscard]] ParseResult parse_args(const std::vector<std::string>& argv);

/// Parse a whole decimal unsigned integer in [lo, hi]; nullopt on
/// anything else (empty, sign, junk, overflow, out of range).
[[nodiscard]] std::optional<std::uint64_t> parse_uint(const std::string& text,
                                                      std::uint64_t lo,
                                                      std::uint64_t hi);

}  // namespace perfbench
