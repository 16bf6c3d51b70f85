#include "args.h"

#include <algorithm>
#include <charconv>

namespace perfbench {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "explore", "fuzz-n4", "fuzz-n128", "attack"};
  return names;
}

std::optional<std::uint64_t> parse_uint(const std::string& text,
                                        std::uint64_t lo, std::uint64_t hi) {
  if (text.empty() || text.front() < '0' || text.front() > '9') {
    return std::nullopt;
  }
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < lo || value > hi) {
    return std::nullopt;
  }
  return value;
}

namespace {

std::string range_error(const std::string& flag, const std::string& value,
                        std::uint64_t lo, std::uint64_t hi) {
  return "invalid value '" + value + "' for --" + flag +
         ": expected a whole number in [" + std::to_string(lo) + ", " +
         std::to_string(hi) + "]";
}

}  // namespace

ParseResult parse_args(const std::vector<std::string>& argv) {
  Args args;
  bool have_workload = false;
  for (std::size_t i = 0; i < argv.size(); ++i) {
    const std::string& arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      return {std::nullopt, "unexpected argument '" + arg + "'"};
    }
    std::string name = arg.substr(2);
    std::string value;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name.resize(eq);
    } else if (i + 1 < argv.size()) {
      value = argv[++i];
    } else {
      return {std::nullopt, "flag --" + name + " needs a value"};
    }
    auto number = [&](std::uint64_t lo,
                      std::uint64_t hi) -> std::optional<std::uint64_t> {
      return parse_uint(value, lo, hi);
    };
    if (name == "workload") {
      const auto& names = workload_names();
      if (std::find(names.begin(), names.end(), value) == names.end()) {
        return {std::nullopt, "unknown workload '" + value + "'"};
      }
      args.workload = value;
      have_workload = true;
    } else if (name == "seed") {
      const auto v = number(0, UINT64_MAX);
      if (!v) {
        return {std::nullopt, range_error(name, value, 0, UINT64_MAX)};
      }
      args.seed = *v;
    } else if (name == "seconds") {
      const auto v = number(1, kMaxSeconds);
      if (!v) {
        return {std::nullopt, range_error(name, value, 1, kMaxSeconds)};
      }
      args.seconds = *v;
    } else if (name == "trace") {
      const auto v = number(0, 1);
      if (!v) {
        return {std::nullopt, range_error(name, value, 0, 1)};
      }
      args.trace = *v == 1;
    } else if (name == "threads") {
      const auto v = number(1, kMaxThreads);
      if (!v) {
        return {std::nullopt, range_error(name, value, 1, kMaxThreads)};
      }
      args.threads = static_cast<std::size_t>(*v);
    } else if (name == "scratch") {
      if (value.empty()) {
        return {std::nullopt, "flag --scratch needs a directory"};
      }
      args.scratch = value;
    } else {
      return {std::nullopt, "unknown flag --" + name};
    }
  }
  if (!have_workload) {
    return {std::nullopt,
            "missing --workload (one of explore, fuzz-n4, fuzz-n128, attack)"};
  }
  return {args, ""};
}

}  // namespace perfbench
