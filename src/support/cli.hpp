// Minimal command-line argument parsing for bench and example binaries.
//
// Supports `--name=value`, `--name value`, and boolean `--flag` forms.
// Unknown arguments are collected and can be reported as errors, and a
// malformed value ends the program, so that typos in sweep parameters do
// not silently run the default configuration.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ssmis {

// Parsed view of argv. Values are stored as strings and converted on access.
class CliArgs {
 public:
  CliArgs() = default;

  // Parses argv[1..argc). Never throws; malformed values surface when the
  // typed accessor is called.
  static CliArgs parse(int argc, const char* const* argv);

  // Typed accessors; return `fallback` when the option is absent. A value
  // that does not parse prints `error: --NAME: expected ..., got '...'` to
  // stderr and exits with status 2, like an unknown flag. Numbers are
  // restricted to [lo, hi]: an out-of-range value (NaN is in no range)
  // exits like a malformed one, naming the range.
  std::int64_t get_int(const std::string& name, std::int64_t fallback,
                       std::int64_t lo, std::int64_t hi) const;
  double get_double(const std::string& name, double fallback, double lo, double hi) const;
  std::string get_string(const std::string& name, const std::string& fallback) const;
  bool get_bool(const std::string& name, bool fallback = false) const;

  bool has(const std::string& name) const;

  // All parsed options, name -> raw value (for generic forwarding, e.g. the
  // protocol registry's `--proto-KEY=VALUE` namespace).
  const std::map<std::string, std::string>& options() const { return options_; }

  // Unknown-option rejection: one error message per parsed option whose
  // name is neither in `known` (exact match) nor covered by a `known` entry
  // ending in '*' (prefix wildcard, e.g. "proto-*"). Each message lists the
  // valid flags — a typo'd `--protocal` must not silently run the default.
  std::vector<std::string> unknown_options(
      const std::vector<std::string>& known) const;

  // Positional (non --option) arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

// The one parallel-runtime knob, parsed uniformly by every experiment and
// example binary: `--threads N` interleaves whole trials across N threads
// of the shared pool. Absent or negative gives 1 (sequential, in trial
// order); 0 gives ThreadPool::host_width(). Results are bit-identical at
// any N. The 3-color phase clock fans out on its own whatever N says
// (docs/architecture.md, "Parallel runtime").
int parse_threads(const CliArgs& args);

}  // namespace ssmis
