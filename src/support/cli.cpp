#include "support/cli.hpp"

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <limits>

#include "support/narrow.hpp"
#include "support/thread_pool.hpp"

namespace ssmis {

namespace {

// Returns true if `s` looks like an option token (`--name` or `--name=value`).
bool is_option(const std::string& s) {
  return s.size() > 2 && s[0] == '-' && s[1] == '-';
}

[[noreturn]] void bad_value(const std::string& name, const std::string& expected,
                            const std::string& value) {
  std::cerr << "error: --" << name << ": expected " << expected << ", got '"
            << value << "'\n";
  std::exit(2);
}

}  // namespace

CliArgs CliArgs::parse(int argc, const char* const* argv) {
  CliArgs args;
  for (int i = 1; i < argc; ++i) {
    std::string tok = argv[i];
    if (!is_option(tok)) {
      args.positional_.push_back(std::move(tok));
      continue;
    }
    std::string body = tok.substr(2);
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      args.options_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--name value` form: consume the next token if it is not an option.
    if (i + 1 < argc && !is_option(argv[i + 1])) {
      args.options_[body] = argv[i + 1];
      ++i;
    } else {
      args.options_[body] = "";  // boolean flag
    }
  }
  return args;
}

std::int64_t CliArgs::get_int(const std::string& name, std::int64_t fallback,
                              std::int64_t lo, std::int64_t hi) const {
  const std::string s = get_string(name, "");
  std::int64_t value = fallback;
  if (has(name)) {
    auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
    if (ec != std::errc() || ptr != s.data() + s.size()) bad_value(name, "integer", s);
  }
  if (value < lo || value > hi)
    bad_value(name,
              "integer in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]", s);
  return value;
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  const std::string& s = it->second;
  char* end = nullptr;
  double value = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') bad_value(name, "number", s);
  return value;
}

std::string CliArgs::get_string(const std::string& name, const std::string& fallback) const {
  auto it = options_.find(name);
  return it == options_.end() ? fallback : it->second;
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  const std::string& s = it->second;
  if (s.empty() || s == "1" || s == "true" || s == "yes" || s == "on") return true;
  if (s == "0" || s == "false" || s == "no" || s == "off") return false;
  bad_value(name, "boolean", s);
}

bool CliArgs::has(const std::string& name) const {
  return options_.count(name) > 0;
}

std::vector<std::string> CliArgs::unknown_options(
    const std::vector<std::string>& known) const {
  std::string valid;
  for (const std::string& k : known) {
    if (!valid.empty()) valid += ", ";
    valid += "--" + k;
  }
  std::vector<std::string> out;
  for (const auto& [name, value] : options_) {
    bool ok = false;
    for (const std::string& k : known) {
      if (!k.empty() && k.back() == '*'
              ? name.rfind(k.substr(0, k.size() - 1), 0) == 0
              : name == k) {
        ok = true;
        break;
      }
    }
    if (!ok)
      out.push_back("unknown flag --" + name + " (valid flags: " + valid + ")");
  }
  return out;
}

int parse_threads(const CliArgs& args) {
  const int threads = narrow_cast<int>(args.get_int(
      "threads", 1, std::numeric_limits<int>::min(), std::numeric_limits<int>::max()));
  if (threads == 0) return ThreadPool::host_width();
  return threads < 1 ? 1 : threads;
}

}  // namespace ssmis
