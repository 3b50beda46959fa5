#include "harness/registry.hpp"

#include <charconv>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "support/cli.hpp"

namespace ssmis {

namespace {

[[noreturn]] void bad_value(const std::string& key, const std::string& value,
                            const std::string& expected) {
  throw std::invalid_argument("protocol option " + key + ": expected " +
                              expected + ", got '" + value + "'");
}

std::string join(const std::vector<std::string>& items) {
  std::string out;
  for (const std::string& s : items) {
    if (!out.empty()) out += ", ";
    out += s;
  }
  return out;
}

}  // namespace

std::int64_t ProtocolParams::get_int(const std::string& key, std::int64_t fallback,
                                     std::int64_t lo, std::int64_t hi) const {
  const std::string s = get_string(key, "");
  std::int64_t value = fallback;
  if (has(key)) {
    auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
    if (ec != std::errc() || ptr != s.data() + s.size()) bad_value(key, s, "integer");
  }
  if (value < lo || value > hi)
    bad_value(key, s, "integer in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]");
  return value;
}

double ProtocolParams::get_double(const std::string& key, double fallback) const {
  auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  const std::string& s = it->second;
  char* end = nullptr;
  const double value = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') bad_value(key, s, "number");
  return value;
}

bool ProtocolParams::get_bool(const std::string& key, bool fallback) const {
  auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  const std::string& s = it->second;
  if (s.empty() || s == "1" || s == "true" || s == "yes" || s == "on") return true;
  if (s == "0" || s == "false" || s == "no" || s == "off") return false;
  bad_value(key, s, "boolean");
}

std::string ProtocolParams::get_string(const std::string& key,
                                       const std::string& fallback) const {
  auto it = options_.find(key);
  return it == options_.end() ? fallback : it->second;
}

std::vector<std::string> ProtocolParams::keys() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : options_) out.push_back(key);
  return out;
}

ProtocolRegistry& ProtocolRegistry::instance() {
  static ProtocolRegistry registry;  // construct-on-first-use: safe from
  return registry;                   // the pre-main static registrars
}

void ProtocolRegistry::add(std::string name, std::string description,
                           std::vector<std::string> options, Factory factory) {
  auto [it, inserted] = entries_.emplace(
      std::move(name),
      Entry{std::move(description), std::move(options), std::move(factory)});
  if (!inserted)
    throw std::logic_error("ProtocolRegistry: duplicate protocol '" +
                           it->first + "'");
}

bool ProtocolRegistry::contains(const std::string& name) const {
  return entries_.count(name) > 0;
}

std::vector<std::string> ProtocolRegistry::names() const {
  std::vector<std::string> out;
  for (const auto& [name, entry] : entries_) out.push_back(name);
  return out;
}

std::string ProtocolRegistry::describe(const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end())
    throw std::invalid_argument("ProtocolRegistry: unknown protocol '" + name +
                                "' (registered: " + join(names()) + ")");
  std::ostringstream oss;
  oss << name << " — " << it->second.description;
  if (!it->second.options.empty())
    oss << " (options: " << join(it->second.options) << ")";
  return oss.str();
}

const std::vector<std::string>& ProtocolRegistry::options(
    const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end())
    throw std::invalid_argument("ProtocolRegistry: unknown protocol '" + name +
                                "' (registered: " + join(names()) + ")");
  return it->second.options;
}

std::string ProtocolRegistry::describe_all() const {
  std::string out;
  for (const auto& [name, entry] : entries_) out += describe(name) + "\n";
  return out;
}

std::unique_ptr<Process> ProtocolRegistry::make(const std::string& name,
                                                const Graph& g,
                                                const ProtocolParams& params,
                                                std::uint64_t seed) const {
  auto it = entries_.find(name);
  if (it == entries_.end())
    throw std::invalid_argument("ProtocolRegistry: unknown protocol '" + name +
                                "' (registered: " + join(names()) + ")");
  // A typo'd option must not silently run the default configuration.
  for (const std::string& key : params.keys()) {
    bool known = false;
    for (const std::string& opt : it->second.options) known |= (opt == key);
    if (!known)
      throw std::invalid_argument(
          "protocol " + name + ": unknown option '" + key + "'" +
          (it->second.options.empty()
               ? " (this protocol takes no options)"
               : " (valid: " + join(it->second.options) + ")"));
  }
  return it->second.factory(g, params, seed);
}

ProtocolRegistrar::ProtocolRegistrar(std::string name, std::string description,
                                     std::vector<std::string> options,
                                     ProtocolRegistry::Factory factory) {
  ProtocolRegistry::instance().add(std::move(name), std::move(description),
                                   std::move(options), std::move(factory));
}

ProtocolParams protocol_params_from_args(const CliArgs& args, InitPattern init) {
  constexpr const char* kPrefix = "proto-";
  ProtocolParams params;
  params.init = init;
  for (const auto& [name, value] : args.options()) {
    if (name.rfind(kPrefix, 0) == 0) params.set(name.substr(6), value);
  }
  return params;
}

}  // namespace ssmis
