// ProtocolRegistry: name -> factory for every runnable protocol.
//
// Each rule's translation unit self-registers a factory (a static
// `ProtocolRegistrar` constructed before main), so adding a workload is ONE
// file: the rule + its wrapper (an EngineProcess<Rule> subclass,
// core/engine_process.hpp, which the factory builds directly) + a
// registrar. The harness, the shared `--protocol` CLI flag and the registry
// test suite all enumerate `names()` — a new protocol reaches all of them
// with zero scheduling or driver code.
//
// Factories are pure: factory(graph, params, seed) builds a fresh process
// whose entire trajectory is a function of (graph, params, seed). The
// registry-era drivers are bit-identical to the deleted enum-era ones; the
// golden fingerprints in tests/test_registry.cpp pin that equivalence.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/init.hpp"
#include "core/process.hpp"
#include "graph/graph.hpp"

namespace ssmis {

// Construction-time knobs shared by every factory: the initial pattern plus
// protocol-specific options as string key/values (set from `--proto-KEY=V`
// CLI flags or directly in code). Typed accessors throw
// std::invalid_argument on malformed values — a bad knob must never
// silently run the default.
class ProtocolParams {
 public:
  InitPattern init = InitPattern::kUniformRandom;

  void set(const std::string& key, const std::string& value) {
    options_[key] = value;
  }
  bool has(const std::string& key) const { return options_.count(key) > 0; }

  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  // The same, restricted to [lo, hi]: an out-of-range value throws like a
  // malformed one, naming the key and the range.
  std::int64_t get_int(const std::string& key, std::int64_t fallback,
                       std::int64_t lo, std::int64_t hi) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;
  std::string get_string(const std::string& key, const std::string& fallback) const;

  // Keys present, ascending — the registry validates them against the
  // protocol's declared option list.
  std::vector<std::string> keys() const;

 private:
  std::map<std::string, std::string> options_;
};

class ProtocolRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Process>(
      const Graph& g, const ProtocolParams& params, std::uint64_t seed)>;

  // The process-wide registry (populated by the static registrars).
  static ProtocolRegistry& instance();

  // Registers a protocol. `options` lists the `--proto-*` keys the factory
  // understands; make() rejects anything else. Throws std::logic_error on a
  // duplicate name.
  void add(std::string name, std::string description,
           std::vector<std::string> options, Factory factory);

  bool contains(const std::string& name) const;
  std::vector<std::string> names() const;  // ascending

  // "name — description (options: ...)"; throws std::invalid_argument on an
  // unknown name.
  std::string describe(const std::string& name) const;

  // The `--proto-*` option keys the protocol declared (as registered, not
  // sorted); throws std::invalid_argument on an unknown name. Lets generic
  // drivers (the fast-forward tests) discover which protocols accept a knob
  // without hardcoding the list.
  const std::vector<std::string>& options(const std::string& name) const;

  // describe() of every protocol, one per line — the `--list-protocols`
  // output, shared by every binary.
  std::string describe_all() const;

  // Builds a fresh process. Throws std::invalid_argument on an unknown name
  // (listing the registered ones) or an option key the protocol did not
  // declare (listing the valid ones) — typos never run a default silently.
  std::unique_ptr<Process> make(const std::string& name, const Graph& g,
                                const ProtocolParams& params,
                                std::uint64_t seed) const;

 private:
  struct Entry {
    std::string description;
    std::vector<std::string> options;
    Factory factory;
  };
  std::map<std::string, Entry> entries_;
};

// `static ProtocolRegistrar reg{"name", "desc", {...options}, factory};`
// in the rule's TU registers the protocol before main runs.
struct ProtocolRegistrar {
  ProtocolRegistrar(std::string name, std::string description,
                    std::vector<std::string> options,
                    ProtocolRegistry::Factory factory);
};

class CliArgs;

// Shared CLI convention: every `--proto-KEY=VALUE` flag becomes
// params.set(KEY, VALUE) (the registry validates KEY against the chosen
// protocol's declared options at construction). `init` seeds the pattern.
ProtocolParams protocol_params_from_args(
    const CliArgs& args, InitPattern init = InitPattern::kUniformRandom);

// The one way drivers fold an initial pattern into factory params.
inline ProtocolParams with_init(ProtocolParams params, InitPattern init) {
  params.init = init;
  return params;
}

}  // namespace ssmis
