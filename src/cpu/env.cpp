#include "cpu/env.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <stdexcept>
#include <variant>

namespace ptaint::cpu {

namespace {
// Indexed by Engine, in declaration order.
constexpr const char* kEngineNames[] = {"step", "superblock", "jit"};
}  // namespace

std::optional<Engine> parse_engine(std::string_view name) {
  for (size_t i = 0; i < std::size(kEngineNames); ++i) {
    if (name == kEngineNames[i]) return static_cast<Engine>(i);
  }
  return std::nullopt;
}

const char* to_string(Engine engine) {
  return kEngineNames[static_cast<size_t>(engine)];
}

Env parse_env(const std::function<const char*(const char*)>& getter) {
  // Unset and empty read the same: the variable keeps its default.
  const auto get = [&](const char* name) {
    const char* v = getter(name);
    return std::string_view(v != nullptr ? v : "");
  };
  const auto flag = [&](const char* name, bool& field) {
    if (const std::string_view v = get(name); !v.empty()) field = v != "0";
  };
  const auto reject = [](const char* name, const char* what,
                         std::string_view v) {
    throw std::invalid_argument(std::string(name) + ": " + what +
                                std::string(v));
  };

  Env out;
  if (const std::string_view v = get("PTAINT_ENGINE"); !v.empty()) {
    out.engine = parse_engine(v);
    if (!out.engine) reject("PTAINT_ENGINE", "unknown engine: ", v);
  }
  flag("PTAINT_NO_COW", out.no_cow);
  flag("PTAINT_ANALYSIS_CACHE", out.analysis_cache);
  flag("PTAINT_SNAPSHOT_STORE", out.snapshot_store);
  out.snapshot_dir = get("PTAINT_SNAPSHOT_DIR");
  if (const std::string_view v = get("PTAINT_SNAPSHOT_HOT"); !v.empty()) {
    size_t n = 0;
    const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), n);
    if (ec != std::errc() || end != v.data() + v.size()) {
      reject("PTAINT_SNAPSHOT_HOT", "not a snapshot count: ", v);
    }
    out.snapshot_hot = n;
  }
  flag("PTAINT_JIT_FORCE_UNSUPPORTED", out.jit_force_unsupported);
  return out;
}

const Env& env() {
  // The error is kept rather than thrown from the initializer, which would
  // run again (and read the environment again) on the next call.
  static const std::variant<Env, std::string> parsed =
      []() -> std::variant<Env, std::string> {
    try {
      return parse_env([](const char* name) { return std::getenv(name); });
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
  }();
  if (const auto* error = std::get_if<std::string>(&parsed)) {
    throw std::invalid_argument(*error);
  }
  return std::get<Env>(parsed);
}

bool check_env(const char* tool) {
  try {
    env();
    return true;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", tool, e.what());
    return false;
  }
}

}  // namespace ptaint::cpu
