#include "cpu/env.hpp"

#include <charconv>
#include <cstdint>
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

std::optional<uint64_t> parse_number(std::string_view text, uint64_t max,
                                     int base) {
  if (base == 0) {
    base = 10;
    if (text.size() > 1 && text[0] == '0') {
      base = 8;
      if (text[1] == 'x' || text[1] == 'X') {
        base = 16;
        text.remove_prefix(2);
      }
    }
  }
  // from_chars takes no sign, whitespace or prefix for an unsigned value.
  uint64_t n = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, n, base);
  if (ec != std::errc() || stop != end || n > max) return std::nullopt;
  return n;
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
    const auto n = parse_number(v, SIZE_MAX, 10);
    if (!n) reject("PTAINT_SNAPSHOT_HOT", "not a snapshot count: ", v);
    out.snapshot_hot = *n;
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
