// Engine names, numbers and the PTAINT_* environment variables (DESIGN.md
// §15): the configuration read at the edge of every tool.
//
// The seven variables are parsed in one place, once per process: env()
// applies the pure parse_env() to the process environment on first use.
// Library code reads the parsed struct and never the environment itself.
// parse_number() is the one check behind every numeric CLI option.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace ptaint::cpu {

/// Which execution engine drives the core (DESIGN.md §9, §12).  All three
/// produce byte-identical architectural state, stop reasons, alerts and
/// statistics; the translated tiers are simply faster.
enum class Engine : uint8_t {
  kStep,        // reference interpreter: fetch/decode/execute per instruction
  kSuperblock,  // translated superblocks with threaded dispatch
  kJit,         // hot superblocks compiled to host x86-64 (DESIGN.md §12)
};

/// The engine called `name` ("step", "superblock" or "jit"), or nullopt.
std::optional<Engine> parse_engine(std::string_view name);
/// The engine's name, as parse_engine() accepts it.
const char* to_string(Engine engine);

/// `text` as a whole unsigned number no greater than `max`.  Base 0 reads
/// the notations strtoull(text, nullptr, 0) reads: 0x hexadecimal, a
/// leading 0 octal, else decimal.  nullopt for an empty string, a sign,
/// whitespace, trailing characters or a value over `max`.
std::optional<uint64_t> parse_number(std::string_view text, uint64_t max,
                                     int base = 0);

/// The parsed variables; each default is what an unset variable means.
struct Env {
  std::optional<Engine> engine;        // PTAINT_ENGINE (unset: superblock)
  bool no_cow = false;                 // PTAINT_NO_COW
  bool analysis_cache = true;          // PTAINT_ANALYSIS_CACHE
  bool snapshot_store = false;         // PTAINT_SNAPSHOT_STORE
  std::string snapshot_dir;            // PTAINT_SNAPSHOT_DIR
  std::optional<size_t> snapshot_hot;  // PTAINT_SNAPSHOT_HOT
  bool jit_force_unsupported = false;  // PTAINT_JIT_FORCE_UNSUPPORTED
};

/// Parses the variables through `getter` (name -> value, nullptr if unset).
/// An empty variable counts as unset; a flag is false for "0" and true for
/// any other value.  Throws std::invalid_argument, naming the variable, for
/// an unknown engine or a PTAINT_SNAPSHOT_HOT that is not a decimal count.
Env parse_env(const std::function<const char*(const char*)>& getter);

/// parse_env() over the process environment, evaluated once per process;
/// a bad value throws its std::invalid_argument from every call.
const Env& env();

/// For a tool's main(): true when env() parses, else prints
/// "<tool>: <error>" to stderr and returns false (the tool exits 4).
bool check_env(const char* tool);

}  // namespace ptaint::cpu
