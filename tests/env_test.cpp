// cpu::parse_env: the one reader of the seven PTAINT_* variables.  A table
// of (variable, value) -> parsed field, the shared rule for flags, and the
// values it rejects instead of silently falling back to a default.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>

#include "cpu/env.hpp"

namespace ptaint::cpu {
namespace {

using Vars = std::map<std::string, std::string>;

Env parse(const Vars& vars) {
  return parse_env([&vars](const char* name) -> const char* {
    const auto it = vars.find(name);
    return it == vars.end() ? nullptr : it->second.c_str();
  });
}

TEST(EnvParse, UnsetVariablesKeepTheirDefaults) {
  const Env env = parse({});
  EXPECT_FALSE(env.engine.has_value());
  EXPECT_FALSE(env.no_cow);
  EXPECT_TRUE(env.analysis_cache);
  EXPECT_FALSE(env.snapshot_store);
  EXPECT_EQ(env.snapshot_dir, "");
  EXPECT_FALSE(env.snapshot_hot.has_value());
  EXPECT_FALSE(env.jit_force_unsupported);
}

TEST(EnvParse, EngineNames) {
  EXPECT_EQ(parse({{"PTAINT_ENGINE", "step"}}).engine, Engine::kStep);
  EXPECT_EQ(parse({{"PTAINT_ENGINE", "superblock"}}).engine,
            Engine::kSuperblock);
  EXPECT_EQ(parse({{"PTAINT_ENGINE", "jit"}}).engine, Engine::kJit);
  EXPECT_FALSE(parse({{"PTAINT_ENGINE", ""}}).engine.has_value());
  for (const Engine e : {Engine::kStep, Engine::kSuperblock, Engine::kJit}) {
    EXPECT_EQ(parse_engine(to_string(e)), e);
  }
  EXPECT_FALSE(parse_engine("JIT").has_value());
}

// One rule for every flag: "" keeps the default, "0" is false, and any
// other value is true.
TEST(EnvParse, FlagsShareOneTruthyRule) {
  struct Flag {
    const char* name;
    bool Env::*field;
    bool fallback;
  };
  const Flag flags[] = {
      {"PTAINT_NO_COW", &Env::no_cow, false},
      {"PTAINT_ANALYSIS_CACHE", &Env::analysis_cache, true},
      {"PTAINT_SNAPSHOT_STORE", &Env::snapshot_store, false},
      {"PTAINT_JIT_FORCE_UNSUPPORTED", &Env::jit_force_unsupported, false},
  };
  for (const Flag& f : flags) {
    EXPECT_EQ(parse({{f.name, ""}}).*f.field, f.fallback) << f.name;
    EXPECT_FALSE(parse({{f.name, "0"}}).*f.field) << f.name;
    EXPECT_TRUE(parse({{f.name, "1"}}).*f.field) << f.name;
    EXPECT_TRUE(parse({{f.name, "yes"}}).*f.field) << f.name;
  }
}

TEST(EnvParse, SnapshotDirAndHotCount) {
  EXPECT_EQ(parse({{"PTAINT_SNAPSHOT_DIR", "/tmp/s"}}).snapshot_dir, "/tmp/s");
  EXPECT_EQ(parse({{"PTAINT_SNAPSHOT_HOT", "2"}}).snapshot_hot, 2u);
  EXPECT_EQ(parse({{"PTAINT_SNAPSHOT_HOT", "0"}}).snapshot_hot, 0u);
  EXPECT_FALSE(parse({{"PTAINT_SNAPSHOT_HOT", ""}}).snapshot_hot.has_value());
}

/// The message parse_env throws for `vars`, or "" when it does not throw.
std::string rejection(const Vars& vars) {
  try {
    parse(vars);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(EnvParse, RejectsBadValuesNamingTheVariable) {
  EXPECT_EQ(rejection({{"PTAINT_ENGINE", "JIT"}}),
            "PTAINT_ENGINE: unknown engine: JIT");
  EXPECT_EQ(rejection({{"PTAINT_ENGINE", "bogus"}}),
            "PTAINT_ENGINE: unknown engine: bogus");
  for (const char* bad : {"abc", "-1", "2x", " 2", "99999999999999999999999"}) {
    EXPECT_EQ(rejection({{"PTAINT_SNAPSHOT_HOT", bad}}),
              std::string("PTAINT_SNAPSHOT_HOT: not a snapshot count: ") + bad)
        << bad;
  }
}

// Every numeric CLI option: the whole tokens strtoull(s, nullptr, 0) reads,
// and nothing else.
TEST(ParseNumber, ReadsStrtoullNotationsAsWholeTokensOnly) {
  EXPECT_EQ(parse_number("0", UINT64_MAX), 0u);
  EXPECT_EQ(parse_number("42", UINT64_MAX), 42u);
  EXPECT_EQ(parse_number("0x100000", UINT64_MAX), 0x100000u);
  EXPECT_EQ(parse_number("0XfF", UINT64_MAX), 255u);
  EXPECT_EQ(parse_number("010", UINT64_MAX), 8u);
  EXPECT_EQ(parse_number("010", UINT64_MAX, 10), 10u);
  EXPECT_EQ(parse_number("18446744073709551615", UINT64_MAX), UINT64_MAX);
  EXPECT_EQ(parse_number("255", 255), 255u);
  for (const char* bad : {"", "abc", "2x", "-1", "+1", " 1", "1 ", "0x", "08",
                          "0x-1", "18446744073709551616"}) {
    EXPECT_FALSE(parse_number(bad, UINT64_MAX).has_value()) << bad;
  }
  EXPECT_FALSE(parse_number("256", 255).has_value());
}

}  // namespace
}  // namespace ptaint::cpu
