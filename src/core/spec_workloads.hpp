// SPEC 2000 INT surrogate workload harness (paper Table 3).
//
// Six benign programs with deterministic generated inputs.  Every input
// byte enters the guest tainted (through SYS_READ); the false-positive
// claim is that none of them ever trips the pointer-taintedness detector.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/machine.hpp"

namespace ptaint::core {

struct SpecWorkload {
  std::string name;        // paper benchmark name (BZIP2, GCC, ...)
  asmgen::Source app;
  std::string input;       // contents of the guest's /input file
  std::string expect_stdout_prefix;  // sanity check on the result line
};

/// Builds all six workloads; `scale` multiplies the input sizes
/// (1 = test-sized, larger for the bench run).
std::vector<SpecWorkload> make_spec_workloads(int scale = 1);

struct SpecRunRow {
  std::string name;
  uint64_t program_bytes = 0;   // text+data image size
  uint64_t input_bytes = 0;
  uint64_t instructions = 0;
  uint64_t tainted_loads = 0;
  bool alert = false;
  bool ok = false;              // clean exit and plausible output
  std::string output;
};

/// Runs one workload under the given policy on `engine` (unset:
/// MachineConfig::engine's default) and reports the Table 3 row.
SpecRunRow run_spec_workload(
    const SpecWorkload& workload, const cpu::TaintPolicy& policy = {},
    std::optional<cpu::Engine> engine = std::nullopt);

/// Prepare/classify split for the campaign engine: prepare assembles, loads
/// and installs the /input file without running; classify builds the row
/// from a finished run (of the prepared machine or a restored fork of it).
/// prepare + run + classify is exactly run_spec_workload.
std::unique_ptr<Machine> prepare_spec_workload(
    const SpecWorkload& workload, const cpu::TaintPolicy& policy = {},
    std::optional<cpu::Engine> engine = std::nullopt);
SpecRunRow classify_spec_run(const SpecWorkload& workload, Machine& machine,
                             const RunReport& report);

}  // namespace ptaint::core
