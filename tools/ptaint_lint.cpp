// ptaint-lint — static analyzer front end.
//
//   ptaint-lint [options] program.s [more.s ...]
//   ptaint-lint --app NAME
//
// Assembles the input (linked with the guest runtime unless --no-runtime),
// recovers the CFG, and runs the classic lints (use-before-def, unreachable
// blocks, stack push/pop imbalance, clobbered callee-saved registers).
// With --taint-report it also prints the value-set prover's possible
// tainted-dereference sites, and with --elision-stats the proven-clean /
// possible site counts.
//
// Exit codes mirror ptaint-run's convention:
//   0  no findings
//   1  lint findings reported
//   4  usage or assembly error
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/cfg.hpp"
#include "analysis/lint.hpp"
#include "analysis/summary_cache.hpp"
#include "cpu/env.hpp"
#include "guest/apps/registry.hpp"
#include "guest/runtime.hpp"

using namespace ptaint;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "ptaint-lint: cannot open " << path << "\n";
    std::exit(4);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

asmgen::Source app_source(const std::string& name) {
  if (const guest::apps::AppEntry* e = guest::apps::find_app(name)) {
    return e->make();
  }
  std::cerr << "ptaint-lint: unknown app '" << name << "'; known:";
  for (const auto& e : guest::apps::registry()) std::cerr << " " << e.name;
  std::cerr << "\n";
  std::exit(4);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

/// Machine-readable findings: one JSON array, each element carrying the
/// rule id, the text PC, the enclosing function, and the source location
/// the assembler recorded for that PC (file/line/col; col may be 0).
void print_json(const asmgen::Program& program,
                const std::vector<analysis::LintFinding>& findings) {
  std::printf("[");
  bool first = true;
  for (const analysis::LintFinding& f : findings) {
    const char* sep = first ? "\n" : ",\n";
    first = false;
    std::string file;
    int line = 0, col = 0;
    auto it = program.text_locs.find(f.pc);
    if (it != program.text_locs.end()) {
      file = it->second.file;
      line = it->second.line;
      col = it->second.col;
    }
    std::printf(
        "%s  {\"rule\": \"%s\", \"pc\": \"0x%08x\", "
        "\"function\": \"%s\", \"file\": \"%s\", "
        "\"line\": %d, \"col\": %d, \"message\": \"%s\"}",
        sep, analysis::to_string(f.kind), f.pc,
        json_escape(f.function).c_str(), json_escape(file).c_str(), line,
        col, json_escape(f.message).c_str());
  }
  std::printf("%s]\n", first ? "" : "\n");
}

[[noreturn]] void usage() {
  std::cerr << "usage: ptaint-lint [options] program.s [more.s ...]\n"
               "       ptaint-lint --app NAME\n"
               "       ptaint-lint --all-apps\n"
               "run ptaint-lint --help for the option list\n";
  std::exit(4);
}

size_t error_count(const std::vector<analysis::LintFinding>& findings) {
  size_t n = 0;
  for (const analysis::LintFinding& f : findings) {
    if (!analysis::lint_is_info(f.kind)) ++n;
  }
  return n;
}

/// Sweep over every registry app in registry order: assemble, recover,
/// lint, and report each app's findings.
int lint_all_apps(bool quiet) {
  const auto& registry = guest::apps::registry();
  size_t total = 0;
  for (const auto& app : registry) {
    const asmgen::Program program =
        asmgen::assemble(guest::link_with_runtime(app.make()));
    const analysis::Cfg cfg(program);
    const std::vector<analysis::LintFinding> findings =
        analysis::run_lints(cfg);
    const size_t errors = error_count(findings);
    total += errors;
    if (!quiet) {
      std::printf("%s: %zu finding(s), %zu info\n", app.name, errors,
                  findings.size() - errors);
      std::fputs(analysis::format_findings(findings).c_str(), stdout);
    }
  }
  std::fprintf(stderr, "%zu finding(s) across %zu apps\n", total,
               registry.size());
  return total == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (!cpu::check_env("ptaint-lint")) return 4;
  std::vector<asmgen::Source> sources;
  cpu::TaintPolicy policy;  // paper defaults
  bool with_runtime = true;
  bool taint_report = false;
  bool elision_stats = false;
  bool quiet = false;
  bool json = false;
  bool all_apps = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--help") {
      std::printf("%s", R"(ptaint-lint: static analyzer for PTA-32 assembly
usage: ptaint-lint [options] program.s [more.s ...]
  --app NAME            lint a built-in guest app (exp1, wu-ftpd, ...)
  --all-apps            lint every built-in app (the CI sweep in one run)
  --list-apps           print the known app names, one per line, and exit
  --no-runtime          do not link the guest runtime
  --taint-report        print statically-possible tainted dereference sites
  --elision-stats       print proven-clean vs possible site counts
  --no-compare-untaint  analyze under the ablated compare rule
  --json                print findings as a JSON array (rule id, pc,
                        function, source file/line/col, message)
  --quiet               suppress findings, set the exit code only
exit codes: 0 no findings, 1 findings, 4 usage or assembly error
)");
      return 0;
    } else if (arg == "--app") {
      sources.push_back(app_source(value()));
    } else if (arg == "--all-apps") {
      all_apps = true;
    } else if (arg == "--list-apps") {
      for (const auto& e : guest::apps::registry()) {
        std::printf("%s\n", e.name);
      }
      return 0;
    } else if (arg == "--no-runtime") {
      with_runtime = false;
    } else if (arg == "--taint-report") {
      taint_report = true;
    } else if (arg == "--elision-stats") {
      elision_stats = true;
    } else if (arg == "--no-compare-untaint") {
      policy.compare_untaints = false;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "ptaint-lint: unknown option " << arg << "\n";
      usage();
    } else {
      sources.push_back({arg, read_file(arg)});
    }
  }
  if (all_apps) return lint_all_apps(quiet);
  if (sources.empty()) usage();

  std::vector<asmgen::Source> units;
  if (with_runtime) units = guest::runtime();
  for (auto& s : sources) units.push_back(std::move(s));

  asmgen::Program program;
  try {
    program = asmgen::assemble(units);
  } catch (const asmgen::AssemblyError& e) {
    std::cerr << "assembly failed:\n" << e.what();
    return 4;
  }

  const analysis::Cfg cfg(program);
  const std::vector<analysis::LintFinding> findings = analysis::run_lints(cfg);

  if (json) {
    print_json(program, findings);
  } else if (!quiet) {
    std::fputs(analysis::format_findings(findings).c_str(), stdout);
    if (taint_report || elision_stats) {
      const std::shared_ptr<const analysis::CachedAnalysis> cached =
          analysis::SummaryCache::instance().analyze(program, policy);
      const analysis::VsaAnalysis& vsa = cached->vsa;
      if (taint_report) {
        std::printf("possible tainted dereference sites:\n%s",
                    vsa.report(cfg).c_str());
      }
      if (elision_stats) {
        const auto elided = static_cast<size_t>(
            std::count(vsa.elision.begin(), vsa.elision.end(), 1));
        std::printf("%zu dereference sites: %zu possibly tainted, "
                    "%zu proven clean or dead (%.1f%% elidable)\n",
                    vsa.sites.size(), vsa.possible_sites, elided,
                    vsa.sites.empty()
                        ? 0.0
                        : 100.0 * static_cast<double>(elided) /
                              static_cast<double>(vsa.sites.size()));
      }
    }
  }
  const size_t errors = error_count(findings);
  if (!json) {
    std::fprintf(stderr,
                 "%zu finding(s) (%zu info) in %zu instructions, "
                 "%zu functions\n",
                 errors, findings.size() - errors, cfg.instructions().size(),
                 cfg.functions().size());
  }
  return errors == 0 ? 0 : 1;
}
