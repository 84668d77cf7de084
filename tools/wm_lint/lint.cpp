#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <regex>
#include <sstream>

namespace wm::lint {

namespace {

// ---------------------------------------------------------------------
// Lexical pre-pass: split every line into code and comment text, with
// string/char literals (including R"( )" raw strings) blanked out of
// the code so rule patterns never fire inside literals, and comments
// separated out so suppressions are only honoured in real comments.
// ---------------------------------------------------------------------

struct LineInfo {
  std::string code;     // literals blanked to spaces, comments removed
  std::string comment;  // text after // (or inside /* */), if any
};

/// Lexer state that survives line boundaries: /* */ comments and
/// R"delim( ... )delim" raw strings can both span physical lines.
struct LexState {
  bool in_block = false;
  bool in_raw = false;
  std::string raw_closer;
};

/// Scan one physical line, splitting code from comment text.
LineInfo split_line(const std::string& line, LexState& state) {
  LineInfo out;
  out.code.reserve(line.size());
  std::size_t i = 0;
  if (state.in_raw) {
    const std::size_t end = line.find(state.raw_closer);
    if (end == std::string::npos) return out;  // whole line is literal
    i = end + state.raw_closer.size();
    state.in_raw = false;
  }
  while (i < line.size()) {
    if (state.in_block) {
      if (line[i] == '*' && i + 1 < line.size() && line[i + 1] == '/') {
        state.in_block = false;
        i += 2;
        continue;
      }
      out.comment.push_back(line[i++]);
      continue;
    }
    const char c = line[i];
    if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') {
      out.comment.append(line, i + 2, std::string::npos);
      break;
    }
    if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
      state.in_block = true;
      i += 2;
      continue;
    }
    if (c == 'R' && i + 1 < line.size() && line[i + 1] == '"') {
      // Raw string literal: R"delim( ... )delim". Blank the contents;
      // if the closer is not on this line the literal continues onto
      // the following lines.
      std::size_t j = i + 2;
      std::string delim;
      while (j < line.size() && line[j] != '(') delim.push_back(line[j++]);
      const std::string closer = ")" + delim + "\"";
      const std::size_t end = line.find(closer, j);
      out.code.append("R\"\"");
      if (end == std::string::npos) {
        state.in_raw = true;
        state.raw_closer = closer;
        break;
      }
      i = end + closer.size();
      continue;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      out.code.push_back(quote);
      ++i;
      while (i < line.size()) {
        if (line[i] == '\\' && i + 1 < line.size()) {
          i += 2;
          continue;
        }
        if (line[i] == quote) {
          ++i;
          break;
        }
        ++i;
      }
      out.code.push_back(quote);
      continue;
    }
    out.code.push_back(c);
    ++i;
  }
  return out;
}

// ---------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------

struct Suppression {
  std::string rule;
  bool has_reason = false;
  bool used = false;
};

/// Parse allow directives — `wm-lint: allow(<rule>): <reason>` — out of
/// comment text. (Spelled with angle brackets here so this very comment
/// does not register as a suppression when the linter scans itself.)
std::vector<Suppression> parse_allows(const std::string& comment) {
  std::vector<Suppression> out;
  static const std::regex kAllow(
      R"(wm-lint:\s*allow\(([a-z][a-z-]*)\)(\s*:\s*(\S.*))?)");
  auto begin = std::sregex_iterator(comment.begin(), comment.end(), kAllow);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    Suppression s;
    s.rule = (*it)[1].str();
    s.has_reason = (*it)[3].matched;
    out.push_back(std::move(s));
  }
  return out;
}

bool comment_tags_hot_path(const std::string& comment) {
  return comment.find("wm-lint: hot-path") != std::string::npos;
}

// ---------------------------------------------------------------------
// Per-file scan state
// ---------------------------------------------------------------------

struct FileScan {
  const SourceFile* file = nullptr;
  std::vector<std::string> raw;             // physical lines
  std::vector<LineInfo> lines;              // code/comment split
  // line index (0-based) -> suppressions declared on that line
  std::map<std::size_t, std::vector<Suppression>> allows;
  bool hot_path_tag = false;
};

FileScan prepare(const SourceFile& file) {
  FileScan scan;
  scan.file = &file;
  std::istringstream in(file.content);
  std::string line;
  LexState state;
  while (std::getline(in, line)) {
    scan.raw.push_back(line);
    scan.lines.push_back(split_line(line, state));
    const LineInfo& info = scan.lines.back();
    if (!info.comment.empty()) {
      auto found = parse_allows(info.comment);
      if (!found.empty()) {
        scan.allows[scan.lines.size() - 1] = std::move(found);
      }
      if (comment_tags_hot_path(info.comment)) scan.hot_path_tag = true;
    }
  }
  return scan;
}

bool starts_with(const std::string& text, const std::string& prefix) {
  return text.rfind(prefix, 0) == 0;
}

bool path_contains(const std::string& path, const std::string& needle) {
  return path.find(needle) != std::string::npos;
}

// ---------------------------------------------------------------------
// Cross-file index
// ---------------------------------------------------------------------
//
// Single-file rules see one token stream; the sink-contract rule needs
// to relate a class *definition* (does it derive engine::EventSink? is
// it marked thread-safe?) to *construction sites* in another file. The
// runner therefore prepares every file first, merges what the repo-wide
// rules need into a RepoIndex, and hands that index to each per-file
// pass.

/// One class deriving from engine::EventSink, wherever it was defined.
struct SinkDef {
  std::string path;
  std::size_t line = 0;  // 0-based head line
  /// True when the definition carries `wm-lint: sink(threadsafe)` on
  /// its head line or in the comment block directly above — the
  /// author's signed statement that on_* may be called concurrently.
  bool threadsafe = false;
};

struct RepoIndex {
  /// EventSink subclasses by (unqualified) class name. A name defined
  /// in several files (test fixtures reuse names) is thread-safe only
  /// if every definition is marked.
  std::map<std::string, SinkDef> sinks;
};

bool comment_marks_threadsafe(const std::string& comment) {
  return comment.find("wm-lint: sink(threadsafe)") != std::string::npos;
}

/// Record every EventSink subclass a scan defines into `index`.
void index_sinks(const FileScan& scan, RepoIndex& index) {
  static const std::regex kSinkHead(
      R"((?:class|struct)\s+([A-Za-z_]\w*)[^;{=()]*:[^;{]*\bEventSink\b)");
  for (std::size_t i = 0; i < scan.lines.size(); ++i) {
    // A class head may wrap before its base list; joining one
    // continuation line covers `class Foo final\n : public EventSink`.
    std::string head = scan.lines[i].code;
    if (i + 1 < scan.lines.size() &&
        head.find('{') == std::string::npos &&
        head.find(';') == std::string::npos) {
      head += ' ';
      head += scan.lines[i + 1].code;
    }
    std::smatch m;
    if (!std::regex_search(head, m, kSinkHead)) continue;
    // Anchor to the line that names the class, not the continuation.
    if (scan.lines[i].code.find(m[1].str()) == std::string::npos) continue;
    bool threadsafe = comment_marks_threadsafe(scan.lines[i].comment);
    for (std::size_t j = i; j > 0 && !threadsafe; --j) {
      const std::string& code = scan.lines[j - 1].code;
      const bool comment_only = std::all_of(
          code.begin(), code.end(),
          [](unsigned char c) { return std::isspace(c); });
      if (!comment_only) break;
      threadsafe = comment_marks_threadsafe(scan.lines[j - 1].comment);
    }
    auto [it, inserted] =
        index.sinks.try_emplace(m[1].str(), SinkDef{scan.file->path, i, threadsafe});
    if (!inserted) it->second.threadsafe = it->second.threadsafe && threadsafe;
  }
}

RepoIndex build_index(const std::vector<FileScan>& scans) {
  RepoIndex index;
  for (const FileScan& scan : scans) index_sinks(scan, index);
  return index;
}

// ---------------------------------------------------------------------
// The rule engine
// ---------------------------------------------------------------------

class Linter {
 public:
  Linter(FileScan& scan, const RepoIndex& index, const Options& options,
         LintResult& result)
      : scan_(scan), index_(index), options_(options), result_(result) {}

  void run_rules() {
    const std::string& path = scan_.file->path;
    rule_cast(path);
    rule_mutex(path);
    rule_guarded(path);
    rule_atomic_order(path);
    rule_sink_contract(path);
    rule_borrow(path);
    rule_nodiscard(path);
    rule_stability(path);
    finish_suppressions();
  }

 private:
  /// Report unless an allow(rule) eats it: either inline on the same
  /// line, or anywhere in the contiguous comment block directly above.
  /// A finding inside a multi-line declaration walks up through the
  /// declaration's earlier lines first (a predecessor whose code does
  /// not end a statement), so an allow above the declaration's first
  /// line attaches no matter which physical line the rule fired on.
  void report(const std::string& rule, std::size_t index,
              const std::string& message, bool fixable = false) {
    std::vector<std::size_t> shield = {index};
    for (std::size_t j = index; j > 0;) {
      const std::size_t prev = j - 1;
      if (is_comment_only(prev) || continues_over(prev)) {
        shield.push_back(prev);
        j = prev;
        continue;
      }
      break;
    }
    for (const std::size_t line : shield) {
      auto it = scan_.allows.find(line);
      if (it == scan_.allows.end()) continue;
      for (Suppression& s : it->second) {
        if (s.rule != rule) continue;
        s.used = true;
        if (s.has_reason) {
          ++result_.stats.suppressions[rule];
          return;
        }
        diagnose(rule, index,
                 "suppressed without a reason — write `wm-lint: allow(" +
                     rule + "): <why>`");
        return;
      }
    }
    diagnose(rule, index, message, fixable);
  }

  void diagnose(const std::string& rule, std::size_t index,
                const std::string& message, bool fixable = false) {
    Diagnostic d;
    d.rule = rule;
    d.path = scan_.file->path;
    d.line = index + 1;
    d.message = message;
    d.fixable = fixable;
    ++result_.stats.diagnostics[rule];
    result_.diagnostics.push_back(std::move(d));
    if (fixable && options_.fix_nodiscard) fix_lines_.push_back(index);
  }

  [[nodiscard]] bool is_comment_only(std::size_t index) const {
    const std::string& code = scan_.lines[index].code;
    return std::all_of(code.begin(), code.end(),
                       [](unsigned char c) { return std::isspace(c); });
  }

  /// True when the code on `index` spills into the next line: it has
  /// content whose last character closes no statement or scope.
  [[nodiscard]] bool continues_over(std::size_t index) const {
    const std::string& code = scan_.lines[index].code;
    const std::size_t last = code.find_last_not_of(" \t");
    if (last == std::string::npos) return false;  // blank (comment-only)
    const char c = code[last];
    return c != ';' && c != '{' && c != '}';
  }

  // --- rule: cast ----------------------------------------------------
  // reinterpret_cast is how type confusion enters a parser of hostile
  // bytes; only the audited util::bytes bridging helpers may use it.
  void rule_cast(const std::string& path) {
    if (path == "src/util/bytes.cpp") return;  // the blessed bridge
    for (std::size_t i = 0; i < scan_.lines.size(); ++i) {
      if (scan_.lines[i].code.find("reinterpret_cast") != std::string::npos) {
        report("cast", i,
               "reinterpret_cast outside util::bytes — use read_exact/"
               "write_all/as_chars/as_bytes, or justify with allow(cast)");
      }
    }
  }

  /// The hot-path file set, shared by the mutex and atomic-order
  /// rules: the per-packet pipeline (engine, rings) plus the
  /// surfaces its threads touch per event (fleet merge, metrics, log
  /// gate), plus anything tagged `wm-lint: hot-path`.
  [[nodiscard]] bool hot_path(const std::string& path) const {
    return scan_.hot_path_tag || path_contains(path, "core/engine/") ||
           path_contains(path, "util/spsc_ring") ||
           path_contains(path, "obs/metrics") ||
           path_contains(path, "monitor/fleet") ||
           path_contains(path, "util/log");
  }

  // --- rule: mutex ---------------------------------------------------
  // Hot-path files moved to lock-free rings/pools in PR 3; a mutex
  // reappearing there is a performance regression until justified.
  void rule_mutex(const std::string& path) {
    if (!hot_path(path)) return;
    static const std::regex kMutexDecl(
        R"(\b(?:std::(?:recursive_|shared_|timed_)?mutex|(?:util::)?Mutex)\s+\w+)");
    for (std::size_t i = 0; i < scan_.lines.size(); ++i) {
      if (std::regex_search(scan_.lines[i].code, kMutexDecl)) {
        report("mutex", i,
               "mutex declared in a hot-path file — use the lock-free "
               "primitives, or justify with allow(mutex)");
      }
    }
  }

  // --- rule: guarded -------------------------------------------------
  // A lock that -Wthread-safety cannot see, or that guards nothing it
  // can check, is a contract that exists only in the author's head.
  // Two obligations in library code (include/ + src/):
  //   (a) no raw std::mutex — declare util::Mutex so acquire/release
  //       carry capability attributes;
  //   (b) every Mutex member must have at least one WM_GUARDED_BY /
  //       WM_PT_GUARDED_BY sibling naming it (a pure condvar or
  //       serialization mutex states that with allow(guarded)).
  void rule_guarded(const std::string& path) {
    if (!starts_with(path, "include/") && !starts_with(path, "src/")) return;
    static const std::regex kRawMutex(
        R"(\bstd::(?:recursive_|shared_|timed_)?mutex\s+\w+)");
    static const std::regex kMutexMember(R"(\b(?:util::)?Mutex\s+(\w+)\s*;)");
    static const std::regex kCondvar(R"(\bstd::condition_variable\s+\w+)");
    for (std::size_t i = 0; i < scan_.lines.size(); ++i) {
      const std::string& code = scan_.lines[i].code;
      if (std::regex_search(code, kRawMutex)) {
        report("guarded", i,
               "raw std::mutex is invisible to -Wthread-safety — declare "
               "util::Mutex (wm/util/thread_annotations.hpp), or justify "
               "with allow(guarded)");
      }
      if (std::regex_search(code, kCondvar)) {
        report("guarded", i,
               "std::condition_variable cannot wait on util::Mutex — use "
               "std::condition_variable_any with util::UniqueLock, or "
               "justify with allow(guarded)");
      }
      std::smatch m;
      if (std::regex_search(code, m, kMutexMember)) {
        if (!guards_anything(m[1].str())) {
          report("guarded", i,
                 "Mutex `" + m[1].str() +
                     "` has no WM_GUARDED_BY sibling — annotate what it "
                     "protects, or state why not with allow(guarded)");
        }
      }
    }
  }

  /// Does any WM_GUARDED_BY / WM_PT_GUARDED_BY in this file name
  /// `mutex_name`? (Per file: guarded members always live beside their
  /// lock in the same class.)
  [[nodiscard]] bool guards_anything(const std::string& mutex_name) const {
    const std::regex guarded(R"(WM_(?:PT_)?GUARDED_BY\(\s*)" + mutex_name +
                             R"(\s*\))");
    for (const LineInfo& info : scan_.lines) {
      if (std::regex_search(info.code, guarded)) return true;
    }
    return false;
  }

  // --- rule: atomic-order --------------------------------------------
  // A bare load()/store()/fetch_*() defaults to seq_cst: correct, but
  // silently so — nobody can tell a deliberate fence from an accident,
  // and the hot path pays for the accident. Every atomic access in a
  // hot-path file must name its std::memory_order.
  void rule_atomic_order(const std::string& path) {
    if (!hot_path(path)) return;
    static const std::regex kAtomicCall(
        R"((?:\.|->)(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|fetch_xor|compare_exchange_weak|compare_exchange_strong)\s*\()");
    for (std::size_t i = 0; i < scan_.lines.size(); ++i) {
      const std::string& code = scan_.lines[i].code;
      for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                          kAtomicCall);
           it != std::sregex_iterator(); ++it) {
        const std::string args = collect_call_args(
            i, static_cast<std::size_t>(it->position(0) + it->length(0)) - 1);
        if (args.find("memory_order") == std::string::npos) {
          report("atomic-order", i,
                 "atomic " + (*it)[1].str() +
                     "() without an explicit std::memory_order — name the "
                     "ordering (and say why in a comment), or justify with "
                     "allow(atomic-order)");
        }
      }
    }
  }

  // --- rule: sink-contract -------------------------------------------
  // events.hpp promises sinks single-threaded delivery — a promise the
  // fleet keeps only through its serialization points. A sink that is
  // *constructed inside fleet.cpp* is wired straight into worker
  // threads, so its class must carry the author's thread-safety mark,
  // `wm-lint: sink(threadsafe)`, on (or directly above) its head line.
  // Cross-file: definitions come from the repo-wide index.
  void rule_sink_contract(const std::string& path) {
    if (!path_contains(path, "monitor/fleet")) return;
    static const std::regex kConstruct(
        R"((?:\bnew\s+|make_unique<\s*)([A-Za-z_][\w:]*))");
    for (std::size_t i = 0; i < scan_.lines.size(); ++i) {
      const std::string& code = scan_.lines[i].code;
      for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                          kConstruct);
           it != std::sregex_iterator(); ++it) {
        std::string name = (*it)[1].str();
        const std::size_t colons = name.rfind("::");
        if (colons != std::string::npos) name = name.substr(colons + 2);
        const auto sink = index_.sinks.find(name);
        if (sink == index_.sinks.end() || sink->second.threadsafe) continue;
        report("sink-contract", i,
               "sink `" + name + "` (" + sink->second.path + ":" +
                   std::to_string(sink->second.line + 1) +
                   ") is constructed inside the fleet but not marked "
                   "`wm-lint: sink(threadsafe)` — prove the sink tolerates "
                   "concurrent on_* calls and mark its class head, or "
                   "justify here with allow(sink-contract)");
      }
    }
  }

  // --- rule: borrow --------------------------------------------------
  // DESIGN.md §3.3: borrowed views are valid only until the producer's
  // next read. A record that stores one outlives that window unless it
  // is itself a view type (name ends in "View") or the site documents
  // why the lifetime is bounded.
  void rule_borrow(const std::string& path) {
    if (!starts_with(path, "include/") && !starts_with(path, "src/")) return;
    static const std::regex kRecordHead(
        R"(^\s*(?:template\s*<[^;{]*>\s*)?(?:class|struct)\s+(?:\[\[nodiscard\]\]\s*)?([A-Za-z_][\w:]*))");
    static const std::regex kEnumHead(R"(^\s*enum\b)");
    static const std::regex kMember(
        R"(^\s*(?:mutable\s+)?(?:const\s+)?((?:net::|util::|std::|wm::)*(?:PacketView|BytesView|span<[^;()]*>|string_view))\s+(\w+)\s*(?:=[^;]*|\{[^;]*\})?;)");

    struct Record {
      std::string name;
      int body_depth = 0;
    };
    std::vector<Record> stack;
    std::string pending;
    int depth = 0;

    for (std::size_t i = 0; i < scan_.lines.size(); ++i) {
      const std::string& code = scan_.lines[i].code;
      std::smatch m;
      if (!std::regex_search(code, kEnumHead) &&
          std::regex_search(code, m, kRecordHead)) {
        std::string name = m[1].str();
        const std::size_t colons = name.rfind("::");
        if (colons != std::string::npos) name = name.substr(colons + 2);
        pending = name;
      }
      // Member check before brace bookkeeping so a member on the same
      // line as a brace still sees the enclosing record. Thread-safety
      // annotations are stripped first: `BytesView v_ WM_GUARDED_BY(m);`
      // is still a stored borrow, and the annotation's parens must not
      // trip the declaration/function discriminator below.
      static const std::regex kAnnotation(R"(\s*WM_\w+\([^()]*\))");
      const std::string member_code = std::regex_replace(code, kAnnotation, "");
      if (!stack.empty() && depth == stack.back().body_depth &&
          member_code.find('(') == std::string::npos) {
        std::smatch mm;
        if (std::regex_search(member_code, mm, kMember)) {
          const std::string& record = stack.back().name;
          const bool is_view_type = record.size() >= 4 &&
              record.compare(record.size() - 4, 4, "View") == 0;
          if (!is_view_type) {
            report("borrow", i,
                   "borrowed view member `" + mm[2].str() + "` (" +
                       mm[1].str() + ") stored in non-view type `" + record +
                       "` — own the bytes, or justify with allow(borrow)");
          }
        }
      }
      for (const char c : code) {
        if (c == ';' && depth == 0) pending.clear();
        if (c == '{') {
          ++depth;
          if (!pending.empty()) {
            stack.push_back({pending, depth});
            pending.clear();
          }
        } else if (c == '}') {
          if (!stack.empty() && stack.back().body_depth == depth) {
            stack.pop_back();
          }
          --depth;
        }
      }
    }
  }

  // --- rule: nodiscard -----------------------------------------------
  void rule_nodiscard(const std::string& path) {
    // (a) Result/Status type heads must carry the class attribute, so
    // the compiler flags every discarded call, everywhere.
    static const std::regex kResultHead(
        R"(^\s*(?:template\s*<[^;{]*>\s*)?(class|struct)\s+(Result|Status)\b[^;]*$)");
    for (std::size_t i = 0; i < scan_.lines.size(); ++i) {
      const std::string& code = scan_.lines[i].code;
      std::smatch m;
      if (std::regex_search(code, m, kResultHead) &&
          code.find("[[nodiscard]]") == std::string::npos) {
        report("nodiscard", i,
               m[2].str() + " must be declared `" + m[1].str() +
                   " [[nodiscard]] " + m[2].str() + "`",
               /*fixable=*/true);
      }
    }

    // (b)+(c) declarations in public headers: Result/Status returners
    // and try_*/read_*/peek_* parser APIs.
    if (!starts_with(path, "include/")) {
      rule_nodiscard_calls();
      return;
    }
    static const std::regex kDecl(
        R"(^\s*(?:(?:static|virtual|inline|constexpr|explicit)\s+)*((?:wm::|util::)?Result<[\w:<>,\s\*&]*>|(?:wm::|util::)?Status)\s+[A-Za-z_]\w*\s*\()");
    static const std::regex kTryRead(
        R"(^\s*(?:(?:static|virtual|inline|constexpr|explicit)\s+)*[A-Za-z_][\w:<>,\s\*&]*[\s&\*>]((?:try_|read_|peek_)\w+)\s*\()");
    for (std::size_t i = 0; i < scan_.lines.size(); ++i) {
      const std::string& code = scan_.lines[i].code;
      if (code.find("[[nodiscard]]") != std::string::npos) continue;
      if (i > 0 &&
          scan_.lines[i - 1].code.find("[[nodiscard]]") != std::string::npos) {
        continue;
      }
      if (code.find("friend") != std::string::npos) continue;
      if (code.find("using") != std::string::npos) continue;
      // A line with `return` (or a member call) is a use site, not a
      // declaration; the class attribute on Result/Status covers those.
      if (code.find("return") != std::string::npos) continue;
      std::smatch m;
      if (std::regex_search(code, m, kDecl)) {
        report("nodiscard", i,
               "declaration returning " + m[1].str() +
                   " must be [[nodiscard]]",
               /*fixable=*/true);
        continue;
      }
      if (std::regex_search(code, m, kTryRead) &&
          !std::regex_search(code, std::regex(R"(^\s*(?:virtual\s+)?void\b)"))) {
        // `obj.try_pop(x)` / `ptr->try_pop(x)` are calls, not decls.
        const auto name_at = static_cast<std::size_t>(m.position(1));
        const bool member_call =
            (name_at >= 1 && code[name_at - 1] == '.') ||
            (name_at >= 2 && code[name_at - 2] == '-' &&
             code[name_at - 1] == '>');
        if (member_call) continue;
        report("nodiscard", i,
               "parser API `" + m[1].str() + "` must be [[nodiscard]]",
               /*fixable=*/true);
      }
    }
    rule_nodiscard_calls();
  }

  // Known entry points whose return value IS the error/progress
  // channel, called as bare statements: open_capture/infer_capture
  // drop a Result, a bare try_inject silently loses the packet on a
  // full tap, a bare read_batch cannot see end-of-stream. Belt-and-
  // braces over the [[nodiscard]] attributes (which only warn) — the
  // lint run fails hard.
  void rule_nodiscard_calls() {
    static const std::regex kBareCall(
        R"(^\s*(?:[\w:]+(?:\.|->))?(open_capture|infer_capture|try_inject|read_batch)\s*\()");
    for (std::size_t i = 0; i < scan_.lines.size(); ++i) {
      const std::string& code = scan_.lines[i].code;
      std::smatch m;
      if (!std::regex_search(code, m, kBareCall)) continue;
      if (code.find('=') != std::string::npos) continue;
      if (code.find("return") != std::string::npos) continue;
      if (code.find("void") != std::string::npos) continue;
      report("nodiscard", i,
             "result of " + m[1].str() + "() discarded — bind it to a "
             "named value and consume it");
    }
  }

  // --- rule: stability -----------------------------------------------
  // Snapshot determinism (stable sections byte-identical across shard
  // counts) only holds when every registration states which section the
  // metric belongs to; a defaulted argument hides that decision.
  void rule_stability(const std::string& path) {
    if (!starts_with(path, "include/") && !starts_with(path, "src/")) return;
    if (path_contains(path, "/obs/")) return;  // the registry itself
    static const std::regex kRegister(R"((->|\.)\s*(counter|histogram)\s*\()");
    for (std::size_t i = 0; i < scan_.lines.size(); ++i) {
      const std::string& code = scan_.lines[i].code;
      for (auto it = std::sregex_iterator(code.begin(), code.end(), kRegister);
           it != std::sregex_iterator(); ++it) {
        const std::string args = collect_call_args(
            i, static_cast<std::size_t>(it->position(0) + it->length(0)) - 1);
        std::string lowered = args;
        std::transform(lowered.begin(), lowered.end(), lowered.begin(),
                       [](unsigned char c) {
                         return static_cast<char>(std::tolower(c));
                       });
        if (lowered.find("stability") == std::string::npos) {
          report("stability", i,
                 "obs metric registered without an explicit Stability "
                 "class — pass obs::Stability::{kStable,kSharded,kVolatile}");
        }
      }
    }
  }

  /// Concatenate the argument text of a call whose opening paren sits at
  /// (line, column), following the balance across up to 40 lines.
  [[nodiscard]] std::string collect_call_args(std::size_t line,
                                              std::size_t column) const {
    std::string args;
    int balance = 0;
    for (std::size_t i = line; i < scan_.lines.size() && i < line + 40; ++i) {
      const std::string& code = scan_.lines[i].code;
      for (std::size_t j = i == line ? column : 0; j < code.size(); ++j) {
        const char c = code[j];
        if (c == '(') ++balance;
        if (c == ')') {
          --balance;
          if (balance == 0) return args;
        }
        args.push_back(c);
      }
      args.push_back(' ');
    }
    return args;
  }

  // --- rule: suppression ---------------------------------------------
  // Every allow() must earn its keep: unused ones rot into lies.
  void finish_suppressions() {
    for (auto& [line, list] : scan_.allows) {
      for (Suppression& s : list) {
        const bool known =
            std::find(rule_names().begin(), rule_names().end(), s.rule) !=
            rule_names().end();
        if (!known) {
          diagnose("suppression", line,
                   "allow(" + s.rule + ") names no known rule");
        } else if (!s.used) {
          diagnose("suppression", line,
                   "allow(" + s.rule + ") matches no finding — delete it");
        }
      }
    }
  }

 public:
  /// Apply the queued mechanical [[nodiscard]] insertions.
  void apply_fixes() {
    if (fix_lines_.empty()) return;
    static const std::regex kTypeHead(R"(\b(class|struct)\s+)");
    for (const std::size_t index : fix_lines_) {
      std::string& line = scan_.raw[index];
      std::smatch m;
      if (std::regex_search(line, m, kTypeHead)) {
        // `class Result` -> `class [[nodiscard]] Result`
        line.insert(static_cast<std::size_t>(m.position(0) + m.length(0)),
                    "[[nodiscard]] ");
      } else {
        const std::size_t indent = line.find_first_not_of(" \t");
        line.insert(indent == std::string::npos ? 0 : indent,
                    "[[nodiscard]] ");
      }
    }
    std::string rebuilt;
    for (const std::string& line : scan_.raw) {
      rebuilt += line;
      rebuilt += '\n';
    }
    result_.fixes[scan_.file->path] = std::move(rebuilt);
  }

 private:
  FileScan& scan_;
  const RepoIndex& index_;
  const Options& options_;
  LintResult& result_;
  std::vector<std::size_t> fix_lines_;
};

}  // namespace

std::string Diagnostic::to_string() const {
  return path + ":" + std::to_string(line) + ": [" + rule + "] " + message;
}

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> kNames = {
      "borrow",  "nodiscard",    "cast",          "stability", "mutex",
      "guarded", "atomic-order", "sink-contract", "suppression"};
  return kNames;
}

std::string Stats::to_json() const {
  std::ostringstream out;
  const auto dump_map = [&out](const char* key,
                               const std::map<std::string, std::size_t>& map) {
    out << '"' << key << "\":{";
    bool first = true;
    for (const auto& [name, count] : map) {
      if (!first) out << ',';
      first = false;
      out << '"' << name << "\":" << count;
    }
    out << '}';
  };
  out << "{";
  dump_map("diagnostics", diagnostics);
  out << ",\"files_scanned\":" << files_scanned;
  out << ",\"lines_scanned\":" << lines_scanned;
  out << ",\"rules\":[";
  std::vector<std::string> names = rule_names();
  std::sort(names.begin(), names.end());
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out << ',';
    out << '"' << names[i] << '"';
  }
  out << "],";
  dump_map("suppressions", suppressions);
  out << "}";
  return out.str();
}

LintResult run(const std::vector<SourceFile>& files, const Options& options) {
  LintResult result;
  // Cross-file mode: prepare every file up front, merge what repo-wide
  // rules need into an index, then run the per-file passes against it.
  std::vector<FileScan> scans;
  scans.reserve(files.size());
  for (const SourceFile& file : files) {
    scans.push_back(prepare(file));
    ++result.stats.files_scanned;
    result.stats.lines_scanned += scans.back().lines.size();
  }
  const RepoIndex index = build_index(scans);
  for (FileScan& scan : scans) {
    Linter linter(scan, index, options, result);
    linter.run_rules();
    if (options.fix_nodiscard) linter.apply_fixes();
  }
  return result;
}

Result<SourceFile> load_file(const std::string& fs_path,
                             const std::string& repo_path) {
  std::ifstream in(fs_path, std::ios::binary);
  if (!in) {
    return Error{ErrorCode::kNotFound, "cannot open " + fs_path};
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return Error{ErrorCode::kIo, "read failed for " + fs_path};
  }
  return SourceFile{repo_path, buffer.str()};
}

}  // namespace wm::lint
