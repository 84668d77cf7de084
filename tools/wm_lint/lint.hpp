// wm::lint — the project's invariant linter.
//
// The attack pipeline parses fully attacker-controlled bytes (pcap /
// pcapng framing, TLS records, state-JSON heuristics), and the zero-copy
// ingestion layer hands borrowed PacketViews and recycled batches across
// threads. The safety rules that make that sound — who may store a
// borrowed view, which casts are allowed on capture bytes, which files
// may take a lock — were prose in DESIGN.md; this linter turns them into
// machine-checked diagnostics so every future PR is gated by `ctest -L
// lint` instead of reviewer vigilance.
//
// Rules (slugs usable in suppressions):
//   borrow     no borrowed-view members (PacketView / BytesView /
//              std::span / std::string_view) in records that are not
//              themselves views (name ending in "View" is exempt) —
//              DESIGN.md §3.3 ownership rule.
//   nodiscard  Result / Status types and Result-returning or
//              try_*/read_*/peek_* declarations carry [[nodiscard]];
//              known Result-returning calls are never bare statements.
//   cast       no reinterpret_cast outside the blessed util::bytes
//              bridging helpers (src/util/bytes.cpp).
//   stability  every obs metric registration names its Stability class
//              explicitly (src/ and include/ only).
//   mutex      no std::mutex declarations in hot-path files (engine /
//              spsc_ring) outside suppressed sites.
//   suppression malformed (reason-less) or unused allow() comments.
//
// Suppressions: `// wm-lint: allow(<rule>): <reason>` on the offending
// line or the line directly above it. The reason is mandatory; an
// allow() that matches no finding is itself reported, so the suppression
// inventory can only shrink by deleting dead ones. A file may opt into
// the hot-path mutex rule with `// wm-lint: hot-path`.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "wm/util/result.hpp"

namespace wm::lint {

/// One finding, printed as "path:line: [rule] message".
struct Diagnostic {
  std::string rule;
  std::string path;
  std::size_t line = 0;  // 1-based
  std::string message;
  /// Set when --fix-nodiscard can mechanically repair this finding.
  bool fixable = false;

  [[nodiscard]] std::string to_string() const;
};

/// A file to scan: repo-relative path (forward slashes) plus content.
struct SourceFile {
  std::string path;
  std::string content;
};

struct Options {
  /// Compute mechanical [[nodiscard]] insertions into LintResult::fixes.
  bool fix_nodiscard = false;
};

/// Machine-readable scan summary; the committed LINT_BASELINE.json is
/// exactly to_json() of a clean run, so future PRs diff suppression
/// counts instead of re-litigating them.
struct Stats {
  std::size_t files_scanned = 0;
  std::size_t lines_scanned = 0;
  std::map<std::string, std::size_t> diagnostics;   // rule -> count
  std::map<std::string, std::size_t> suppressions;  // rule -> used allows

  /// Canonical compact JSON (sorted keys, stable across runs).
  [[nodiscard]] std::string to_json() const;
};

struct LintResult {
  std::vector<Diagnostic> diagnostics;
  Stats stats;
  /// --fix-nodiscard: path -> rewritten content, only files that change.
  std::map<std::string, std::string> fixes;
};

/// The rule slugs allow() accepts.
[[nodiscard]] const std::vector<std::string>& rule_names();

/// Scan in-memory files. Pure: no filesystem access, deterministic
/// output ordering (input order, then line).
[[nodiscard]] LintResult run(const std::vector<SourceFile>& files,
                             const Options& options = {});

/// Read one on-disk file into a SourceFile (path recorded as given).
[[nodiscard]] Result<SourceFile> load_file(const std::string& fs_path,
                                           const std::string& repo_path);

}  // namespace wm::lint
