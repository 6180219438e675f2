// vf_lint — repo-specific static checks that clang-tidy cannot express.
//
// The generic tooling (clang-tidy profile, -Wconversion/-Wshadow, the
// sanitizer matrix) covers language-level correctness. This checker
// enforces the *repo conventions* that keep the parallel numerics safe,
// scanning .cpp/.hpp files line by line:
//
//   omp-annotation   Every `#pragma omp parallel` construct must either
//                    carry a `reduction(...)` clause or be annotated with a
//                    `// vf-par: <reason>` comment within the four lines
//                    above it, stating why its shared writes are safe
//                    (per-thread scratch, disjoint index ranges, atomics).
//                    An unannotated parallel region is exactly how the PR 1
//                    race-audit findings slipped in.
//
//   naked-new        No `new` / `malloc` / `calloc` / `realloc` / `free`
//                    outside the aligned-allocator implementation. All
//                    ownership goes through std::make_unique / containers.
//                    Silence a deliberate site with
//                    `// vf-lint: allow(naked-new) <reason>`.
//
//   resize-zeroed    Matrix::resize keeps existing contents when the shape
//                    is unchanged, so `x.resize(...)` followed by `+=`
//                    accumulation into `x` without an intervening
//                    `x.set_zero()` / `x.fill(` reads stale values on the
//                    second call. Silence a checked site with
//                    `// vf-lint: allow(resize-zeroed) <reason>`.
//
//   raw-ofstream     Persistent artifacts must go through
//                    vf::util::atomic_write_file (write-temp -> fsync ->
//                    rename), so a crash can never leave a torn model/field
//                    file. A raw `std::ofstream` bypasses that protocol.
//                    Deliberate sites — the atomic-write implementation
//                    itself, throwaway visualisation dumps — annotate with
//                    `// vf-lint: allow(raw-ofstream) <reason>`.
//
//   raw-timer        Hot paths (src/core, src/nn) must time through the
//                    observability layer — VF_OBS_HIST_TIMER / VF_OBS_SPAN
//                    (vf/obs/obs.hpp) — not ad-hoc vf::util::Timer
//                    stopwatches, so the measurement lands in the exported
//                    metrics/trace instead of a scattered local. Sites whose
//                    timing feeds a returned artifact (TrainHistory,
//                    PretrainResult) annotate with
//                    `// vf-lint: allow(raw-timer) <reason>`.
//
//   api-facade       Code outside src/ — tools, bench, examples — must go
//                    through the vf::api::Reconstructor facade
//                    (vf/api/reconstruct.hpp) rather than constructing the
//                    FCNN engine (FcnnReconstructor) directly, so engine
//                    selection, model caching, and stats stay in one
//                    place. Engine-level benchmarks and fine-tuning flows
//                    that deliberately bypass the facade annotate with
//                    `// vf-lint: allow(api-facade) <reason>`.
//
//   hot-alloc        A by-value std::vector / AlignedVector declared inside
//                    a `for`/`while` body in src/core or src/spatial .cpp
//                    files heap-allocates once per iteration — exactly the
//                    per-point allocation the SoA scratch refactor removed
//                    from feature extraction. Hoist the buffer into a
//                    reusable scratch struct (FeatureScratch / QuantScratch
//                    pattern) or, for a deliberately cold loop, annotate
//                    with `// vf-lint: allow(hot-alloc) <reason>`.
//                    `static` / `thread_local` declarations are exempt.
//
//   aligned-cast     `reinterpret_cast` is allowed only to byte pointers
//                    (char / unsigned char / std::byte), the legal aliasing
//                    family used by the binary serializers. Anything else —
//                    in particular casting the 64-byte-aligned Matrix
//                    buffers to vector types with alignment assumptions —
//                    needs `// vf-lint: allow(cast) <reason>`.
//
//   raw-mutex        Outside src/util, locking goes through the annotated
//                    vf::util::Mutex / MutexLock / CondVar wrappers
//                    (vf/util/mutex.hpp), never raw std::mutex /
//                    std::shared_mutex / std::condition_variable or manual
//                    .lock()/.unlock() calls. The wrappers carry the Clang
//                    Thread Safety capability and the runtime lock-order
//                    detector hooks; a raw mutex is invisible to both.
//                    Annotate a deliberate site with
//                    `// vf-lint: allow(raw-mutex) <reason>`.
//
//   detached-thread  `.detach()` is banned everywhere: a detached thread
//                    outlives the objects it captures, cannot be joined at
//                    shutdown, and turns every static destructor into a
//                    race. Own threads in a joinable pool (see the serve
//                    workers in src/serve/service.cpp). Annotate a
//                    deliberate site with
//                    `// vf-lint: allow(detached-thread) <reason>`.
//
//   unannotated-guard  A vf::util::Mutex / std::mutex member declared in a
//                    file where no field is VF_GUARDED_BY(that mutex) is a
//                    lock protecting nothing the analysis can check —
//                    usually a migration gap. Declare what it guards, or
//                    annotate wrapper/detector internals with
//                    `// vf-lint: allow(unannotated-guard) <reason>`.
//
//   unbounded-wait   In src/serve, every park must be bounded or
//                    predicate-checked: `.wait(mu)` without a predicate and
//                    `.wait_until(...)`/`.wait_for(...)` without a predicate
//                    argument are exactly the waits that hang a worker (or
//                    drain) forever on a missed notify. Likewise, raw
//                    promise `.set_value(`/`.set_exception(` calls bypass
//                    the answer-exactly-once Reply helper that the request
//                    lifecycle guarantees rest on (DESIGN.md §12). The
//                    deliberate sites — the Reply implementation itself
//                    and the registry's single-flight handoff — annotate
//                    with `// vf-lint: allow(unbounded-wait) <reason>`.
//
// Usage: vf_lint <dir-or-file>...   (exit 1 if any finding)
// Wired into CTest as the `vf_lint` test over src/, tools/, bench/, and
// examples/.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Finding {
  std::string file;
  std::size_t line;
  std::string rule;
  std::string message;
};

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True when `token` appears in `s` delimited by non-identifier characters.
bool has_word(std::string_view s, std::string_view token) {
  std::size_t pos = 0;
  while ((pos = s.find(token, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(s[pos - 1]);
    const std::size_t end = pos + token.size();
    const bool right_ok = end >= s.size() || !is_ident_char(s[end]);
    if (left_ok && right_ok) return true;
    pos += 1;
  }
  return false;
}

/// The identifier immediately preceding `s[dot_pos]` (a '.'), or empty.
std::string ident_before(std::string_view s, std::size_t dot_pos) {
  std::size_t b = dot_pos;
  while (b > 0 && is_ident_char(s[b - 1])) --b;
  if (b == dot_pos) return {};
  return std::string(s.substr(b, dot_pos - b));
}

/// One source line split into executable code and its trailing comment,
/// with string/char literals blanked out of the code part so tokens inside
/// literals never match rules.
struct SplitLine {
  std::string code;
  std::string comment;  // text of // or /* */ comment content on this line
};

/// Comment/string-aware splitter. `in_block` carries /* */ state across
/// lines. This is a line-based lexer, not a full C++ parser: raw strings
/// spanning lines are not handled (none in this repo) and that is fine for
/// a convention checker.
SplitLine split_line(const std::string& line, bool& in_block) {
  SplitLine out;
  bool in_string = false, in_char = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    const char next = i + 1 < line.size() ? line[i + 1] : '\0';
    if (in_block) {
      out.comment += c;
      if (c == '*' && next == '/') {
        in_block = false;
        ++i;
      }
      continue;
    }
    if (in_string) {
      out.code += ' ';
      if (c == '\\') {
        out.code += ' ';
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (in_char) {
      out.code += ' ';
      if (c == '\\') {
        out.code += ' ';
        ++i;
      } else if (c == '\'') {
        in_char = false;
      }
      continue;
    }
    if (c == '/' && next == '/') {
      out.comment += line.substr(i + 2);
      break;
    }
    if (c == '/' && next == '*') {
      in_block = true;
      ++i;
      continue;
    }
    if (c == '"') {
      in_string = true;
      out.code += ' ';
      continue;
    }
    // Char literal, not a digit separator / apostrophe in a comment.
    if (c == '\'' && (i == 0 || !is_ident_char(line[i - 1]))) {
      in_char = true;
      out.code += ' ';
      continue;
    }
    out.code += c;
  }
  return out;
}

/// Number of top-level arguments in the call whose opening paren sits at
/// `split[i].code[open]`. Scans forward across (string-blanked) lines until
/// the parens balance; commas nested inside (), [], {}, or <lambda captures>
/// stay invisible because only depth-1 commas count. Returns -1 when the
/// call does not close within a short lookahead — a rule should stay quiet
/// rather than guess about a call it cannot see whole.
int call_arg_count(const std::vector<SplitLine>& split, std::size_t i,
                   std::size_t open) {
  int depth = 0;
  int commas = 0;
  bool any_tokens = false;
  for (std::size_t li = i; li < split.size() && li < i + 12; ++li) {
    const std::string& c = split[li].code;
    for (std::size_t p = li == i ? open : 0; p < c.size(); ++p) {
      const char ch = c[p];
      if (ch == '(' || ch == '[' || ch == '{') {
        ++depth;
      } else if (ch == ')' || ch == ']' || ch == '}') {
        --depth;
        if (depth == 0) return any_tokens ? commas + 1 : 0;
      } else if (depth == 1 && ch == ',') {
        ++commas;
      } else if (depth >= 1 && ch != ' ' && ch != '\t') {
        any_tokens = true;
      }
    }
  }
  return -1;
}

/// Active `x.resize(...)` site awaiting evidence of zeroing before use.
struct ResizeWatch {
  std::string name;
  std::size_t line;
  int remaining;  // lines of lookahead left
};

void lint_file(const fs::path& path, std::vector<Finding>& findings) {
  std::ifstream in(path);
  if (!in) {
    findings.push_back({path.string(), 0, "io", "cannot open file"});
    return;
  }

  std::vector<std::string> raw;
  for (std::string line; std::getline(in, line);) raw.push_back(line);

  bool in_block = false;
  std::vector<SplitLine> split;
  split.reserve(raw.size());
  for (const auto& line : raw) split.push_back(split_line(line, in_block));

  const std::string file = path.string();
  // The raw-timer rule only bites in the reconstruction/training hot paths;
  // elsewhere (tools, bench, vis) a plain stopwatch is fine.
  const std::string gen = path.generic_string();
  const bool hot_path = gen.find("src/core/") != std::string::npos ||
                        gen.find("src/nn/") != std::string::npos;
  // The api-facade rule bites everywhere *except* the library sources (the
  // engines and the facade itself live there) — tools/bench/examples must
  // route reconstruction through vf::api.
  const bool outside_src = gen.find("/src/") == std::string::npos &&
                           gen.rfind("src/", 0) != 0;
  // The hot-alloc rule bites only in the spatial/reconstruction inner-loop
  // implementations; headers and other layers keep their judgement.
  const bool alloc_hot = (gen.find("src/core/") != std::string::npos ||
                          gen.find("src/spatial/") != std::string::npos) &&
                         path.extension() == ".cpp";
  // The raw-mutex rule exempts src/util: the annotated wrappers and the
  // lock-order detector are themselves built on the raw primitives.
  const bool util_src = gen.find("src/util/") != std::string::npos;
  // The unbounded-wait rule bites only in the serving layer, where a park
  // with no predicate or deadline strands a client forever.
  const bool serve_src = gen.find("src/serve") != std::string::npos;
  std::vector<ResizeWatch> watches;

  /// Mutex members awaiting a VF_GUARDED_BY(<name>) sighting in this file.
  struct GuardWatch {
    std::string name;
    std::size_t line;
  };
  std::vector<GuardWatch> guard_watches;

  // Brace-depth tracking for hot-alloc: which open-brace depths are loop
  // bodies. `pending_loop` carries a brace-less `for`/`while` header to the
  // next line (repo style puts `{` on the header line or the one after).
  int depth = 0;
  std::vector<int> loop_scopes;
  int pending_loop = 0;

  for (std::size_t i = 0; i < split.size(); ++i) {
    const std::string& code = split[i].code;
    const std::string& comment = split[i].comment;
    const std::size_t lineno = i + 1;

    auto allowed = [&](std::string_view tag) {
      std::string needle = "vf-lint: allow(" + std::string(tag) + ")";
      if (comment.find(needle) != std::string::npos) return true;
      // Annotation may sit on the line above a long statement.
      return i > 0 && split[i - 1].comment.find(needle) != std::string::npos;
    };

    // --- omp-annotation -------------------------------------------------
    if (code.find("#pragma") != std::string::npos &&
        code.find("omp parallel") != std::string::npos) {
      // Merge backslash-continued pragma lines so clauses on follow-up
      // lines count.
      std::string pragma = code;
      std::size_t j = i;
      while (j < split.size() && !raw[j].empty() && raw[j].back() == '\\') {
        ++j;
        if (j < split.size()) pragma += split[j].code;
      }
      bool has_reduction = pragma.find("reduction(") != std::string::npos ||
                           pragma.find("reduction (") != std::string::npos;
      bool annotated = false;
      for (std::size_t back = 1; back <= 4 && back <= i; ++back) {
        if (split[i - back].comment.find("vf-par:") != std::string::npos) {
          annotated = true;
          break;
        }
      }
      if (!has_reduction && !annotated) {
        findings.push_back(
            {file, lineno, "omp-annotation",
             "#pragma omp parallel without reduction(...) or a preceding "
             "`// vf-par: <why shared writes are safe>` annotation"});
      }
    }

    // --- naked-new ------------------------------------------------------
    if (code.find('#') == std::string::npos) {  // skip preprocessor lines
      const bool operator_new =
          code.find("operator new") != std::string::npos ||
          code.find("operator delete") != std::string::npos;
      if (has_word(code, "new") && !operator_new && !allowed("naked-new")) {
        findings.push_back({file, lineno, "naked-new",
                            "naked `new` — use std::make_unique or a "
                            "container, or annotate the allocator internals "
                            "with vf-lint: allow(naked-new)"});
      }
      for (const char* fn : {"malloc", "calloc", "realloc", "free"}) {
        std::size_t pos = code.find(std::string(fn) + "(");
        const bool word =
            pos != std::string::npos && (pos == 0 || !is_ident_char(code[pos - 1]));
        if (word && !allowed("naked-new")) {
          findings.push_back({file, lineno, "naked-new",
                              std::string("raw `") + fn +
                                  "` — use RAII-managed storage, or annotate "
                                  "with vf-lint: allow(naked-new)"});
        }
      }
    }

    // --- resize-zeroed --------------------------------------------------
    for (auto it = watches.begin(); it != watches.end();) {
      bool drop = false;
      if (has_word(code, it->name)) {
        if (code.find(it->name + ".set_zero") != std::string::npos ||
            code.find(it->name + ".fill") != std::string::npos ||
            code.find(it->name + " =") != std::string::npos ||
            code.find(it->name + " = ") != std::string::npos) {
          drop = true;  // explicitly reinitialised
        } else if (std::size_t plus = code.find("+=");
                   plus != std::string::npos &&
                   has_word(std::string_view(code).substr(0, plus),
                            it->name)) {
          // Only an accumulation whose *target* mentions the watched name
          // (left of the +=) reads possibly-stale resized contents.
          if (!allowed("resize-zeroed")) {
            findings.push_back(
                {file, lineno, "resize-zeroed",
                 "`" + it->name + "` resized at line " +
                     std::to_string(it->line) +
                     " then accumulated with += — resize() keeps contents "
                     "for unchanged shapes; call " +
                     it->name + ".set_zero() first or annotate with "
                     "vf-lint: allow(resize-zeroed)"});
          }
          drop = true;
        }
      }
      if (--it->remaining <= 0) drop = true;
      it = drop ? watches.erase(it) : it + 1;
    }
    for (std::size_t pos = code.find(".resize("); pos != std::string::npos;
         pos = code.find(".resize(", pos + 1)) {
      std::string name = ident_before(code, pos);
      if (!name.empty() && !allowed("resize-zeroed")) {
        watches.push_back({name, lineno, 12});
      }
    }

    // --- raw-ofstream ---------------------------------------------------
    if ((code.find("std::ofstream") != std::string::npos ||
         has_word(code, "ofstream")) &&
        code.find("#include") == std::string::npos &&
        !allowed("raw-ofstream")) {
      findings.push_back(
          {file, lineno, "raw-ofstream",
           "raw std::ofstream bypasses the crash-safe write protocol — "
           "persist through vf::util::atomic_write_file, or annotate a "
           "deliberate site with vf-lint: allow(raw-ofstream)"});
    }

    // --- raw-timer ------------------------------------------------------
    if (hot_path && code.find("util::Timer") != std::string::npos &&
        code.find("#include") == std::string::npos && !allowed("raw-timer")) {
      findings.push_back(
          {file, lineno, "raw-timer",
           "raw vf::util::Timer in a hot path — time through "
           "VF_OBS_HIST_TIMER / VF_OBS_SPAN so the measurement reaches the "
           "exported metrics, or annotate a site that feeds a returned "
           "artifact with vf-lint: allow(raw-timer)"});
    }

    // --- api-facade -----------------------------------------------------
    if (outside_src && code.find("#include") == std::string::npos &&
        has_word(code, "FcnnReconstructor") && !allowed("api-facade")) {
      findings.push_back(
          {file, lineno, "api-facade",
           "direct FcnnReconstructor use outside src/ — "
           "reconstruct through vf::api::Reconstructor "
           "(vf/api/reconstruct.hpp), or annotate a deliberate engine-level "
           "site with vf-lint: allow(api-facade)"});
    }

    // --- hot-alloc ------------------------------------------------------
    if (alloc_hot) {
      // Loop-header detection feeds the brace tracker below; `} while` is
      // the tail of a do-while, not a new loop scope.
      std::string trimmed = code;
      trimmed.erase(0, trimmed.find_first_not_of(" \t"));
      if ((has_word(code, "for") || has_word(code, "while")) &&
          code.find('(') != std::string::npos &&
          trimmed.rfind("} while", 0) != 0) {
        pending_loop = 2;
      }
      for (const char c : code) {
        if (c == '{') {
          ++depth;
          if (pending_loop > 0) {
            loop_scopes.push_back(depth);
            pending_loop = 0;
          }
        } else if (c == '}') {
          if (!loop_scopes.empty() && loop_scopes.back() == depth) {
            loop_scopes.pop_back();
          }
          --depth;
        }
      }
      if (pending_loop > 0) --pending_loop;

      if (!loop_scopes.empty() && !has_word(code, "static") &&
          !has_word(code, "thread_local")) {
        std::string decl = trimmed;
        if (decl.rfind("const ", 0) == 0) decl.erase(0, 6);
        for (const char* prefix :
             {"std::vector<", "vf::util::AlignedVector<",
              "util::AlignedVector<", "AlignedVector<"}) {
          if (decl.rfind(prefix, 0) != 0) continue;
          // Find the template close, then require a by-value variable name
          // (a `&` / `*` binding does not allocate).
          std::size_t pos = std::string(prefix).size();
          int angle = 1;
          while (pos < decl.size() && angle > 0) {
            if (decl[pos] == '<') ++angle;
            if (decl[pos] == '>') --angle;
            ++pos;
          }
          while (pos < decl.size() && decl[pos] == ' ') ++pos;
          if (angle == 0 && pos < decl.size() &&
              (std::isalpha(static_cast<unsigned char>(decl[pos])) != 0 ||
               decl[pos] == '_') &&
              !allowed("hot-alloc")) {
            findings.push_back(
                {file, lineno, "hot-alloc",
                 "container declared inside a loop body heap-allocates every "
                 "iteration — hoist it into a reusable scratch struct "
                 "(FeatureScratch/QuantScratch pattern) or annotate a cold "
                 "loop with vf-lint: allow(hot-alloc)"});
          }
          break;
        }
      }
    }

    // --- aligned-cast ---------------------------------------------------
    for (std::size_t pos = code.find("reinterpret_cast<");
         pos != std::string::npos;
         pos = code.find("reinterpret_cast<", pos + 1)) {
      std::size_t open = pos + std::string("reinterpret_cast<").size() - 1;
      std::size_t close = code.find('>', open);
      std::string target = close == std::string::npos
                               ? ""
                               : code.substr(open + 1, close - open - 1);
      // Normalise whitespace for the byte-pointer allowlist test.
      std::string norm;
      for (char c : target) {
        if (!std::isspace(static_cast<unsigned char>(c))) norm += c;
      }
      const bool byte_ptr = norm == "char*" || norm == "constchar*" ||
                            norm == "unsignedchar*" ||
                            norm == "constunsignedchar*" ||
                            norm == "std::byte*" || norm == "conststd::byte*";
      if (!byte_ptr && !allowed("cast")) {
        findings.push_back(
            {file, lineno, "aligned-cast",
             "reinterpret_cast to `" + target +
                 "` — only byte-pointer casts (serialization) are allowed; "
                 "aligned-buffer reinterpretation needs "
                 "vf-lint: allow(cast) with a justification"});
      }
    }

    // --- raw-mutex ------------------------------------------------------
    if (!util_src && code.find("#include") == std::string::npos) {
      for (const char* token :
           {"std::mutex", "std::shared_mutex", "std::recursive_mutex",
            "std::timed_mutex", "std::condition_variable"}) {
        if (has_word(code, token) && !allowed("raw-mutex")) {
          findings.push_back(
              {file, lineno, "raw-mutex",
               std::string("raw `") + token +
                   "` outside src/util — lock through the annotated "
                   "vf::util::Mutex / MutexLock / CondVar wrappers "
                   "(vf/util/mutex.hpp) so the thread-safety analysis and "
                   "the lock-order detector both see it, or annotate with "
                   "vf-lint: allow(raw-mutex)"});
          break;  // one finding per line is enough
        }
      }
      for (const char* call : {".lock()", ".unlock()"}) {
        // `.try_lock()` never matches: its substring is `_lock()`.
        if (code.find(call) != std::string::npos && !allowed("raw-mutex")) {
          findings.push_back(
              {file, lineno, "raw-mutex",
               std::string("manual `") + call +
                   "` outside src/util — use the scoped "
                   "vf::util::MutexLock (exception-safe, analysis-visible), "
                   "or annotate with vf-lint: allow(raw-mutex)"});
        }
      }
    }

    // --- detached-thread ------------------------------------------------
    if (code.find(".detach()") != std::string::npos &&
        !allowed("detached-thread")) {
      findings.push_back(
          {file, lineno, "detached-thread",
           "detached thread — it outlives its captures and cannot be "
           "joined at shutdown; own it in a joinable pool (see the "
           "serve workers in src/serve/service.cpp), or annotate with "
           "vf-lint: allow(detached-thread)"});
    }

    // --- unbounded-wait -------------------------------------------------
    if (serve_src && code.find('#') == std::string::npos) {
      // A wait must carry a predicate: `.wait(mu)` re-parks on spurious
      // wakeups with nothing to recheck, and `.wait_until(mu, t)` /
      // `.wait_for(mu, d)` without a predicate silently turns a missed
      // notify into a full-timeout stall on every wakeup path.
      struct WaitForm {
        const char* call;
        int min_args;  // fewer top-level args than this = no predicate
      };
      for (const auto& form :
           {WaitForm{".wait(", 2}, WaitForm{".wait_until(", 3},
            WaitForm{".wait_for(", 3}}) {
        const std::string call(form.call);
        for (std::size_t pos = code.find(call); pos != std::string::npos;
             pos = code.find(call, pos + 1)) {
          const int args =
              call_arg_count(split, i, pos + call.size() - 1);
          if (args >= 0 && args < form.min_args && !allowed("unbounded-wait")) {
            findings.push_back(
                {file, lineno, "unbounded-wait",
                 call.substr(1, call.size() - 2) +
                     " without a predicate in src/serve — pass the "
                     "condition as the final argument so spurious wakeups "
                     "and missed notifies recheck state, or annotate a "
                     "deliberately bounded wait with "
                     "vf-lint: allow(unbounded-wait) <reason>"});
          }
        }
      }
      // Raw promise fulfilment bypasses Reply's answer-exactly-once guard;
      // a second set_value on an already-answered request throws
      // future_error in whichever thread lost the race.
      for (const char* call : {".set_value(", ".set_exception("}) {
        if (code.find(call) != std::string::npos &&
            !allowed("unbounded-wait")) {
          findings.push_back(
              {file, lineno, "unbounded-wait",
               std::string("raw promise ") + call +
                   "...) in src/serve — answer requests through "
                   "vf::serve::Reply (fulfill/fail are idempotent), or "
                   "annotate non-request promises with "
                   "vf-lint: allow(unbounded-wait) <reason>"});
        }
      }
    }

    // --- unannotated-guard (collection; resolved after the line loop) ---
    for (const char* mutex_type :
         {"vf::util::Mutex", "std::mutex", "std::shared_mutex"}) {
      const std::size_t pos = code.find(mutex_type);
      if (pos == std::string::npos) continue;
      if (pos > 0 && (is_ident_char(code[pos - 1]) || code[pos - 1] == ':')) {
        continue;  // mid-identifier or a longer qualified name
      }
      std::size_t p = pos + std::string(mutex_type).size();
      if (p < code.size() && is_ident_char(code[p])) continue;  // MutexLock
      while (p < code.size() && code[p] == ' ') ++p;
      // Declarations only: `Mutex name;` / `Mutex name{...};` /
      // `Mutex name = ...;`. A following `&`/`*`/`(`/`>` is a reference,
      // pointer, constructor, or template argument — not a member.
      std::size_t b = p;
      while (b < code.size() && is_ident_char(code[b])) ++b;
      if (b == p) continue;  // no identifier follows
      std::string member = code.substr(p, b - p);
      while (b < code.size() && code[b] == ' ') ++b;
      if (b >= code.size() || (code[b] != ';' && code[b] != '{' && code[b] != '=')) {
        continue;
      }
      if (!allowed("unannotated-guard")) {
        guard_watches.push_back({std::move(member), lineno});
      }
    }
  }

  // --- unannotated-guard (resolution) -----------------------------------
  for (const auto& watch : guard_watches) {
    bool guarded = false;
    for (const auto& sl : split) {
      if (sl.code.find("VF_GUARDED_BY(" + watch.name + ")") !=
              std::string::npos ||
          sl.code.find("VF_PT_GUARDED_BY(" + watch.name + ")") !=
              std::string::npos) {
        guarded = true;
        break;
      }
    }
    if (!guarded) {
      findings.push_back(
          {file, watch.line, "unannotated-guard",
           "mutex `" + watch.name +
               "` has no VF_GUARDED_BY(" + watch.name +
               ") field in this file — declare what it protects "
               "(vf/util/thread_annotations.hpp) or annotate "
               "wrapper/detector internals with "
               "vf-lint: allow(unannotated-guard)"});
    }
  }
}

void collect(const fs::path& root, std::vector<fs::path>& files) {
  if (fs::is_regular_file(root)) {
    files.push_back(root);
    return;
  }
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const auto ext = entry.path().extension();
    if (ext == ".cpp" || ext == ".hpp" || ext == ".h") {
      files.push_back(entry.path());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: vf_lint <dir-or-file>...\n");
    return 2;
  }
  std::vector<fs::path> files;
  for (int i = 1; i < argc; ++i) {
    const fs::path p(argv[i]);
    if (!fs::exists(p)) {
      std::fprintf(stderr, "vf_lint: no such path: %s\n", argv[i]);
      return 2;
    }
    collect(p, files);
  }
  std::sort(files.begin(), files.end());

  std::vector<Finding> findings;
  for (const auto& f : files) lint_file(f, findings);

  for (const auto& f : findings) {
    std::fprintf(stderr, "%s:%zu: [%s] %s\n", f.file.c_str(), f.line,
                 f.rule.c_str(), f.message.c_str());
  }
  std::printf("vf_lint: %zu file(s) scanned, %zu finding(s)\n", files.size(),
              findings.size());
  return findings.empty() ? 0 : 1;
}
