#include "lint/rules.h"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <map>

#include "lint/model.h"
#include "lint/token_util.h"

namespace sclint {
namespace {

// Thin aliases for the shared matchers (token_util.h) under the names the
// rule bodies here have always used. MatchForward/MatchBackward/SkipAngles
// are used under their shared names directly.
bool TextIs(const Token& t, std::string_view s) { return TokenIs(t, s); }

bool At(const std::vector<Token>& code, size_t i, std::string_view s) {
  return TokenAt(code, i, s);
}

bool IsIdent(const std::vector<Token>& code, size_t i) {
  return TokenIsIdent(code, i);
}

void EmitAt(std::vector<Finding>* out, const FileUnit& unit, int line,
            int col, std::string rule, std::string message) {
  Finding f;
  f.path = unit.path;
  f.line = line;
  f.col = col;
  f.rule = std::move(rule);
  f.message = std::move(message);
  out->push_back(std::move(f));
}

void Emit(std::vector<Finding>* out, const FileUnit& unit, const Token& tok,
          std::string rule, std::string message) {
  EmitAt(out, unit, tok.line, tok.col, std::move(rule), std::move(message));
}

// ---------------------------------------------------------------------------
// Determinism rules
// ---------------------------------------------------------------------------

void CheckBannedRand(const FileUnit& unit, const RuleContext&,
                     std::vector<Finding>* out) {
  const std::vector<Token>& code = unit.code;
  for (size_t i = 0; i < code.size(); ++i) {
    if (code[i].kind != TokenKind::kIdentifier) continue;
    std::string_view t = code[i].text;
    bool banned_always = t == "srand" || t == "rand_r" || t == "drand48" ||
                         t == "lrand48" || t == "mrand48";
    bool banned_called =
        t == "rand" && (At(code, i + 1, "(") || (i > 0 && At(code, i - 1, "::")));
    if (banned_always || banned_called) {
      Emit(out, unit, code[i], "sc-banned-rand",
           "'" + std::string(t) +
               "' is banned: use smartcrawl::Rng with an explicit seed "
               "(util/random.h) so runs are reproducible");
    }
  }
}

void CheckBannedTime(const FileUnit& unit, const RuleContext&,
                     std::vector<Finding>* out) {
  const std::vector<Token>& code = unit.code;
  for (size_t i = 0; i + 3 < code.size(); ++i) {
    if (!TextIs(code[i], "time") ||
        code[i].kind != TokenKind::kIdentifier)
      continue;
    if (!At(code, i + 1, "(")) continue;
    std::string_view arg = code[i + 2].text;
    if ((arg == "nullptr" || arg == "NULL" || arg == "0") &&
        At(code, i + 3, ")")) {
      Emit(out, unit, code[i], "sc-banned-time",
           "'time(" + std::string(arg) +
               ")' reads the wall clock: thread a seed or a "
               "net::SimulatedClock through instead");
    }
  }
}

void CheckRandomDevice(const FileUnit& unit, const RuleContext&,
                       std::vector<Finding>* out) {
  for (const Token& t : unit.code) {
    if (t.kind == TokenKind::kIdentifier && t.text == "random_device") {
      Emit(out, unit, t, "sc-random-device",
           "std::random_device is nondeterministic: derive seeds from the "
           "experiment seed (util/random.h) instead");
    }
  }
}

void CheckUnseededEngine(const FileUnit& unit, const RuleContext&,
                         std::vector<Finding>* out) {
  const std::vector<Token>& code = unit.code;
  for (size_t i = 0; i < code.size(); ++i) {
    if (code[i].kind != TokenKind::kIdentifier) continue;
    std::string_view t = code[i].text;
    if (t == "default_random_engine") {
      Emit(out, unit, code[i], "sc-unseeded-engine",
           "std::default_random_engine has an implementation-defined "
           "default: use smartcrawl::Rng (util/random.h)");
      continue;
    }
    if (t != "mt19937" && t != "mt19937_64" && t != "minstd_rand" &&
        t != "minstd_rand0" && t != "knuth_b")
      continue;
    // Unseeded spellings: `mt19937{}` / `mt19937()` temporaries,
    // `mt19937 g;` and `mt19937 g{};` default-constructed variables.
    bool unseeded =
        (At(code, i + 1, "{") && At(code, i + 2, "}")) ||
        (At(code, i + 1, "(") && At(code, i + 2, ")")) ||
        (IsIdent(code, i + 1) &&
         (At(code, i + 2, ";") ||
          (At(code, i + 2, "{") && At(code, i + 3, "}"))));
    if (unseeded) {
      Emit(out, unit, code[i], "sc-unseeded-engine",
           "unseeded std::" + std::string(t) +
               ": every generator must take an explicit seed "
               "(prefer smartcrawl::Rng, util/random.h)");
    }
  }
}

void CheckWallClock(const FileUnit& unit, const RuleContext&,
                    std::vector<Finding>* out) {
  const std::vector<Token>& code = unit.code;
  for (size_t i = 0; i < code.size(); ++i) {
    if (code[i].kind != TokenKind::kIdentifier) continue;
    std::string_view t = code[i].text;
    if (t == "gettimeofday" || t == "clock_gettime") {
      Emit(out, unit, code[i], "sc-wall-clock",
           "'" + std::string(t) +
               "' reads real time: use net::SimulatedClock (src/net/clock.h)");
      continue;
    }
    if (t != "system_clock" && t != "steady_clock" &&
        t != "high_resolution_clock")
      continue;
    if (At(code, i + 1, "::") && At(code, i + 2, "now")) {
      Emit(out, unit, code[i], "sc-wall-clock",
           "std::chrono::" + std::string(t) +
               "::now() outside the clock shim breaks deterministic "
               "replay: use net::SimulatedClock (src/net/clock.h)");
    }
  }
}

void CheckRealSleep(const FileUnit& unit, const RuleContext&,
                    std::vector<Finding>* out) {
  const std::vector<Token>& code = unit.code;
  for (size_t i = 0; i < code.size(); ++i) {
    if (code[i].kind != TokenKind::kIdentifier) continue;
    std::string_view t = code[i].text;
    bool banned = t == "sleep_for" || t == "sleep_until" || t == "usleep" ||
                  t == "nanosleep" ||
                  (t == "sleep" && At(code, i + 1, "("));
    if (banned) {
      Emit(out, unit, code[i], "sc-real-sleep",
           "real sleeps are banned (tests covering minutes of simulated "
           "traffic must run in microseconds): advance a "
           "net::SimulatedClock instead");
    }
  }
}

// ---------------------------------------------------------------------------
// Status-discipline rules
// ---------------------------------------------------------------------------

/// Walks left from the first token of a qualified call chain
/// (`ns::obj.field->Call`) to the token index where the chain begins.
size_t ChainStart(const std::vector<Token>& code, size_t i) {
  while (i > 0) {
    std::string_view prev = code[i - 1].text;
    if (prev == "::" || prev == "." || prev == "->") {
      if (i < 2) return i - 1;  // leading `::name` at start of file
      std::string_view before = code[i - 2].text;
      if (code[i - 2].kind == TokenKind::kIdentifier) {
        i -= 2;
        continue;
      }
      if (before == ")" || before == "]") {
        size_t opener = 0;
        if (!MatchBackward(code, i - 2, &opener)) return i - 1;
        // `foo(...)Y.Call` — continue from the token that owns the group.
        if (opener == 0) return opener;
        i = opener;
        continue;
      }
      return i - 1;  // global-scope `::name`
    }
    return i;
  }
  return i;
}

void EmitDiscard(const FileUnit& unit, const Token& call,
                 std::vector<Finding>* out) {
  Emit(out, unit, call, "sc-discarded-status",
       "result of '" + std::string(call.text) +
           "' (Status/Result) is discarded: check it, propagate it with "
           "SC_RETURN_NOT_OK, or discard explicitly with (void)");
}

void CheckDiscardedStatus(const FileUnit& unit, const RuleContext& ctx,
                          std::vector<Finding>* out) {
  const std::vector<Token>& code = unit.code;
  for (size_t i = 0; i < code.size(); ++i) {
    if (code[i].kind != TokenKind::kIdentifier) continue;
    if (ctx.status_functions.count(std::string(code[i].text)) == 0) continue;
    if (!At(code, i + 1, "(")) continue;
    size_t close = MatchForward(code, i + 1);
    if (!At(code, close + 1, ";")) continue;  // value is consumed

    size_t start = ChainStart(code, i);
    if (start == 0) {
      EmitDiscard(unit, code[i], out);
      continue;
    }
    std::string_view before = code[start - 1].text;
    if (before == ";" || before == "{" || before == "}" || before == ":" ||
        before == "else" || before == "do") {
      EmitDiscard(unit, code[i], out);
      continue;
    }
    if (before == ")") {
      // Either `(void)Call();` (an intentional discard — allowed), or the
      // close of an `if (...)`/loop head, making the call the whole body.
      size_t opener = 0;
      if (!MatchBackward(code, start - 1, &opener)) continue;
      bool void_cast = start - 1 == opener + 2 && At(code, opener + 1, "void");
      if (void_cast) continue;
      if (opener > 0) {
        std::string_view head = code[opener - 1].text;
        if (head == "if" || head == "while" || head == "for" ||
            head == "switch") {
          EmitDiscard(unit, code[i], out);
        }
      }
    }
  }
}

void CheckTodoOwner(const FileUnit& unit, const RuleContext&,
                    std::vector<Finding>* out) {
  for (const Token& t : unit.tokens) {
    if (t.kind != TokenKind::kComment) continue;
    std::string_view text = t.text;
    for (size_t pos = 0; pos < text.size(); ++pos) {
      size_t todo = text.find("TODO", pos);
      size_t fixme = text.find("FIXME", pos);
      size_t hit = std::min(todo, fixme);
      if (hit == std::string_view::npos) break;
      size_t tag_len = hit == todo ? 4 : 5;
      pos = hit + tag_len;
      // Word boundaries: "TODOs" in prose or "MYTODO" are not markers.
      auto word_char = [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
      };
      if (hit > 0 && word_char(text[hit - 1])) continue;
      if (pos < text.size() && word_char(text[pos])) continue;
      // Owner tag: TODO(name) with a non-empty name.
      bool owned = pos < text.size() && text[pos] == '(' &&
                   text.find(')', pos) != std::string_view::npos &&
                   text.find(')', pos) > pos + 1;
      if (owned) continue;
      // Position of the tag inside a possibly multi-line comment.
      int line = t.line;
      int col = t.col;
      for (size_t k = 0; k < hit; ++k) {
        if (text[k] == '\n') {
          ++line;
          col = 1;
        } else {
          ++col;
        }
      }
      Finding f;
      f.path = unit.path;
      f.line = line;
      f.col = col;
      f.rule = "sc-todo-owner";
      f.message = std::string(text.substr(hit, tag_len)) +
                  " without an owner: write " +
                  std::string(text.substr(hit, tag_len)) +
                  "(name): so stale markers are attributable";
      out->push_back(std::move(f));
    }
  }
}

// ---------------------------------------------------------------------------
// Header-hygiene rules
// ---------------------------------------------------------------------------

/// First word of a directive after '#', e.g. "include", "pragma".
std::string_view DirectiveKeyword(std::string_view text) {
  size_t i = 1;  // skip '#'
  while (i < text.size() &&
         (text[i] == ' ' || text[i] == '\t'))
    ++i;
  size_t j = i;
  while (j < text.size() &&
         (std::isalnum(static_cast<unsigned char>(text[j])) != 0 ||
          text[j] == '_'))
    ++j;
  return text.substr(i, j - i);
}

void CheckIncludeGuard(const FileUnit& unit, const RuleContext&,
                       std::vector<Finding>* out) {
  if (!unit.is_header) return;
  std::vector<const Token*> directives;
  for (const Token& t : unit.tokens)
    if (t.kind == TokenKind::kDirective) directives.push_back(&t);
  for (const Token* d : directives) {
    std::string_view kw = DirectiveKeyword(d->text);
    if (kw == "pragma" &&
        d->text.find("once") != std::string_view::npos)
      return;
  }
  // Classic guard: first directive #ifndef, second #define.
  if (directives.size() >= 2 &&
      DirectiveKeyword(directives[0]->text) == "ifndef" &&
      DirectiveKeyword(directives[1]->text) == "define")
    return;
  Finding f;
  f.path = unit.path;
  f.line = 1;
  f.col = 1;
  f.rule = "sc-include-guard";
  f.message =
      "header has neither '#pragma once' nor an include guard: double "
      "inclusion is an ODR trap";
  out->push_back(std::move(f));
}

void CheckUsingNamespaceHeader(const FileUnit& unit, const RuleContext&,
                               std::vector<Finding>* out) {
  if (!unit.is_header) return;
  const std::vector<Token>& code = unit.code;
  for (size_t i = 0; i + 1 < code.size(); ++i) {
    if (TextIs(code[i], "using") && TextIs(code[i + 1], "namespace")) {
      Emit(out, unit, code[i], "sc-using-namespace-header",
           "'using namespace' in a header leaks into every includer: "
           "qualify names or use a namespace alias");
    }
  }
}

void CheckDirectInclude(const FileUnit& unit, const RuleContext& ctx,
                        std::vector<Finding>* out) {
  const std::vector<std::string>& rules =
      ctx.config->GetList("rule.sc-direct-include", "require");
  for (const std::string& spec : rules) {
    size_t eq = spec.find('=');
    if (eq == std::string::npos) continue;
    std::string token = spec.substr(0, eq);
    // Alternatives separated by '|': any one satisfies the requirement.
    std::vector<std::string> headers;
    std::string rest = spec.substr(eq + 1);
    size_t from = 0;
    while (true) {
      size_t bar = rest.find('|', from);
      headers.push_back(rest.substr(from, bar - from));
      if (bar == std::string::npos) break;
      from = bar + 1;
    }
    bool satisfied = false;
    for (const std::string& h : headers) {
      for (const IncludeDirective& inc : unit.includes)
        if (inc.target == h) satisfied = true;
      if (unit.path == h) satisfied = true;  // the defining header itself
    }
    if (satisfied) continue;
    for (const Token& t : unit.code) {
      if (t.kind == TokenKind::kIdentifier && t.text == token) {
        Emit(out, unit, t, "sc-direct-include",
             "'" + token + "' requires a direct #include of " + headers[0] +
                 " (transitive includes break when intermediates change)");
        break;  // one finding per file per token
      }
    }
  }
}

// ---------------------------------------------------------------------------
// API-contract rules
// ---------------------------------------------------------------------------

/// CrawlPlan is the immutable half of the plan/session split: after
/// Build() nothing may mutate it (core/crawl_plan.h). Two escapes are
/// rejected: (a) a non-const, non-static member function creeping into a
/// `class CrawlPlan { ... }` body (constructors, deleted/defaulted
/// members, friends and data members are fine — the private builder is
/// the one sanctioned writer), and (b) a const_cast whose target type
/// names CrawlPlan, anywhere.
void CheckPlanMutation(const FileUnit& unit, const RuleContext&,
                       std::vector<Finding>* out) {
  const std::vector<Token>& code = unit.code;
  for (size_t i = 0; i < code.size(); ++i) {
    // (b) const_cast<... CrawlPlan ...>
    if (TextIs(code[i], "const_cast") && At(code, i + 1, "<")) {
      int depth = 0;
      for (size_t j = i + 1; j < code.size(); ++j) {
        if (code[j].text == "<") ++depth;
        if (code[j].text == ">" && --depth == 0) break;
        if (TextIs(code[j], "CrawlPlan")) {
          Emit(out, unit, code[i], "sc-plan-mutation",
               "const_cast to a CrawlPlan type: the plan is frozen after "
               "Build() — keep mutable crawl state on the CrawlSession");
          break;
        }
      }
      continue;
    }
    // (a) class CrawlPlan { ...members... }
    if (!TextIs(code[i], "class") || !At(code, i + 1, "CrawlPlan")) continue;
    size_t open = i + 2;
    while (open < code.size() && !TextIs(code[open], "{") &&
           !TextIs(code[open], ";"))
      ++open;
    if (open >= code.size() || TextIs(code[open], ";")) continue;
    size_t close = MatchForward(code, open);
    size_t j = open + 1;
    while (j < close) {
      std::string_view s = code[j].text;
      if ((s == "public" || s == "private" || s == "protected") &&
          At(code, j + 1, ":")) {
        j += 2;
        continue;
      }
      // One member declaration: find its declarator '(' (if any), skipping
      // declarations that cannot be mutating member functions.
      size_t k = j;
      size_t paren = close;
      bool exempt = false;   // static/friend/using/typedef/template
      bool init_eq = false;  // '=' before any '(' -> data-member initializer
      while (k < close) {
        std::string_view t = code[k].text;
        if (t == "static" || t == "friend" || t == "using" ||
            t == "typedef" || t == "template")
          exempt = true;
        if (t == "=" && (k == j || !TextIs(code[k - 1], "operator")))
          init_eq = true;
        if (t == "(") {
          paren = k;
          break;
        }
        if (t == ";" || t == "{") break;
        ++k;
      }
      if (paren == close || init_eq) {
        // Data member, friend or alias: skip to the end of the declaration.
        while (k < close && !TextIs(code[k], ";")) {
          if (TextIs(code[k], "{")) k = MatchForward(code, k);
          ++k;
        }
        j = k + 1;
        continue;
      }
      size_t close_paren = MatchForward(code, paren);
      bool is_const = false, is_defaulted = false;
      size_t term = close_paren + 1;
      while (term < close && !TextIs(code[term], ";") &&
             !TextIs(code[term], "{")) {
        if (TextIs(code[term], "const")) is_const = true;
        if (TextIs(code[term], "delete") || TextIs(code[term], "default"))
          is_defaulted = true;
        ++term;
      }
      const Token* name = nullptr;
      bool is_ctor = false;
      if (paren > 0 && code[paren - 1].kind == TokenKind::kIdentifier) {
        name = &code[paren - 1];
        is_ctor = TextIs(code[paren - 1], "CrawlPlan") ||
                  (paren >= 2 && TextIs(code[paren - 2], "~"));
      } else {
        for (size_t b = j; b < paren; ++b) {
          if (TextIs(code[b], "operator")) {
            name = &code[b];
            break;
          }
        }
      }
      if (name != nullptr && !exempt && !is_ctor && !is_const &&
          !is_defaulted) {
        Emit(out, unit, *name, "sc-plan-mutation",
             "non-const member '" + std::string(name->text) +
                 "' on CrawlPlan: the plan is frozen after Build() — make "
                 "it const or move the state to CrawlSession");
      }
      j = term;
      if (j < close && TextIs(code[j], "{")) j = MatchForward(code, j);
      ++j;
    }
    i = close;
  }
}

// ---------------------------------------------------------------------------
// sc-raw-reinterpret
// ---------------------------------------------------------------------------

/// Bans `reinterpret_cast` outside the allowlisted snapshot reader path.
/// Serving typed spans straight out of an mmap'ed file needs exactly one
/// byte-punning cast (SnapshotReader::Typed, which validates size and
/// alignment first); everywhere else the codebase uses memcpy,
/// std::as_bytes, std::bit_cast or static_cast from void*, all of which
/// the compiler can check. Keeping the cast count at one makes the
/// unsafe surface auditable. Allowlist files via
/// `[rule.sc-raw-reinterpret] allow = [...]` in .sclint.toml.
void CheckRawReinterpret(const FileUnit& unit, const RuleContext&,
                         std::vector<Finding>* out) {
  for (const Token& t : unit.code) {
    if (t.kind == TokenKind::kIdentifier && t.text == "reinterpret_cast") {
      Emit(out, unit, t, "sc-raw-reinterpret",
           "reinterpret_cast is confined to the snapshot reader's audited "
           "typed-span accessor (src/snapshot/reader.h): use memcpy, "
           "std::bit_cast, std::as_bytes, or static_cast from void* — or "
           "allowlist the file in .sclint.toml if it truly must pun bytes");
    }
  }
}

// ---------------------------------------------------------------------------
// Structure rules (cross-TU; need the pass-1 project model)
// ---------------------------------------------------------------------------

/// The layer a repo-relative path belongs to: the directory under src/ or
/// tools/, else the first path segment (covers bench/ and fixture trees
/// whose root is the layer dir itself).
std::string LayerOf(const std::string& path) {
  std::string_view rest = path;
  size_t slash = rest.find('/');
  if (slash == std::string_view::npos) return std::string();
  std::string_view first = rest.substr(0, slash);
  if (first == "src" || first == "tools") {
    rest = rest.substr(slash + 1);
    slash = rest.find('/');
    if (slash == std::string_view::npos) return std::string();
    first = rest.substr(0, slash);
  }
  return std::string(first);
}

/// Layer ranks from `[rule.sc-layer-dag] order`, plus `alias` entries of
/// the form "name=layer" mapped onto the aliased layer's rank. Paths in
/// unranked layers (tests/, examples/, fixtures) are simply not checked.
std::map<std::string, size_t> LayerRanks(const Config& config) {
  std::map<std::string, size_t> ranks;
  const std::vector<std::string>& order =
      config.GetList("rule.sc-layer-dag", "order");
  for (size_t i = 0; i < order.size(); ++i) ranks[order[i]] = i;
  for (const std::string& alias :
       config.GetList("rule.sc-layer-dag", "alias")) {
    size_t eq = alias.find('=');
    if (eq == std::string::npos) continue;
    auto it = ranks.find(alias.substr(eq + 1));
    if (it != ranks.end()) ranks[alias.substr(0, eq)] = it->second;
  }
  return ranks;
}

/// Rejects includes that point *up* the configured layer order: a layer
/// may depend only on itself and layers below it. This is the lint-time
/// twin of the link-time dependency order in src/CMakeLists.txt — the
/// linker only catches upward deps that reach undefined symbols; header
/// cycles and type-only upward includes sail through it.
void CheckLayerDag(const FileUnit& unit, const RuleContext& ctx,
                   std::vector<Finding>* out) {
  if (ctx.model == nullptr) return;
  const FileNode* node = ctx.model->Node(unit.path);
  if (node == nullptr) return;
  std::map<std::string, size_t> ranks = LayerRanks(*ctx.config);
  if (ranks.empty()) return;
  auto my = ranks.find(LayerOf(unit.path));
  if (my == ranks.end()) return;
  for (const auto& [idx, target] : node->resolved_includes) {
    auto theirs = ranks.find(LayerOf(target));
    if (theirs == ranks.end() || theirs->second <= my->second) continue;
    const IncludeDirective& d = unit.includes[idx];
    EmitAt(out, unit, d.line, d.col, "sc-layer-dag",
           "#include \"" + d.target + "\" reaches up the layer DAG: '" +
               my->first + "' may depend only on layers at or below it, "
               "but '" + theirs->first +
               "' is above (see [rule.sc-layer-dag] order in .sclint.toml)");
  }
}

/// Rejects cycles in the include graph. Every file in a non-trivial
/// strongly connected component reports each of its includes that stays
/// inside the component, so a cycle is flagged at every edge that sustains
/// it and fixing any one edge clears the whole component.
void CheckIncludeCycle(const FileUnit& unit, const RuleContext& ctx,
                       std::vector<Finding>* out) {
  if (ctx.model == nullptr) return;
  const std::vector<std::string>* cycle = ctx.model->CycleOf(unit.path);
  if (cycle == nullptr) return;
  const FileNode* node = ctx.model->Node(unit.path);
  std::string members;
  for (const std::string& m : *cycle) {
    if (!members.empty()) members += " <-> ";
    members += m;
  }
  for (const auto& [idx, target] : node->resolved_includes) {
    bool in_cycle =
        target == unit.path ||
        std::binary_search(cycle->begin(), cycle->end(), target);
    if (!in_cycle) continue;
    const IncludeDirective& d = unit.includes[idx];
    EmitAt(out, unit, d.line, d.col, "sc-include-cycle",
           "#include \"" + d.target + "\" closes an include cycle (" +
               members +
               "): break it with a forward declaration or by hoisting the "
               "shared types into a lower layer");
  }
}

/// Enforces SC_GUARDED_BY: inside the member functions of an annotated
/// class, a guarded member may be touched only while its mutex is held —
/// lexically via std::lock_guard/unique_lock/scoped_lock in an enclosing
/// scope, or contractually via SC_REQUIRES on the method. The annotations
/// live on the in-class declarations (usually a header); the bodies
/// checked here are usually in the .cc — which is why this rule needs the
/// cross-TU class index and a single-file linter could not do it.
void CheckGuardedBy(const FileUnit& unit, const RuleContext& ctx,
                    std::vector<Finding>* out) {
  if (ctx.model == nullptr) return;
  const std::vector<Token>& code = unit.code;
  std::vector<ClassRegion> regions = FindClassRegions(code);

  for (size_t i = 0; i + 1 < code.size(); ++i) {
    // A function definition: `name ( params ) quals {`.
    if (code[i].kind != TokenKind::kIdentifier || !At(code, i + 1, "("))
      continue;
    std::string_view fn = code[i].text;
    if (fn == "if" || fn == "while" || fn == "for" || fn == "switch" ||
        fn == "catch" || fn == "return" || fn == "sizeof")
      continue;
    // The annotation macros are themselves `IDENT ( ... )` and, when they
    // qualify an inline definition, are directly followed by its `{` —
    // which would read as a phantom function named SC_REQUIRES with no
    // assumed mutexes. The real definition was already handled when the
    // scan passed its actual name.
    if (fn == "SC_REQUIRES" || fn == "SC_EXCLUDES" ||
        fn == "SC_GUARDED_BY" || fn == "SC_NO_THREAD_SAFETY_ANALYSIS")
      continue;
    size_t params_close = MatchForward(code, i + 1);
    if (params_close >= code.size()) continue;
    // Walk the qualifier region after ')' with a strict allowlist; any
    // unexpected token means this was a call or declaration, not a
    // definition with a body, and we skip it (never guess).
    size_t q = params_close + 1;
    bool is_definition = false;
    while (q < code.size()) {
      std::string_view t = code[q].text;
      if (t == "{") {
        is_definition = true;
        break;
      }
      if (t == "const" || t == "noexcept" || t == "override" ||
          t == "final" || t == "&") {
        ++q;
        continue;
      }
      if (t == "SC_REQUIRES" || t == "SC_EXCLUDES" ||
          t == "SC_NO_THREAD_SAFETY_ANALYSIS") {
        ++q;
        if (At(code, q, "(")) {
          q = MatchForward(code, q);
          if (q >= code.size()) break;
          ++q;
        }
        continue;
      }
      break;
    }
    if (!is_definition) continue;
    size_t body_open = q;
    size_t body_close = MatchForward(code, body_open);
    if (body_close >= code.size()) continue;

    // Which class does this body belong to? Out-of-line `C::fn`, else the
    // innermost class region (in-class definition), else a free function.
    std::string cls;
    if (i >= 2 && TextIs(code[i - 1], "::") &&
        code[i - 2].kind == TokenKind::kIdentifier) {
      cls = std::string(code[i - 2].text);
    } else if (const ClassRegion* r = InnermostRegion(regions, i)) {
      cls = r->name;
    }
    if (cls.empty()) continue;
    const ClassAnnotations* ann = ctx.model->Class(cls);
    if (ann == nullptr) continue;
    // Constructors and the destructor run before/after any sharing is
    // possible; the annotations do not apply there.
    if (fn == cls || (i > 0 && TextIs(code[i - 1], "~"))) continue;

    // Mutexes this body may assume held: SC_REQUIRES from the in-class
    // declaration (carried cross-TU by the model) plus any SC_REQUIRES
    // repeated on this definition.
    std::set<std::string> assumed;
    auto req = ann->required_mutexes.find(std::string(fn));
    if (req != ann->required_mutexes.end()) assumed = req->second;
    for (size_t k = params_close + 1; k < body_open; ++k) {
      if (TextIs(code[k], "SC_REQUIRES") && At(code, k + 1, "(")) {
        size_t e = MatchForward(code, k + 1);
        for (std::string& m : ParenArgNames(code, k + 1, e))
          assumed.insert(std::move(m));
      }
    }

    // Walk the body tracking RAII locks per lexical scope.
    std::vector<std::vector<std::string>> scopes(1);
    auto held = [&](const std::string& mu) {
      if (assumed.count(mu) > 0) return true;
      for (const auto& scope : scopes)
        for (const std::string& m : scope)
          if (m == mu) return true;
      return false;
    };
    for (size_t j = body_open + 1; j < body_close; ++j) {
      std::string_view t = code[j].text;
      if (t == "{") {
        scopes.emplace_back();
        continue;
      }
      if (t == "}") {
        if (scopes.size() > 1) scopes.pop_back();
        continue;
      }
      if (code[j].kind != TokenKind::kIdentifier) continue;
      if (t == "lock_guard" || t == "unique_lock" || t == "scoped_lock") {
        // `lock_guard<...> name(mu[, ...])` or brace-init. The guard's
        // lifetime is its enclosing scope, so the mutexes count as held
        // until that scope closes.
        size_t k = j + 1;
        if (At(code, k, "<")) {
          size_t g = SkipAngles(code, k);
          if (g == k) continue;  // `<` never balanced — not a declaration
          k = g + 1;
        }
        if (!IsIdent(code, k)) continue;
        if (!At(code, k + 1, "(") && !At(code, k + 1, "{")) continue;
        size_t e = MatchForward(code, k + 1);
        if (e >= code.size()) continue;
        for (std::string& m : ParenArgNames(code, k + 1, e))
          scopes.back().push_back(std::move(m));
        continue;
      }
      auto g = ann->guarded_members.find(std::string(t));
      if (g == ann->guarded_members.end()) continue;
      // `other.member_` goes through a different object whose lock state
      // this rule cannot see; only unqualified and this-> accesses count.
      if (j > 0) {
        std::string_view prev = code[j - 1].text;
        if (prev == ".") continue;
        if (prev == "->" && !(j >= 2 && TextIs(code[j - 2], "this")))
          continue;
      }
      if (held(g->second)) continue;
      Emit(out, unit, code[j], "sc-guarded-by",
           "'" + g->first + "' is SC_GUARDED_BY(" + g->second + ") but '" +
               g->second +
               "' is not held here: take a std::lock_guard/std::scoped_lock "
               "in an enclosing scope, or annotate the method SC_REQUIRES(" +
               g->second + ")");
    }
  }
}

/// IWYU-lite: a project include must provide at least one symbol the
/// including file mentions. "Provides" is judged against the header's
/// whole transitive closure, so umbrella headers included for re-exported
/// names do not fire; symbol harvesting over-approximates; and a header
/// whose closure declares nothing recognizable is never judged. All three
/// biases point the same way — misses over false alarms — which is why
/// this ships as a warning, not an error.
void CheckUnusedInclude(const FileUnit& unit, const RuleContext& ctx,
                        std::vector<Finding>* out) {
  if (ctx.model == nullptr) return;
  const FileNode* node = ctx.model->Node(unit.path);
  if (node == nullptr) return;
  // Include-only files (umbrella headers) exist to re-export; exempt.
  if (unit.code.empty()) return;

  std::set<std::string, std::less<>> used;
  for (const Token& t : unit.tokens) {
    if (t.kind == TokenKind::kIdentifier) {
      used.insert(std::string(t.text));
    } else if (t.kind == TokenKind::kDirective) {
      // Macros referenced in #if/#ifdef lines are uses too.
      std::string_view text = t.text;
      size_t k = 0;
      while (k < text.size()) {
        if (std::isalpha(static_cast<unsigned char>(text[k])) != 0 ||
            text[k] == '_') {
          size_t start = k;
          while (k < text.size() &&
                 (std::isalnum(static_cast<unsigned char>(text[k])) != 0 ||
                  text[k] == '_'))
            ++k;
          used.insert(std::string(text.substr(start, k - start)));
        } else {
          ++k;
        }
      }
    }
  }

  auto stem = [](const std::string& path) {
    size_t slash = path.rfind('/');
    size_t from = slash == std::string::npos ? 0 : slash + 1;
    size_t dot = path.rfind('.');
    if (dot == std::string::npos || dot < from) dot = path.size();
    return path.substr(from, dot - from);
  };
  std::string my_stem = stem(unit.path);

  for (const auto& [idx, target] : node->resolved_includes) {
    // A .cc's primary header is included for interface conformance, not
    // for symbols the .cc consumes.
    if (!unit.is_header && stem(target) == my_stem) continue;
    const std::set<std::string>& closure = ctx.model->ClosureSymbols(target);
    if (closure.empty()) continue;
    bool referenced = false;
    for (const std::string& sym : closure) {
      if (used.count(sym) > 0) {
        referenced = true;
        break;
      }
    }
    if (referenced) continue;
    const IncludeDirective& d = unit.includes[idx];
    EmitAt(out, unit, d.line, d.col, "sc-unused-include",
           "nothing declared by \"" + d.target +
               "\" (or anything it includes) is referenced in this file: "
               "drop the include, or move it next to the code that needs "
               "it");
  }
}

// ---------------------------------------------------------------------------
// sc-intrinsic-include: no CPU intrinsic headers without a benchmark
// ---------------------------------------------------------------------------

/// Flags #include of the x86 intrinsic headers (<immintrin.h> and the
/// whole *intrin.h family). The allowlist is empty: the set kernels in
/// index/set_kernels.h are portable scalar code, and a vector twin must
/// first show an end-to-end win on the committed benchmark, then land
/// with an allowlist entry, its own tests and runtime dispatch. Feature
/// detection headers are deliberately NOT restricted; only instruction
/// *emission* is.
void CheckIntrinsicInclude(const FileUnit& unit, const RuleContext&,
                           std::vector<Finding>* out) {
  constexpr std::string_view kSuffix = "intrin.h";
  for (const IncludeDirective& d : unit.includes) {
    // Basename of the include target ("immintrin.h", "x86/avx2intrin.h").
    size_t slash = d.target.rfind('/');
    std::string_view base = std::string_view(d.target).substr(
        slash == std::string::npos ? 0 : slash + 1);
    if (base.size() < kSuffix.size() ||
        base.substr(base.size() - kSuffix.size()) != kSuffix) {
      continue;
    }
    EmitAt(out, unit, d.line, d.col, "sc-intrinsic-include",
           "\"" + d.target +
               "\" is a CPU intrinsic header: the set kernels in "
               "index/set_kernels.h are portable scalar code; a vector "
               "kernel needs a measured end-to-end win on the committed "
               "benchmark and an allowlist entry before it lands");
  }
}

}  // namespace

const std::vector<RuleDef>& AllRules() {
  static const std::vector<RuleDef> kRules = {
      {"sc-banned-rand", Severity::kError,
       "bans std::rand/srand/drand48-family ambient randomness",
       CheckBannedRand},
      {"sc-banned-time", Severity::kError,
       "bans time(nullptr)-style wall-clock seeds", CheckBannedTime},
      {"sc-random-device", Severity::kError,
       "bans std::random_device outside the seed utilities",
       CheckRandomDevice},
      {"sc-unseeded-engine", Severity::kError,
       "bans unseeded std engines and default_random_engine",
       CheckUnseededEngine},
      {"sc-wall-clock", Severity::kError,
       "bans chrono ::now() outside the clock shim", CheckWallClock},
      {"sc-real-sleep", Severity::kError,
       "bans real sleeps; simulated time only", CheckRealSleep},
      {"sc-discarded-status", Severity::kError,
       "flags Status/Result return values dropped on the floor",
       CheckDiscardedStatus},
      {"sc-todo-owner", Severity::kWarning,
       "requires TODO(owner)/FIXME(owner) attribution", CheckTodoOwner},
      {"sc-include-guard", Severity::kError,
       "headers need #pragma once or an include guard", CheckIncludeGuard},
      {"sc-using-namespace-header", Severity::kError,
       "bans using-directives in headers", CheckUsingNamespaceHeader},
      {"sc-direct-include", Severity::kError,
       "configured tokens must be backed by a direct include",
       CheckDirectInclude},
      {"sc-intrinsic-include", Severity::kError,
       "CPU intrinsic headers only in allowlisted files (none today)",
       CheckIntrinsicInclude},
      {"sc-plan-mutation", Severity::kError,
       "CrawlPlan is immutable: no non-const members, no const_cast",
       CheckPlanMutation},
      {"sc-raw-reinterpret", Severity::kError,
       "bans reinterpret_cast outside the snapshot reader allowlist",
       CheckRawReinterpret},
      {"sc-layer-dag", Severity::kError,
       "includes must respect the configured layer order", CheckLayerDag},
      {"sc-include-cycle", Severity::kError,
       "the project include graph must be acyclic", CheckIncludeCycle},
      {"sc-guarded-by", Severity::kError,
       "SC_GUARDED_BY members need their mutex held (or SC_REQUIRES)",
       CheckGuardedBy},
      {"sc-unused-include", Severity::kWarning,
       "project includes must provide a symbol the file references",
       CheckUnusedInclude},
  };
  return kRules;
}

FileUnit MakeFileUnit(std::string path, std::string content) {
  FileUnit unit;
  unit.path = std::move(path);
  unit.content = std::move(content);
  unit.tokens = Lex(unit.content);
  for (const Token& t : unit.tokens)
    if (IsCodeToken(t)) unit.code.push_back(t);
  size_t dot = unit.path.rfind('.');
  std::string ext = dot == std::string::npos ? "" : unit.path.substr(dot);
  unit.is_header = ext == ".h" || ext == ".hpp" || ext == ".hh";
  for (const Token& t : unit.tokens) {
    if (t.kind != TokenKind::kDirective) continue;
    std::string_view kw = DirectiveKeyword(t.text);
    std::string_view text = t.text;
    if (kw == "include") {
      size_t open = text.find_first_of("\"<");
      if (open == std::string_view::npos) continue;
      char close = text[open] == '"' ? '"' : '>';
      size_t end = text.find(close, open + 1);
      if (end == std::string_view::npos) continue;
      IncludeDirective d;
      d.target = std::string(text.substr(open + 1, end - open - 1));
      d.line = t.line;
      d.col = t.col;
      d.angled = text[open] == '<';
      unit.includes.push_back(std::move(d));
    } else if (kw == "define") {
      size_t at = text.find("define") + 6;
      while (at < text.size() && (text[at] == ' ' || text[at] == '\t')) ++at;
      size_t end = at;
      while (end < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[end])) != 0 ||
              text[end] == '_'))
        ++end;
      if (end > at)
        unit.defines.emplace_back(text.substr(at, end - at));
    }
  }
  return unit;
}

void HarvestStatusFunctions(const FileUnit& unit,
                            std::set<std::string>* out) {
  const std::vector<Token>& code = unit.code;
  auto is_decl_context = [&](size_t type_idx) {
    if (type_idx == 0) return true;
    const Token& prev = code[type_idx - 1];
    std::string_view p = prev.text;
    if (p == ";" || p == "{" || p == "}" || p == ":" || p == "]" ||
        p == ">" || p == "::")
      return true;
    if (prev.kind == TokenKind::kIdentifier) {
      return p == "static" || p == "inline" || p == "virtual" ||
             p == "explicit" || p == "constexpr" || p == "friend" ||
             p == "extern" || p == "mutable" || p == "typename" ||
             p == "public" || p == "private" || p == "protected";
    }
    return false;
  };
  for (size_t i = 0; i < code.size(); ++i) {
    if (code[i].kind != TokenKind::kIdentifier) continue;
    std::string_view t = code[i].text;
    if (t != "Status" && t != "Result") continue;
    if (!is_decl_context(i)) continue;
    size_t j = i + 1;
    if (t == "Result") {
      if (!At(code, j, "<")) continue;
      int depth = 0;
      size_t limit = std::min(code.size(), j + 96);
      for (; j < limit; ++j) {
        if (code[j].text == "<") ++depth;
        if (code[j].text == ">" && --depth == 0) break;
      }
      if (j >= limit) continue;
      ++j;  // past '>'
    }
    // Qualified declarator: name (:: name)* followed by '('.
    if (!IsIdent(code, j)) continue;
    size_t name_idx = j;
    while (At(code, name_idx + 1, "::") && IsIdent(code, name_idx + 2))
      name_idx += 2;
    if (!At(code, name_idx + 1, "(")) continue;
    out->insert(std::string(code[name_idx].text));
  }
}

}  // namespace sclint
