#include "lint.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>

namespace hmcsim::lint
{

namespace
{

/**
 * Shim files exempt from specific rules by design. The exemption
 * lives here, next to the rule table, so adding one is a reviewed
 * change to the linter -- not a pragma someone can quietly drop into
 * a model file. Matching is by normalized path suffix.
 */
const std::vector<std::pair<std::string, std::string>> kFileAllowlist = {
    // The one audited wall-clock source (timing metadata only).
    {"src/sim/wallclock.hh", "nondeterminism"},
};

const std::vector<RuleInfo> &
ruleTable()
{
    static const std::vector<RuleInfo> rules = {
        {"nondeterminism", "",
         "wall-clock, rand()/srand(), random_device, or *_clock::now() "
         "in model code",
         "simulated results must be a pure function of config and "
         "seed; host time or unseeded randomness bends digests "
         "(docs/correctness.md)",
         "derive randomness from the experiment seed via "
         "sim/random.hh; take host time only through the "
         "sim/wallclock.hh shim (timing metadata, never simulated "
         "behavior)"},
        {"unordered-iteration", "",
         "range-for over a container declared std::unordered_*",
         "unordered iteration order varies across libstdc++ versions "
         "and hash seeds, so anything it feeds (stats, digests, "
         "sinks) loses byte-stability",
         "iterate a sorted snapshot of the keys, keep a parallel "
         "std::vector/std::list in insertion order (see ResultCache), "
         "or switch to an ordered container"},
        {"pointer-keyed-order", "",
         "std::map/std::set keyed by a raw pointer",
         "pointer values depend on allocation order and ASLR, so the "
         "container's iteration order is nondeterministic "
         "run-to-run even though it is 'sorted'",
         "key by a stable id (component name, index, config digest) "
         "instead of the object's address"},
        {"hot-std-function", "hot-path",
         "std::function in a file tagged lint:file(hot-path)",
         "std::function heap-allocates beyond its tiny inline buffer; "
         "the event core's inline-capture Event exists precisely to "
         "keep callables allocation-free (docs/performance.md)",
         "capture into hmcsim::Event (sim/event.hh) or a plain "
         "function pointer + context pointer; hoist big state into "
         "the owning component"},
        {"hot-check", "hot-path",
         "HMCSIM_CHECK in a file tagged lint:file(hot-path)",
         "HMCSIM_CHECK branches in release builds; hot-path "
         "invariants belong in HMCSIM_DCHECK, which compiles out "
         "unless checks are enabled (docs/correctness.md)",
         "use HMCSIM_DCHECK, or keep HMCSIM_CHECK with a per-line "
         "lint:allow(hot-check) and a comment naming why the check "
         "must stay in release builds"},
        {"hexfloat-persistence", "persistence",
         "%e/%f/%g formatting, std::chars_format::{general,fixed,"
         "scientific}, or std::fixed/std::scientific/std::setprecision "
         "in a file tagged lint:file(persistence)",
         "decimal float formatting rounds; persisted results must "
         "round-trip bit-exactly or a cache hit diverges from the "
         "original measurement (docs/runner.md)",
         "write and read doubles through runner/kv_codec.hh's "
         "KvWriter/KvReader, which use %a (C99 hexfloat)"},
        {"backend-hot-path", "",
         "a *_backend.cc storage-engine implementation missing the "
         "lint:file(hot-path) tag",
         "backend accept() runs once per packet on the model path; "
         "the hot-path tag arms the std::function and HMCSIM_CHECK "
         "rules that keep that path allocation- and branch-free "
         "(docs/performance.md)",
         "start the backend implementation with a "
         "'// lint:file(hot-path) -- <why>' comment and keep its "
         "accept() path free of std::function and release-mode "
         "checks"},
        {"snapshot-safe", "",
         "a raw-pointer or iterator member in a class tagged "
         "lint:snapshot-state without lint:allow(snapshot-safe)",
         "Ac510Module::fork copies snapshot-state classes into a "
         "freshly built twin with their defaulted copy assignment; a "
         "copied address or iterator still points into the *source* "
         "simulator, so the fork silently reads or writes it "
         "(docs/performance.md)",
         "hold a value instead: an index (a receiver index, a "
         "PacketPool slot) or a copyable object; a pointer the "
         "constructor sets into its own simulator goes in "
         "Wiring<T> (sim/wiring.hh), which assignment leaves "
         "unchanged"},
        {"mutex-unguarded", "",
         "a mutex member with no GUARDED_BY(name) anywhere in the "
         "file",
         "a mutex nothing is annotated against is invisible to the "
         "Clang thread-safety analysis, so the lock discipline it "
         "implements is unchecked (hmcsim/annotations.hh)",
         "annotate the members the mutex protects with "
         "GUARDED_BY(<mutex>); if it guards non-member state (a "
         "stream, a wake handshake), add lint:allow(mutex-unguarded) "
         "with a comment naming that state"},
    };
    return rules;
}

/** One comment's text and position, captured while scrubbing. */
struct CommentSpan
{
    std::string text;
    int startLine = 0;
    int endLine = 0;
};

struct ScrubResult
{
    std::string code;
    std::vector<CommentSpan> comments;
};

/**
 * Blank comments and string/char literals (newlines preserved so
 * line numbers survive), collecting comment text for pragma parsing.
 * Handles escapes and raw strings.
 */
ScrubResult
scrub(const std::string &in)
{
    ScrubResult out;
    out.code.reserve(in.size());

    enum class State
    {
        Code,
        LineComment,
        BlockComment,
        String,
        Char,
        RawString,
    };
    State state = State::Code;
    int line = 1;
    CommentSpan current;
    std::string rawDelim; // for )delim" termination

    const auto emit = [&](char c) { out.code.push_back(c); };
    const auto blank = [&](char c) {
        out.code.push_back(c == '\n' ? '\n' : ' ');
    };

    for (std::size_t i = 0; i < in.size(); ++i) {
        const char c = in[i];
        const char next = i + 1 < in.size() ? in[i + 1] : '\0';
        switch (state) {
          case State::Code:
            if (c == '/' && next == '/') {
                state = State::LineComment;
                current = {"", line, line};
                blank(c);
                blank(next);
                ++i;
            } else if (c == '/' && next == '*') {
                state = State::BlockComment;
                current = {"", line, line};
                blank(c);
                blank(next);
                ++i;
            } else if (c == '"' && i >= 1 && in[i - 1] == 'R') {
                state = State::RawString;
                rawDelim.clear();
                std::size_t j = i + 1;
                while (j < in.size() && in[j] != '(')
                    rawDelim.push_back(in[j++]);
                blank(c);
            } else if (c == '"') {
                state = State::String;
                emit(c); // keep the quotes: rules can spot literals
            } else if (c == '\'') {
                state = State::Char;
                emit(c);
            } else {
                emit(c);
            }
            break;
          case State::LineComment:
            if (c == '\n') {
                state = State::Code;
                current.endLine = line;
                out.comments.push_back(current);
                emit('\n');
            } else {
                current.text.push_back(c);
                blank(c);
            }
            break;
          case State::BlockComment:
            if (c == '*' && next == '/') {
                state = State::Code;
                current.endLine = line;
                out.comments.push_back(current);
                blank(c);
                blank(next);
                ++i;
            } else {
                current.text.push_back(c);
                blank(c);
            }
            break;
          case State::String:
            if (c == '\\' && next != '\0') {
                blank(c);
                blank(next);
                ++i;
            } else if (c == '"') {
                state = State::Code;
                emit(c);
            } else {
                blank(c);
            }
            break;
          case State::Char:
            if (c == '\\' && next != '\0') {
                blank(c);
                blank(next);
                ++i;
            } else if (c == '\'') {
                state = State::Code;
                emit(c);
            } else {
                blank(c);
            }
            break;
          case State::RawString:
            if (c == ')' &&
                in.compare(i + 1, rawDelim.size(), rawDelim) == 0 &&
                i + 1 + rawDelim.size() < in.size() &&
                in[i + 1 + rawDelim.size()] == '"') {
                for (std::size_t k = 0; k < rawDelim.size() + 1; ++k)
                    blank(in[i + k]);
                i += rawDelim.size() + 1;
                blank('"');
                state = State::Code;
            } else {
                blank(c);
            }
            break;
        }
        if (c == '\n')
            ++line;
    }
    if (state == State::LineComment || state == State::BlockComment) {
        current.endLine = line;
        out.comments.push_back(current);
    }
    return out;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::string cur;
    for (const char c : text) {
        if (c == '\n') {
            lines.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    lines.push_back(cur);
    return lines;
}

std::string
trim(const std::string &s)
{
    std::size_t a = 0;
    std::size_t b = s.size();
    while (a < b && std::isspace(static_cast<unsigned char>(s[a])))
        ++a;
    while (b > a && std::isspace(static_cast<unsigned char>(s[b - 1])))
        --b;
    return s.substr(a, b - a);
}

std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream stream(s);
    std::string item;
    while (std::getline(stream, item, ',')) {
        item = trim(item);
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

bool
blankCode(const std::string &code_line)
{
    return trim(code_line).empty();
}

std::string
normalizePath(std::string path)
{
    std::replace(path.begin(), path.end(), '\\', '/');
    return path;
}

bool
lineAllowed(const FileContext &ctx, int line, const std::string &rule)
{
    if (ctx.fileAllows.count(rule))
        return true;
    const auto it = ctx.lineAllows.find(line);
    return it != ctx.lineAllows.end() && it->second.count(rule) != 0;
}

void
addFinding(const FileContext &ctx, std::vector<Finding> &out, int line,
           const std::string &rule, const std::string &message)
{
    if (lineAllowed(ctx, line, rule))
        return;
    out.push_back({ctx.path, line, rule, message, ""});
}

// --------------------------------------------------------------------------
// Rule implementations. Each walks the scrubbed (or raw, where string
// literals matter) lines of one FileContext.
// --------------------------------------------------------------------------

void
checkNondeterminism(const FileContext &ctx, std::vector<Finding> &out)
{
    static const std::vector<std::pair<std::regex, const char *>>
        patterns = {
            {std::regex(R"(\brandom_device\b)"),
             "std::random_device is unseeded hardware entropy"},
            {std::regex(R"(\bs?rand\s*\()"),
             "rand()/srand() draw from hidden global state"},
            {std::regex(
                 R"(\b(steady_clock|system_clock|high_resolution_clock)\s*::\s*now\b)"),
             "host clock read in model code"},
            {std::regex(R"(\btime\s*\(\s*(NULL|nullptr|0)?\s*\))"),
             "time() reads the wall clock"},
            {std::regex(R"(\bclock\s*\(\s*\))"),
             "clock() reads host CPU time"},
            {std::regex(R"(\b(gettimeofday|clock_gettime)\s*\()"),
             "POSIX clock read in model code"},
        };
    for (std::size_t i = 0; i < ctx.code.size(); ++i) {
        for (const auto &[re, what] : patterns) {
            if (std::regex_search(ctx.code[i], re)) {
                addFinding(ctx, out, static_cast<int>(i) + 1,
                           "nondeterminism", what);
                break; // one finding per line is enough
            }
        }
    }
}

void
checkUnorderedIteration(const FileContext &ctx,
                        std::vector<Finding> &out)
{
    // Pass 1: names declared (or returned) as unordered containers.
    static const std::regex decl(R"(\bunordered_(map|set|multimap|multiset)\s*<)");
    std::set<std::string> names;
    for (const std::string &line : ctx.code) {
        auto begin =
            std::sregex_iterator(line.begin(), line.end(), decl);
        for (auto it = begin; it != std::sregex_iterator(); ++it) {
            // Bracket-match the template args, then take the next
            // identifier as the declared name.
            std::size_t pos =
                static_cast<std::size_t>(it->position()) + it->length();
            int depth = 1;
            while (pos < line.size() && depth > 0) {
                if (line[pos] == '<')
                    ++depth;
                else if (line[pos] == '>')
                    --depth;
                ++pos;
            }
            if (depth != 0)
                continue; // declaration spans lines; heuristic bails
            while (pos < line.size() &&
                   (std::isspace(static_cast<unsigned char>(line[pos])) ||
                    line[pos] == '&'))
                ++pos;
            std::string name;
            while (pos < line.size() &&
                   (std::isalnum(static_cast<unsigned char>(line[pos])) ||
                    line[pos] == '_'))
                name.push_back(line[pos++]);
            if (!name.empty())
                names.insert(name);
        }
    }
    if (names.empty())
        return;

    // Pass 2: range-for statements whose range names one of them.
    static const std::regex rangeFor(R"(\bfor\s*\(([^;)]*):([^)]*)\))");
    for (std::size_t i = 0; i < ctx.code.size(); ++i) {
        std::smatch m;
        if (!std::regex_search(ctx.code[i], m, rangeFor))
            continue;
        const std::string range = m[2].str();
        for (const std::string &name : names) {
            const std::regex word("\\b" + name + "\\b");
            if (std::regex_search(range, word)) {
                addFinding(ctx, out, static_cast<int>(i) + 1,
                           "unordered-iteration",
                           "iterates '" + name +
                               "', an unordered container");
                break;
            }
        }
    }
}

void
checkPointerKeyedOrder(const FileContext &ctx,
                       std::vector<Finding> &out)
{
    // [^\w] guard keeps unordered_map/set from matching here; those
    // are the unordered-iteration rule's concern.
    static const std::regex re(
        R"((^|[^\w_])(std\s*::\s*)?(map|set|multimap|multiset)\s*<\s*[^<>,]*\*\s*[,>])");
    for (std::size_t i = 0; i < ctx.code.size(); ++i) {
        if (std::regex_search(ctx.code[i], re)) {
            addFinding(ctx, out, static_cast<int>(i) + 1,
                       "pointer-keyed-order",
                       "ordered container keyed by a raw pointer");
        }
    }
}

void
checkHotStdFunction(const FileContext &ctx, std::vector<Finding> &out)
{
    static const std::regex re(R"(\bstd\s*::\s*function\b)");
    for (std::size_t i = 0; i < ctx.code.size(); ++i) {
        if (std::regex_search(ctx.code[i], re)) {
            addFinding(ctx, out, static_cast<int>(i) + 1,
                       "hot-std-function",
                       "std::function in an event-hot file");
        }
    }
}

void
checkHotCheck(const FileContext &ctx, std::vector<Finding> &out)
{
    static const std::regex re(R"(\bHMCSIM_CHECK\s*\()");
    for (std::size_t i = 0; i < ctx.code.size(); ++i) {
        if (std::regex_search(ctx.code[i], re)) {
            addFinding(ctx, out, static_cast<int>(i) + 1, "hot-check",
                       "HMCSIM_CHECK branches in release builds; "
                       "hot-path files use HMCSIM_DCHECK");
        }
    }
}

void
checkHexfloatPersistence(const FileContext &ctx,
                         std::vector<Finding> &out)
{
    // Scan string literals on the *raw* lines: the scrubber blanks
    // literal contents, but format strings are exactly what this
    // rule is about.
    static const std::regex literal(R"("(?:[^"\\]|\\.)*")");
    static const std::regex decimalFloat(
        R"(%[-+ #0-9.*]*(?:hh|h|ll|l|L)?[efgEFG])");
    // The same decimal formatting without a format string: to_chars
    // in a decimal format, or the iostream float manipulators. Matched
    // on the scrubbed code, so comments and literals stay silent.
    static const std::regex decimalCall(
        R"(\b(?:std\s*::\s*)?chars_format\s*::\s*)"
        R"((?:general|fixed|scientific)\b)"
        R"(|\bstd\s*::\s*(?:fixed|scientific|setprecision)\b)");
    for (std::size_t i = 0; i < ctx.raw.size(); ++i) {
        const std::string &line = ctx.raw[i];
        bool decimal = i < ctx.code.size() &&
                       std::regex_search(ctx.code[i], decimalCall);
        auto it = std::sregex_iterator(line.begin(), line.end(), literal);
        for (; !decimal && it != std::sregex_iterator(); ++it)
            decimal = std::regex_search(it->str(), decimalFloat);
        if (decimal)
            addFinding(ctx, out, static_cast<int>(i) + 1,
                       "hexfloat-persistence",
                       "decimal float formatting in persisted output; "
                       "use %a");
    }
}

void
checkMutexUnguarded(const FileContext &ctx, std::vector<Finding> &out)
{
    static const std::regex decl(
        R"(^\s*(mutable\s+)?((hmcsim\s*::\s*)?Mutex|std\s*::\s*mutex)\s+([A-Za-z_]\w*)\s*;)");
    for (std::size_t i = 0; i < ctx.code.size(); ++i) {
        std::smatch m;
        if (!std::regex_search(ctx.code[i], m, decl))
            continue;
        const std::string name = m[4].str();
        const std::regex guarded("GUARDED_BY\\(\\s*" + name +
                                 "\\s*\\)");
        bool found = false;
        for (const std::string &line : ctx.code) {
            if (std::regex_search(line, guarded)) {
                found = true;
                break;
            }
        }
        if (!found) {
            addFinding(ctx, out, static_cast<int>(i) + 1,
                       "mutex-unguarded",
                       "no member is GUARDED_BY(" + name + ")");
        }
    }
}

void
checkSnapshotSafe(const FileContext &ctx, std::vector<Finding> &out)
{
    // Classes tagged `// lint:snapshot-state` are copied by fork with
    // their defaulted copy assignment. Scan each tagged class's body
    // (depth-1 lines only, so statements inside member functions are
    // exempt) for raw-pointer and iterator members. The marker lives
    // in a comment, so match against the raw lines; the body walk
    // uses the scrubbed code.
    static const std::regex marker(R"(lint:snapshot-state\b)");
    static const std::regex pointerMember(
        R"(\*\s*[A-Za-z_]\w*\s*(=[^;]*)?;)");
    static const std::regex iteratorMember(
        R"(\biterator\s+[A-Za-z_]\w*\s*(=[^;]*)?;)");
    for (std::size_t i = 0; i < ctx.raw.size(); ++i) {
        if (!std::regex_search(ctx.raw[i], marker))
            continue;
        int depth = 0;
        bool opened = false;
        for (std::size_t j = i; j < ctx.code.size(); ++j) {
            const int start_depth = depth;
            for (const char c : ctx.code[j]) {
                if (c == '{') {
                    ++depth;
                    opened = true;
                } else if (c == '}') {
                    --depth;
                }
            }
            if (opened && start_depth == 1) {
                const std::string &line = ctx.code[j];
                // Lines with parens are member-function machinery
                // (declarations, defaulted ctors), not data members.
                const bool function_line =
                    line.find('(') != std::string::npos;
                if (!function_line &&
                    (std::regex_search(line, pointerMember) ||
                     std::regex_search(line, iteratorMember))) {
                    addFinding(ctx, out, static_cast<int>(j) + 1,
                               "snapshot-safe",
                               "raw-pointer/iterator member of a "
                               "class fork copies: use an index or "
                               "Wiring<T>");
                }
            }
            if (opened && depth == 0)
                break;
        }
    }
}

void
checkBackendHotPath(const FileContext &ctx, std::vector<Finding> &out)
{
    // Path-gated rather than tag-gated: the point is to catch the
    // *absence* of the tag on storage-engine implementations.
    static const std::string suffix = "_backend.cc";
    const std::string &p = ctx.path;
    if (p.size() < suffix.size() ||
        p.compare(p.size() - suffix.size(), suffix.size(), suffix) != 0)
        return;
    if (ctx.tags.count("hot-path") == 0) {
        addFinding(ctx, out, 1, "backend-hot-path",
                   "storage-engine implementation without "
                   "lint:file(hot-path)");
    }
}

using CheckFn = void (*)(const FileContext &, std::vector<Finding> &);

const std::vector<std::pair<std::string, CheckFn>> &
checkTable()
{
    static const std::vector<std::pair<std::string, CheckFn>> checks = {
        {"nondeterminism", &checkNondeterminism},
        {"unordered-iteration", &checkUnorderedIteration},
        {"pointer-keyed-order", &checkPointerKeyedOrder},
        {"hot-std-function", &checkHotStdFunction},
        {"hot-check", &checkHotCheck},
        {"hexfloat-persistence", &checkHexfloatPersistence},
        {"snapshot-safe", &checkSnapshotSafe},
        {"backend-hot-path", &checkBackendHotPath},
        {"mutex-unguarded", &checkMutexUnguarded},
    };
    return checks;
}

const RuleInfo *
ruleInfo(const std::string &id)
{
    for (const RuleInfo &rule : listRules())
        if (rule.id == id)
            return &rule;
    return nullptr;
}

} // namespace

const std::vector<RuleInfo> &
listRules()
{
    return ruleTable();
}

FileContext
prepareFile(const std::string &path, const std::string &content)
{
    FileContext ctx;
    ctx.path = normalizePath(path);
    ctx.raw = splitLines(content);
    ScrubResult scrubbed = scrub(content);
    ctx.code = splitLines(scrubbed.code);

    static const std::regex fileTag(R"(lint:file\(([^)]*)\))");
    static const std::regex allowFile(R"(lint:allow-file\(([^)]*)\))");
    static const std::regex allowLine(R"(lint:allow\(([^)]*)\))");

    for (const CommentSpan &comment : scrubbed.comments) {
        for (auto it = std::sregex_iterator(comment.text.begin(),
                                            comment.text.end(), fileTag);
             it != std::sregex_iterator(); ++it) {
            for (const std::string &tag : splitCsv((*it)[1].str()))
                ctx.tags.insert(tag);
        }
        for (auto it =
                 std::sregex_iterator(comment.text.begin(),
                                      comment.text.end(), allowFile);
             it != std::sregex_iterator(); ++it) {
            for (const std::string &rule : splitCsv((*it)[1].str()))
                ctx.fileAllows.insert(rule);
        }
        for (auto it =
                 std::sregex_iterator(comment.text.begin(),
                                      comment.text.end(), allowLine);
             it != std::sregex_iterator(); ++it) {
            std::vector<int> lines = {comment.startLine};
            // A comment with no code on its first line excuses the
            // line after the comment ends, so suppressions can sit
            // above the code they explain.
            const std::size_t idx =
                static_cast<std::size_t>(comment.startLine) - 1;
            if (idx < ctx.code.size() && blankCode(ctx.code[idx]))
                lines.push_back(comment.endLine + 1);
            for (const std::string &rule : splitCsv((*it)[1].str()))
                for (const int line : lines)
                    ctx.lineAllows[line].insert(rule);
        }
    }

    for (const auto &[suffix, rule] : kFileAllowlist) {
        const std::string &p = ctx.path;
        if (p.size() >= suffix.size() &&
            p.compare(p.size() - suffix.size(), suffix.size(),
                      suffix) == 0) {
            ctx.fileAllows.insert(rule);
        }
    }
    return ctx;
}

std::vector<Finding>
lintFile(const std::string &path, const std::string &content)
{
    const FileContext ctx = prepareFile(path, content);
    std::vector<Finding> findings;
    for (const auto &[id, fn] : checkTable()) {
        const RuleInfo *info = ruleInfo(id);
        if (!info->requiresTag.empty() &&
            ctx.tags.count(info->requiresTag) == 0)
            continue;
        fn(ctx, findings);
    }
    for (Finding &f : findings)
        if (const RuleInfo *info = ruleInfo(f.rule))
            f.suggestion = info->suggestion;
    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  return std::tie(a.file, a.line, a.rule) <
                         std::tie(b.file, b.line, b.rule);
              });
    findings.erase(std::unique(findings.begin(), findings.end(),
                               [](const Finding &a, const Finding &b) {
                                   return a.file == b.file &&
                                          a.line == b.line &&
                                          a.rule == b.rule;
                               }),
                   findings.end());
    return findings;
}

std::vector<Finding>
lintPath(const std::string &path)
{
    namespace fs = std::filesystem;
    std::vector<Finding> findings;
    std::vector<std::string> files;

    std::error_code ec;
    if (fs::is_directory(path, ec)) {
        for (auto it = fs::recursive_directory_iterator(path, ec);
             it != fs::recursive_directory_iterator(); ++it) {
            if (it->is_directory() &&
                it->path().filename().string().front() == '.') {
                it.disable_recursion_pending();
                continue;
            }
            if (!it->is_regular_file())
                continue;
            const std::string ext = it->path().extension().string();
            if (ext == ".cc" || ext == ".hh" || ext == ".cpp" ||
                ext == ".h")
                files.push_back(it->path().string());
        }
        std::sort(files.begin(), files.end());
    } else {
        files.push_back(path);
    }

    for (const std::string &file : files) {
        std::ifstream in(file, std::ios::binary);
        if (!in) {
            findings.push_back({normalizePath(file), 0, "io-error",
                                "cannot read file", ""});
            continue;
        }
        std::ostringstream text;
        text << in.rdbuf();
        std::vector<Finding> fileFindings = lintFile(file, text.str());
        findings.insert(findings.end(), fileFindings.begin(),
                        fileFindings.end());
    }
    return findings;
}

std::string
formatFindings(const std::vector<Finding> &findings, bool machine,
               bool fix_suggestions)
{
    std::ostringstream out;
    for (const Finding &f : findings) {
        if (machine) {
            out << f.file << ':' << f.line << ':' << f.rule << '\n';
            continue;
        }
        out << f.file << ':' << f.line << ": " << f.rule << ": "
            << f.message << '\n';
        if (fix_suggestions && !f.suggestion.empty())
            out << "    fix: " << f.suggestion << '\n';
    }
    return out.str();
}

std::string
formatRuleTable()
{
    std::ostringstream out;
    for (const RuleInfo &rule : listRules()) {
        out << rule.id;
        if (!rule.requiresTag.empty())
            out << "  [files tagged lint:file(" << rule.requiresTag
                << ")]";
        out << '\n';
        out << "    catches:  " << rule.summary << '\n';
        out << "    why:      " << rule.rationale << '\n';
        out << "    fix:      " << rule.suggestion << '\n';
    }
    return out.str();
}

} // namespace hmcsim::lint
