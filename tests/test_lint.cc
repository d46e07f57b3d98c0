/**
 * @file
 * hmcsim-lint engine tests: every rule proven to fire on a seeded
 * fixture at an exact file:line, every suppression form proven to
 * hold, and the live src/ tree proven clean (the meta-test CI relies
 * on).
 *
 * Fixture sources live in tests/lint_fixtures/; they are linted, not
 * compiled. HMCSIM_LINT_FIXTURES_DIR and HMCSIM_LINT_SRC_DIR are
 * injected by tests/CMakeLists.txt.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "lint.hh"

namespace
{

using hmcsim::lint::Finding;
using hmcsim::lint::formatFindings;
using hmcsim::lint::formatRuleTable;
using hmcsim::lint::lintFile;
using hmcsim::lint::lintPath;
using hmcsim::lint::listRules;
using hmcsim::lint::prepareFile;

std::string
fixture(const std::string &name)
{
    return std::string(HMCSIM_LINT_FIXTURES_DIR) + "/" + name;
}

/** Machine-format output of linting one fixture. */
std::string
machineOutput(const std::string &name)
{
    return formatFindings(lintPath(fixture(name)), /*machine=*/true,
                          /*fix_suggestions=*/false);
}

/** Expected `file:line:rule` line for a fixture finding. */
std::string
expect(const std::string &name, int line, const std::string &rule)
{
    return fixture(name) + ":" + std::to_string(line) + ":" + rule +
           "\n";
}

TEST(LintRules, NondeterminismFiresPerSeededLine)
{
    EXPECT_EQ(machineOutput("nondeterminism.cc"),
              expect("nondeterminism.cc", 10, "nondeterminism") +
                  expect("nondeterminism.cc", 11, "nondeterminism") +
                  expect("nondeterminism.cc", 12, "nondeterminism"));
}

TEST(LintRules, UnorderedIterationFires)
{
    EXPECT_EQ(machineOutput("unordered_iteration.cc"),
              expect("unordered_iteration.cc", 11,
                     "unordered-iteration"));
}

TEST(LintRules, PointerKeyedOrderFires)
{
    EXPECT_EQ(machineOutput("pointer_keyed_order.cc"),
              expect("pointer_keyed_order.cc", 8,
                     "pointer-keyed-order") +
                  expect("pointer_keyed_order.cc", 9,
                         "pointer-keyed-order"));
}

TEST(LintRules, HotStdFunctionFiresOnlyWithTag)
{
    EXPECT_EQ(machineOutput("hot_std_function.cc"),
              expect("hot_std_function.cc", 6, "hot-std-function"));
}

TEST(LintRules, HotCheckFiresButDcheckDoesNot)
{
    // Line 10 is HMCSIM_DCHECK and must stay silent.
    EXPECT_EQ(machineOutput("hot_check.cc"),
              expect("hot_check.cc", 9, "hot-check"));
}

TEST(LintRules, HexfloatFiresOnDecimalButNotHexFormat)
{
    // Line 10 formats with %a, line 22 with chars_format::hex, and
    // lines 13-15 and 26 only mention the manipulators in a comment
    // or a literal: all must stay silent.
    EXPECT_EQ(machineOutput("hexfloat.cc"),
              expect("hexfloat.cc", 9, "hexfloat-persistence") +
                  expect("hexfloat.cc", 19, "hexfloat-persistence") +
                  expect("hexfloat.cc", 20, "hexfloat-persistence") +
                  expect("hexfloat.cc", 21, "hexfloat-persistence") +
                  expect("hexfloat.cc", 23, "hexfloat-persistence") +
                  expect("hexfloat.cc", 24, "hexfloat-persistence") +
                  expect("hexfloat.cc", 25, "hexfloat-persistence"));
}

TEST(LintRules, MutexUnguardedFiresOnlyOnUnannotatedMutex)
{
    // Line 7 declares a mutex with a GUARDED_BY member; only the
    // line-9 mutex is naked.
    EXPECT_EQ(machineOutput("mutex_unguarded.cc"),
              expect("mutex_unguarded.cc", 9, "mutex-unguarded"));
}

TEST(LintRules, SnapshotSafeFiresInsideTaggedStructOnly)
{
    // Lines 9-11 are unannotated pointer/iterator members of the
    // tagged struct; the value member (8), the member function (12),
    // the annotated pointer (13), and the untagged struct (18) all
    // stay silent.
    EXPECT_EQ(machineOutput("snapshot_unsafe.cc"),
              expect("snapshot_unsafe.cc", 9, "snapshot-safe") +
                  expect("snapshot_unsafe.cc", 10, "snapshot-safe") +
                  expect("snapshot_unsafe.cc", 11, "snapshot-safe"));
}

TEST(LintRules, BackendHotPathFiresOnUntaggedBackendFile)
{
    EXPECT_EQ(machineOutput("plain_backend.cc"),
              expect("plain_backend.cc", 1, "backend-hot-path"));
}

TEST(LintRules, BackendHotPathIgnoresTaggedAndUnrelatedFiles)
{
    using hmcsim::lint::lintFile;
    EXPECT_TRUE(
        lintFile("src/mem/nvm_backend.cc",
                 "// lint:file(hot-path) -- per-packet accept()\n"
                 "int x;\n")
            .empty());
    EXPECT_TRUE(lintFile("src/mem/backend.cc", "int x;\n").empty());
}

TEST(LintSuppressions, SameLineAndCommentAboveAllow)
{
    EXPECT_EQ(machineOutput("suppressed.cc"), "");
}

TEST(LintSuppressions, AllowFilePragma)
{
    EXPECT_EQ(machineOutput("allow_file.cc"), "");
}

TEST(LintSuppressions, TagGatingKeepsUntaggedFilesClean)
{
    EXPECT_EQ(machineOutput("untagged_ok.cc"), "");
}

TEST(LintSuppressions, BuiltinShimAllowlist)
{
    // The wall-clock shim reads steady_clock::now() but is exempt
    // from `nondeterminism` via the engine's built-in allowlist --
    // matched by path suffix, no pragma in the shim itself.
    const std::string shim = "steady_clock::now();\n";
    EXPECT_TRUE(lintFile("repo/src/sim/wallclock.hh", shim).empty());
    EXPECT_EQ(lintFile("repo/src/sim/other.hh", shim).size(), 1U);
}

TEST(LintEngine, CommentsAndStringsNeverFire)
{
    const std::string content = "// rand() in a comment\n"
                                "/* std::random_device too */\n"
                                "const char *s = \"time()\";\n"
                                "const char *r = R\"(rand())\";\n";
    EXPECT_TRUE(lintFile("x.cc", content).empty());
}

TEST(LintEngine, EveryRuleHasAFiringFixture)
{
    const std::vector<std::string> fixtures = {
        "nondeterminism.cc",     "unordered_iteration.cc",
        "pointer_keyed_order.cc", "hot_std_function.cc",
        "hot_check.cc",          "hexfloat.cc",
        "mutex_unguarded.cc",    "plain_backend.cc",
        "snapshot_unsafe.cc"};
    std::set<std::string> fired;
    for (const std::string &name : fixtures)
        for (const Finding &f : lintPath(fixture(name)))
            fired.insert(f.rule);
    for (const auto &rule : listRules())
        EXPECT_TRUE(fired.count(rule.id))
            << "rule without a firing fixture: " << rule.id;
}

TEST(LintEngine, FileTagsParsed)
{
    const auto ctx =
        prepareFile("x.cc", "// lint:file(hot-path, persistence)\n");
    EXPECT_TRUE(ctx.tags.count("hot-path"));
    EXPECT_TRUE(ctx.tags.count("persistence"));
}

TEST(LintEngine, FixSuggestionsCarryRuleTableText)
{
    const auto findings = lintPath(fixture("hot_check.cc"));
    ASSERT_EQ(findings.size(), 1U);
    const std::string out =
        formatFindings(findings, /*machine=*/false,
                       /*fix_suggestions=*/true);
    EXPECT_NE(out.find("fix: "), std::string::npos);
    EXPECT_NE(out.find("HMCSIM_DCHECK"), std::string::npos);
}

TEST(LintEngine, RuleTableListsEveryRule)
{
    const std::string table = formatRuleTable();
    for (const auto &rule : listRules()) {
        EXPECT_NE(table.find(rule.id), std::string::npos) << rule.id;
        EXPECT_FALSE(rule.summary.empty()) << rule.id;
        EXPECT_FALSE(rule.rationale.empty()) << rule.id;
        EXPECT_FALSE(rule.suggestion.empty()) << rule.id;
    }
}

/**
 * The meta-test: the live model tree lints clean. A failure message
 * includes the human-format findings, so a CI log names the offending
 * file, line, rule, and fix without re-running anything.
 */
TEST(LintTree, LiveSourceTreeIsClean)
{
    const auto findings = lintPath(HMCSIM_LINT_SRC_DIR);
    EXPECT_TRUE(findings.empty())
        << formatFindings(findings, /*machine=*/false,
                          /*fix_suggestions=*/true);
}

} // namespace
