/**
 * @file
 * Docs-coverage checker for the telemetry catalog.
 *
 * Usage: verify_docs <path/to/docs>
 *
 * Two checks, both of which must pass:
 *
 *  1. docs/TELEMETRY.md contains every key in
 *     telemetry::keys::catalog() verbatim (the reference page covers
 *     the whole catalog).
 *  2. Reverse doc-rot: every dotted telemetry-key-shaped token in
 *     code spans of any docs page whose first segment is a known
 *     telemetry family must exist in the catalog. A doc referencing
 *     `jit.store.compile_hitz` (or a key that was since renamed or
 *     removed) fails the build instead of silently rotting.
 *
 * This is one side of the enforcement triangle described in
 * telemetry_keys.hh — the other side (runtime keys ⊆ catalog) lives
 * in tests/support_telemetry_test.cc. Exit status 0 on full
 * coverage, 1 with a per-key report otherwise.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "support/telemetry_keys.hh"

namespace fs = std::filesystem;

namespace {

/// Families whose dotted tokens in docs must resolve to catalog
/// keys. Tokens under other prefixes (e.g. the dynamic `bench.*`
/// gauges or plain file names) are ignored. `service` has no keys
/// left; it stays listed so a page still citing one of the removed
/// compile-service keys fails.
const std::set<std::string> kFamilies = {
    "machine", "driver",  "timing", "jit",        "runtime",
    "region",  "profile", "fuzz",   "contention", "service",
    "oracle",
};

/// Failpoint names (support/failpoint.hh) share the dotted notation
/// with telemetry keys but are not telemetry; docs may cite them.
/// `oracle.inject.divergence` and `machine.inject.leak` are *both* —
/// failpoint name and the telemetry key counting its firings — so
/// they resolve either way.
const std::set<std::string> kFailpoints = {
    "machine.interrupt", "machine.capacity",     "machine.assert",
    "machine.conflict",  "machine.commit_stall", "timing.mispredict",
    "oracle.inject.divergence", "machine.inject.leak",
};

/// Tokens whose final segment is a file extension are file names
/// (`jit.cc`, `tools/perf_snapshot.sh`), not telemetry keys.
const std::set<std::string> kFileExtensions = {
    "cc", "hh", "md", "sh", "json", "txt", "csv", "py", "cmake", "html",
};

std::string
slurp(const fs::path &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "verify_docs: cannot open %s\n",
                     path.string().c_str());
        std::exit(2);
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

bool
isIdent(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
           c == '_';
}

/// Extract the concatenated code spans of a markdown document:
/// inline `...` spans plus fenced ``` blocks. Non-code prose is
/// dropped so sentence punctuation never parses as a dotted token.
std::string
codeSpans(const std::string &doc)
{
    std::string out;
    bool fenced = false;
    bool inline_code = false;
    for (size_t i = 0; i < doc.size(); ++i) {
        if (doc.compare(i, 3, "```") == 0) {
            fenced = !fenced;
            inline_code = false;
            i += 2;
            out += ' ';
            continue;
        }
        if (!fenced && doc[i] == '`') {
            inline_code = !inline_code;
            out += ' ';
            continue;
        }
        out += (fenced || inline_code) ? doc[i] : ' ';
    }
    return out;
}

/// Dotted lowercase tokens (>= 2 segments) found in `text`. A token
/// must not be preceded by an identifier character, '.', '/', ':',
/// or '-' (paths, namespaces, flags), must not be a call
/// (`machine.run()`), and a trailing `.*` marks a family wildcard
/// rather than a concrete key.
std::vector<std::string>
dottedTokens(const std::string &text)
{
    std::vector<std::string> tokens;
    size_t i = 0;
    const size_t n = text.size();
    while (i < n) {
        char c = text[i];
        if (!(c >= 'a' && c <= 'z')) {
            ++i;
            continue;
        }
        if (i > 0) {
            char p = text[i - 1];
            if (isIdent(p) || (p >= 'A' && p <= 'Z') || p == '.' ||
                p == '/' || p == ':' || p == '-') {
                while (i < n && (isIdent(text[i]) ||
                                 (text[i] >= 'A' && text[i] <= 'Z')))
                    ++i;
                continue;
            }
        }
        size_t start = i;
        size_t segments = 1;
        while (i < n && isIdent(text[i]))
            ++i;
        while (i + 1 < n && text[i] == '.' && text[i + 1] >= 'a' &&
               text[i + 1] <= 'z') {
            ++i;
            ++segments;
            while (i < n && isIdent(text[i]))
                ++i;
        }
        if (segments < 2)
            continue;
        if (i < n && text[i] == '(')
            continue; // method call, not a key
        if (i + 1 < n && text[i] == '.' && text[i + 1] == '*')
            continue; // family wildcard like jit.pass.*
        tokens.push_back(text.substr(start, i - start));
    }
    return tokens;
}

bool
isFileName(const std::string &token)
{
    size_t dot = token.rfind('.');
    return dot != std::string::npos &&
           kFileExtensions.count(token.substr(dot + 1)) > 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: %s <docs-dir>\n", argv[0]);
        return 2;
    }
    const fs::path docs(argv[1]);
    if (!fs::is_directory(docs)) {
        std::fprintf(stderr, "verify_docs: %s is not a directory\n",
                     argv[1]);
        return 2;
    }

    const auto &catalog = aregion::telemetry::keys::catalog();
    const std::set<std::string> known(catalog.begin(), catalog.end());
    std::vector<std::string> errors;

    // Check 1: the telemetry reference covers the whole catalog.
    const std::string telemetry = slurp(docs / "TELEMETRY.md");
    for (const std::string &key : catalog) {
        if (telemetry.find(key) == std::string::npos)
            errors.push_back("TELEMETRY.md: catalog key undocumented: " +
                             key);
    }

    // Check 2: reverse doc-rot — dotted family tokens in any doc's
    // code spans must name real catalog keys (or failpoints).
    std::vector<fs::path> pages;
    for (const auto &entry : fs::directory_iterator(docs)) {
        if (entry.path().extension() == ".md")
            pages.push_back(entry.path());
    }
    std::sort(pages.begin(), pages.end());
    size_t scanned_tokens = 0;
    for (const fs::path &page : pages) {
        const std::string code = codeSpans(slurp(page));
        for (const std::string &token : dottedTokens(code)) {
            if (isFileName(token))
                continue;
            const std::string family =
                token.substr(0, token.find('.'));
            if (kFamilies.count(family) == 0)
                continue;
            if (kFailpoints.count(token) > 0)
                continue;
            ++scanned_tokens;
            if (known.count(token) == 0)
                errors.push_back(page.filename().string() +
                                 ": references unknown telemetry "
                                 "key: " +
                                 token);
        }
    }

    if (!errors.empty()) {
        std::fprintf(stderr, "verify_docs: %zu problem(s):\n",
                     errors.size());
        for (const std::string &err : errors)
            std::fprintf(stderr, "  %s\n", err.c_str());
        return 1;
    }
    std::printf("verify_docs: %zu catalog keys documented, %zu doc "
                "references checked, %zu pages scanned\n",
                catalog.size(), scanned_tokens, pages.size());
    return 0;
}
