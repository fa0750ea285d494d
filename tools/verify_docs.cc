/**
 * @file
 * The docs-side check of the telemetry catalog.
 *
 * Usage: verify_docs <path/to/docs>
 *
 * Three checks, all of which must pass:
 *
 *  1. The key-table rows of docs/TELEMETRY.md (table rows whose
 *     first cell is a backticked key) are exactly the catalog in
 *     telemetry_keys.hh, one row per key, and each row's Kind letter
 *     (C, G, H) is the catalog's kind for that key.
 *  2. Reverse doc-rot: every dotted telemetry-key-shaped token in
 *     code spans of any docs page whose first segment is a known
 *     telemetry family must exist in the catalog. A doc referencing
 *     `jit.store.compile_hitz` (or a key that was since renamed or
 *     removed) fails the build instead of silently rotting.
 *  3. Every `keys::kName` token in code spans of any docs page names
 *     a constant of the catalog table.
 *
 * The code-side checks (runtime keys ⊆ catalog, committed snapshots
 * = catalog) live in tests/support_telemetry_test.cc. Exit status 0
 * when every check passes, 1 with a per-key report otherwise.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "support/failpoint.hh"
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

/// Failpoint names (failpoint::kNames) share the dotted notation
/// with telemetry keys but are not telemetry; docs may cite them.
/// `oracle.inject.divergence` is *both* — failpoint name and the
/// telemetry key counting its firings — so it resolves either way.
const std::set<std::string> kFailpoints(
    std::begin(aregion::failpoint::kNames),
    std::end(aregion::failpoint::kNames));

/// Tokens whose final segment is a file extension are file names
/// (`jit.cc`, `tools/check_sanitizers.sh`), not telemetry keys.
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

/// Key -> Kind letter of every TELEMETRY.md key-table row: a row
/// starting "| `key` | K |". Repeated rows are reported in `errors`.
std::map<std::string, std::string>
keyTableRows(const std::string &doc, std::vector<std::string> &errors)
{
    std::map<std::string, std::string> rows;
    std::istringstream lines(doc);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.rfind("| `", 0) != 0)
            continue;
        const size_t key_end = line.find('`', 3);
        const size_t cell_end = line.find('|', 1);
        const size_t kind_end = line.find('|', cell_end + 1);
        if (key_end == std::string::npos || kind_end == std::string::npos)
            continue;
        const std::string key = line.substr(3, key_end - 3);
        std::string kind = line.substr(cell_end + 1,
                                       kind_end - cell_end - 1);
        kind.erase(0, kind.find_first_not_of(' '));
        kind.erase(kind.find_last_not_of(' ') + 1);
        if (!rows.emplace(key, kind).second)
            errors.push_back("TELEMETRY.md: repeated key row: " + key);
    }
    return rows;
}

/// The `kName` of every `keys::kName` token in `text`.
std::vector<std::string>
constantTokens(const std::string &text)
{
    static const std::string prefix = "keys::";
    std::vector<std::string> names;
    for (size_t at = text.find(prefix + 'k'); at != std::string::npos;
         at = text.find(prefix + 'k', at + 1)) {
        const size_t start = at + prefix.size();
        size_t end = start;
        while (end < text.size() &&
               (isIdent(text[end]) ||
                (text[end] >= 'A' && text[end] <= 'Z')))
            ++end;
        if (end < text.size() && text[end] == '*')
            continue; // wildcard like keys::kJit*
        names.push_back(text.substr(start, end - start));
    }
    return names;
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

    namespace keys = aregion::telemetry::keys;
    std::set<std::string> known;
    std::set<std::string> constants;
    std::vector<std::string> errors;

    // Check 1: TELEMETRY.md has one row per catalog key, with its
    // kind, and no other key rows.
    auto rows = keyTableRows(slurp(docs / "TELEMETRY.md"), errors);
    for (const keys::KeyInfo &info : keys::kCatalog) {
        known.insert(info.key);
        constants.insert(info.constant);
        const char *kind = info.kind == keys::KeyKind::Counter ? "C"
                           : info.kind == keys::KeyKind::Gauge ? "G"
                                                               : "H";
        const auto row = rows.find(info.key);
        if (row == rows.end()) {
            errors.push_back(std::string("TELEMETRY.md: no row for "
                                         "catalog key: ") +
                             info.key);
            continue;
        }
        if (row->second != kind)
            errors.push_back("TELEMETRY.md: " + row->first +
                             " has Kind " + row->second + ", catalog " +
                             kind);
        rows.erase(row);
    }
    for (const auto &[key, kind] : rows)
        errors.push_back("TELEMETRY.md: row for a key not in the "
                         "catalog: " + key);

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
        // Check 3: cited constants exist.
        for (const std::string &name : constantTokens(code)) {
            ++scanned_tokens;
            if (constants.count(name) == 0)
                errors.push_back(page.filename().string() +
                                 ": references unknown constant: keys::" +
                                 name);
        }
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
                known.size(), scanned_tokens, pages.size());
    return 0;
}
