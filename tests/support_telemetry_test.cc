/**
 * @file
 * Telemetry registry tests: round-trip of counters/gauges/histograms,
 * byte-stable JSON export, agreement between the machine-published
 * `machine.abort.*` counters and RegionRuntime::abortsByCause on a
 * known aborting program, and the catalog checks that live outside
 * the docs (registered keys ⊆ catalog; the committed BENCH_*.json
 * snapshots carry exactly the catalog). The docs side is the
 * `verify_docs` ctest.
 */

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "core/compiler.hh"
#include "hw/codegen.hh"
#include "hw/machine.hh"
#include "programs.hh"
#include "runtime/jit.hh"
#include "support/telemetry.hh"
#include "support/telemetry_keys.hh"
#include "vm/interpreter.hh"

namespace {

using namespace aregion;
using namespace aregion::test;
namespace core = aregion::core;
namespace hw = aregion::hw;
namespace rt = aregion::runtime;
namespace telemetry = aregion::telemetry;
namespace keys = aregion::telemetry::keys;
namespace fs = std::filesystem;

/** A parsed JSON value, just enough of the grammar for telemetry
 *  exports: objects keep their members in file order. */
struct Json
{
    std::string scalar;             ///< number/literal text, or string
    std::vector<std::string> keys;  ///< object member names
    std::vector<Json> values;       ///< object members or array items

    const Json *
    get(const std::string &key) const
    {
        const auto it = std::find(keys.begin(), keys.end(), key);
        return it == keys.end() ? nullptr : &values[it - keys.begin()];
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : s(text) {}

    Json
    parseDocument()
    {
        Json v = value();
        skipSpace();
        if (pos != s.size())
            fail("trailing text");
        return v;
    }

  private:
    Json
    value()
    {
        skipSpace();
        Json v;
        if (pos >= s.size())
            fail("unexpected end");
        if (s[pos] == '{') {
            members(v, '}');
        } else if (s[pos] == '[') {
            members(v, ']');
        } else if (s[pos] == '"') {
            v.scalar = string();
        } else {
            const size_t start = pos;
            while (pos < s.size() && s[pos] != ',' && s[pos] != '}' &&
                   s[pos] != ']' && !space())
                ++pos;
            v.scalar = s.substr(start, pos - start);
            if (v.scalar.empty())
                fail("empty value");
        }
        return v;
    }

    /** Object or array body after its opening bracket. */
    void
    members(Json &v, char close)
    {
        ++pos;
        skipSpace();
        if (pos < s.size() && s[pos] == close) {
            ++pos;
            return;
        }
        while (true) {
            if (close == '}') {
                skipSpace();
                v.keys.push_back(string());
                skipSpace();
                expect(':');
            }
            v.values.push_back(value());
            skipSpace();
            if (pos >= s.size() || s[pos] != ',')
                break;
            ++pos;
        }
        expect(close);
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        while (pos < s.size() && s[pos] != '"') {
            if (s[pos] == '\\')
                ++pos;  // keys and labels need no unescaping
            if (pos < s.size())
                out += s[pos++];
        }
        expect('"');
        return out;
    }

    void
    expect(char c)
    {
        if (pos >= s.size() || s[pos] != c)
            fail(std::string("expected '") + c + "'");
        ++pos;
    }

    void
    skipSpace()
    {
        while (pos < s.size() && space())
            ++pos;
    }

    bool
    space() const
    {
        return std::isspace(static_cast<unsigned char>(s[pos])) != 0;
    }

    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw std::runtime_error("JSON parse error at byte " +
                                 std::to_string(pos) + ": " + what);
    }

    const std::string &s;
    size_t pos = 0;
};

std::string
slurp(const fs::path &path)
{
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

const std::vector<std::string> kTelemetrySections = {
    "counters", "gauges", "histograms"};

TEST(Registry, CounterGaugeHistogramRoundTrip)
{
    telemetry::Registry reg;
    auto &c = reg.counter("a.count");
    EXPECT_EQ(c, 0u);
    c += 3;
    reg.add("a.count", 2);
    EXPECT_EQ(reg.counterValue("a.count"), 5u);
    EXPECT_EQ(reg.counterValue("never.registered"), 0u);

    reg.set("a.gauge", 1.25);
    reg.set("a.gauge", 2.5);
    EXPECT_DOUBLE_EQ(reg.gaugeValue("a.gauge"), 2.5);

    Histogram &h = reg.histogram("a.hist");
    h.add(10);
    h.add(20, 3);
    EXPECT_EQ(reg.histogram("a.hist").count(), 4u);

    EXPECT_TRUE(reg.has("a.count"));
    EXPECT_TRUE(reg.has("a.gauge"));
    EXPECT_TRUE(reg.has("a.hist"));
    EXPECT_FALSE(reg.has("a.missing"));
    EXPECT_EQ(reg.keys().size(), 3u);
}

TEST(Registry, ResetZeroesInPlaceAndKeepsReferences)
{
    telemetry::Registry reg;
    auto &c = reg.counter("x");
    Histogram &h = reg.histogram("y");
    c = 42;
    h.add(7);
    reg.reset();
    // Values are zeroed but the slots (and cached references) stay.
    EXPECT_EQ(c, 0u);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_TRUE(reg.has("x"));
    EXPECT_TRUE(reg.has("y"));
    c = 9;                                  // ref still writes through
    EXPECT_EQ(reg.counterValue("x"), 9u);
}

TEST(Registry, JsonExportIsByteStable)
{
    telemetry::Registry reg;
    // Register deliberately out of order; std::map iteration sorts.
    reg.add("z.last", 1);
    reg.add("a.first", 2);
    reg.set("m.gauge", 0.5);
    reg.histogram("h.hist").add(3);

    const std::string once = reg.toJson();
    const std::string twice = reg.toJson();
    EXPECT_EQ(once, twice);
    EXPECT_LT(once.find("\"a.first\""), once.find("\"z.last\""));
    // The export holds the three sections and nothing else.
    const Json doc = JsonParser(once).parseDocument();
    EXPECT_EQ(doc.keys, kTelemetrySections);
    EXPECT_EQ(doc.get("counters")->keys,
              (std::vector<std::string>{"a.first", "z.last"}));
}

TEST(Registry, EmptyHistogramExportsNullNotZero)
{
    telemetry::Registry reg;
    reg.histogram("h.empty");
    reg.histogram("h.full").add(4);

    // A registered-but-never-fed histogram must not masquerade as a
    // series whose minimum is 0.0; the JSON carries nulls and the
    // table says empty.
    const std::string json = reg.toJson();
    EXPECT_NE(json.find("\"h.empty\": {\"count\": 0, "
                        "\"mean\": null, \"min\": null, "
                        "\"max\": null, \"p95\": null}"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"h.full\": {\"count\": 1"),
              std::string::npos);
    EXPECT_EQ(json.find("\"h.full\": {\"count\": 1, "
                        "\"mean\": null"),
              std::string::npos);

    const std::string table = reg.toTable();
    EXPECT_NE(table.find("n=0 (empty)"), std::string::npos) << table;
}

/** The machine-published abort counters must agree with the per-
 *  region cause registers on a program known to abort (interrupts
 *  every 1,000 cycles force Interrupt aborts; Section 3.2). */
TEST(MachineTelemetry, AbortCountersMatchRegionRuntime)
{
    auto &reg = telemetry::Registry::global();
    reg.reset();

    const Program prog = addElementProgram(2000, 256);
    Profile profile(prog);
    {
        Interpreter interp(prog, &profile);
        interp.run();
    }
    core::Compiled compiled = core::compileProgram(
        prog, profile, core::CompilerConfig::atomic());
    vm::Heap layout_heap(prog, 1 << 20);
    const hw::MachineProgram mp = hw::lowerModule(
        compiled.mod, hw::LayoutInfo::fromHeap(layout_heap));

    hw::HwConfig config;
    config.interruptPeriod = 1000;
    hw::Machine machine(mp, config);
    const auto res = machine.run();
    ASSERT_TRUE(res.completed);

    uint64_t by_cause[6] = {0, 0, 0, 0, 0, 0};
    uint64_t total = 0;
    for (const auto &[key, stats] : res.regions) {
        for (int c = 0; c < 6; ++c) {
            by_cause[c] += stats.abortsByCause[c];
            total += stats.abortsByCause[c];
        }
    }
    ASSERT_GT(by_cause[static_cast<int>(hw::AbortCause::Interrupt)],
              0u)
        << "expected interrupt aborts with a 1,000-cycle period";

    for (int c = 0; c < 6; ++c) {
        EXPECT_EQ(reg.counterValue(keys::kMachineAbortByCause[c]),
                  by_cause[c])
            << keys::kMachineAbortByCause[c];
        // Even never-fired causes are registered (schema at zero).
        EXPECT_TRUE(reg.has(keys::kMachineAbortByCause[c]));
    }
    EXPECT_EQ(reg.counterValue(keys::kMachineAbortTotal), total);
    EXPECT_EQ(reg.counterValue(keys::kMachineRegionCommits),
              res.regionCommits);
    EXPECT_EQ(reg.counterValue(keys::kMachineUopsRetired),
              res.retiredUops);
}

/** Regression: compileProgram itself owns the jit.compile_us
 *  aggregate. Harnesses that call compileProgram directly (bypassing
 *  runExperiment) used to export jit.compile_us=0 next to non-zero
 *  per-pass timers, when the aggregate lived in a runtime-layer
 *  wrapper. The aggregate must cover at least the sum of every
 *  per-pass timer it breaks down into. */
TEST(CompileTelemetry, AggregateCoversPerPassTimers)
{
    auto &reg = telemetry::Registry::global();
    reg.reset();

    const Program prog = addElementProgram(2000, 256);
    Profile profile(prog);
    {
        Interpreter interp(prog, &profile);
        interp.run();
    }
    core::Compiled compiled = core::compileProgram(
        prog, profile, core::CompilerConfig::atomic());
    ASSERT_GT(compiled.stats.totalInstrs, 0);

    const uint64_t total = reg.counterValue(keys::kJitCompileUs);
    uint64_t pass_sum = 0;
    for (const char *key :
         {keys::kJitPassSsaUs, keys::kJitPassSimplifyCfgUs,
          keys::kJitPassSccpUs, keys::kJitPassGvnUs,
          keys::kJitPassDceUs, keys::kJitPassInlineUs,
          keys::kJitPassUnrollUs}) {
        pass_sum += reg.counterValue(key);
    }
    EXPECT_GT(total, 0u) << "direct compileProgram calls must feed "
                            "the jit.compile_us aggregate";
    EXPECT_GE(total, pass_sum)
        << "aggregate compile time cannot be less than the sum of "
           "the per-pass timers it decomposes into";
}

/** After a full pipeline run every registered key must be in the
 *  catalog. That the catalog is documented is the `verify_docs`
 *  ctest, which reports missing or extra TELEMETRY.md rows by name. */
TEST(Catalog, RuntimeKeysAreCataloguedAndDocumented)
{
    auto &reg = telemetry::Registry::global();
    reg.reset();

    const Program prog = addElementProgram(2000, 256);
    rt::ExperimentConfig config;
    config.compiler = core::CompilerConfig::atomic();
    const auto metrics = rt::runExperiment(prog, prog, config);
    ASSERT_TRUE(metrics.completed);

    std::set<std::string> catalogued;
    for (const keys::KeyInfo &info : keys::kCatalog)
        catalogued.insert(info.key);
    for (const std::string &key : reg.keys()) {
        EXPECT_TRUE(catalogued.count(key))
            << "runtime key not in telemetry_keys.hh catalog: "
            << key;
    }
    // The acceptance-critical keys must actually register.
    EXPECT_TRUE(reg.has(keys::kRegionFormed));
    EXPECT_TRUE(reg.has(keys::kJitPassGvnUs));
    EXPECT_TRUE(reg.has(keys::kTimingCycles));
}

/** Every committed BENCH_*.json snapshot must match the current
 *  catalog: its telemetry keys (less the bench.* gauges each binary
 *  adds) are exactly the catalog, each in its kind's section, with
 *  no other telemetry field; and no compile/profile aggregate
 *  contradicts its components (the jit.compile_us=0 next to
 *  non-zero jit.pass.*_us shape, among others). Regenerate
 *  BENCH_contention.json with the `bench-contention` build target. */
TEST(Catalog, CommittedSnapshotsMatchCatalog)
{
    std::map<std::string, keys::KeyKind> kinds;
    for (const keys::KeyInfo &info : keys::kCatalog)
        kinds[info.key] = info.kind;
    const std::map<std::string, keys::KeyKind> section_kind = {
        {"counters", keys::KeyKind::Counter},
        {"gauges", keys::KeyKind::Gauge},
        {"histograms", keys::KeyKind::Hist},
    };

    std::vector<fs::path> snapshots;
    for (const auto &entry : fs::directory_iterator(AREGION_SOURCE_DIR)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("BENCH_", 0) == 0 &&
            entry.path().extension() == ".json")
            snapshots.push_back(entry.path());
    }
    std::sort(snapshots.begin(), snapshots.end());
    ASSERT_FALSE(snapshots.empty()) << "no BENCH_*.json at the root";

    for (const fs::path &path : snapshots) {
        SCOPED_TRACE(path.filename().string());
        const Json doc = JsonParser(slurp(path)).parseDocument();
        const Json *telemetry = doc.get("telemetry");
        ASSERT_NE(telemetry, nullptr);
        EXPECT_EQ(telemetry->keys, kTelemetrySections)
            << "telemetry holds exactly counters, gauges, histograms";

        std::set<std::string> present;
        std::map<std::string, uint64_t> counters;
        for (const auto &[section, kind] : section_kind) {
            const Json *values = telemetry->get(section);
            if (values == nullptr)
                continue;
            for (size_t i = 0; i < values->keys.size(); ++i) {
                const std::string &key = values->keys[i];
                if (section == "gauges" && key.rfind("bench.", 0) == 0)
                    continue;
                present.insert(key);
                if (kind == keys::KeyKind::Counter)
                    counters[key] = std::strtoull(
                        values->values[i].scalar.c_str(), nullptr, 10);
                const auto it = kinds.find(key);
                if (it == kinds.end())
                    ADD_FAILURE() << "key not in catalog: " << key;
                else if (it->second != kind)
                    ADD_FAILURE() << key << " sits in " << section;
            }
        }
        for (const auto &[key, kind] : kinds) {
            EXPECT_TRUE(present.count(key))
                << "catalog key missing: " << key;
        }

        uint64_t pass_sum = 0;
        size_t pass_nonzero = 0;
        for (const auto &[key, value] : counters) {
            if (key.rfind("jit.pass.", 0) == 0) {
                pass_sum += value;
                pass_nonzero += value > 0;
            }
        }
        const uint64_t compile_us = counters[keys::kJitCompileUs];
        EXPECT_FALSE(pass_nonzero > 0 && compile_us == 0)
            << "jit.compile_us is 0 while " << pass_nonzero
            << " jit.pass.* timers are non-zero";
        EXPECT_GE(compile_us, pass_sum)
            << "jit.compile_us below the sum of jit.pass.*_us";
        EXPECT_FALSE(counters[keys::kProfileBytecodes] > 0 &&
                     counters[keys::kProfileInvocations] == 0)
            << "profile.invocations is 0 while profile.bytecodes is "
               "non-zero";
    }
}

} // namespace
