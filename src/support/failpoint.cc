#include "support/failpoint.hh"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string_view>

#include "support/fnv.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "support/whole_number.hh"

namespace aregion::failpoint {

namespace {

// FNV-1a, so a failpoint's stream depends on its name: two points
// armed with the same spec and seed still fire at different hits.
uint64_t
hashName(const std::string &name)
{
    uint64_t h = kFnvOffsetBasis;
    for (const char c : name)
        h = fnvByte(h, static_cast<uint8_t>(c));
    return h;
}

} // namespace

bool
parseSpec(const std::string &text, Spec *out, std::string *err)
{
    auto fail = [&](const std::string &msg) {
        if (err)
            *err = "failpoint spec '" + text + "': " + msg;
        return false;
    };

    std::string body = text;
    Spec spec;
    if (const size_t eq = body.find('='); eq != std::string::npos) {
        const std::string payload = body.substr(eq + 1);
        body.resize(eq);
        if (payload.empty())
            return fail("empty '=' payload");
        const char *last = payload.data() + payload.size();
        const auto [end, ec] =
            std::from_chars(payload.data(), last, spec.value);
        if (ec != std::errc{} || end != last)
            return fail("bad integer payload '" + payload + "'");
    }

    if (body.rfind("once", 0) == 0) {
        spec.trigger = Trigger::OneShot;
        const std::string arg = body.substr(4);
        // Bare "once" means "the first hit".
        const std::optional<uint64_t> n =
            arg.empty() ? 1 : wholeNumber(arg);
        if (!n || *n == 0)
            return fail("bad hit index '" + arg + "'");
        spec.n = *n;
    } else if (body.rfind("n", 0) == 0) {
        spec.trigger = Trigger::EveryNth;
        const std::optional<uint64_t> n = wholeNumber(body.substr(1));
        if (!n || *n == 0)
            return fail("bad period '" + body.substr(1) + "'");
        spec.n = *n;
    } else if (body.rfind("p", 0) == 0) {
        spec.trigger = Trigger::Probability;
        const std::string arg = body.substr(1);
        const char *last = arg.data() + arg.size();
        const auto [end, ec] =
            std::from_chars(arg.data(), last, spec.probability);
        // Negated so NaN is rejected too.
        if (ec != std::errc{} || end != last ||
            !(spec.probability >= 0.0 && spec.probability <= 1.0)) {
            return fail("bad probability '" + arg + "'");
        }
    } else {
        return fail("unknown trigger (want p<float>, n<N>, once<N>)");
    }
    *out = spec;
    return true;
}

bool
Failpoint::firesAt(uint64_t hit) const
{
    switch (pointSpec.trigger) {
      case Trigger::Probability:
        if (pointSpec.probability >= 1.0)
            return true;
        if (pointSpec.probability <= 0.0)
            return false;
        return static_cast<double>(splitmix64(derivedSeed ^ hit) >> 11) *
                   (1.0 / 9007199254740992.0) <
               pointSpec.probability;
      case Trigger::EveryNth:
        return hit % pointSpec.n == 0;
      case Trigger::OneShot:
        return hit == pointSpec.n;
    }
    return false;
}

Registry::Registry()
{
    if (const char *env = std::getenv("AREGION_FAILPOINT_SEED")) {
        if (const std::optional<uint64_t> seed = wholeNumber(env))
            baseSeed = *seed;
        else
            AREGION_WARN("ignoring AREGION_FAILPOINT_SEED '", env,
                         "': not a whole number");
    }
    if (const char *env = std::getenv("AREGION_FAILPOINTS")) {
        std::string err;
        if (configure(env, &err) < 0)
            AREGION_WARN("AREGION_FAILPOINTS: ", err);
    }
}

Registry &
Registry::global()
{
    static Registry instance;
    return instance;
}

uint64_t
Registry::deriveSeed(const std::string &name) const
{
    return splitmix64(baseSeed ^ hashName(name));
}

void
Registry::arm(const std::string &name, const Spec &spec)
{
    std::lock_guard<std::mutex> lock(mu);
    auto &slot = points[name];
    if (!slot) {
        slot = std::make_unique<Failpoint>();
        slot->pointName = name;
    }
    slot->pointSpec = spec;
    slot->derivedSeed = deriveSeed(name);
    armedCount.store(points.size(), std::memory_order_relaxed);
}

int
Registry::configure(const std::string &list, std::string *err)
{
    // Malformed entries must not mask their neighbours: every valid
    // entry is armed, every bad one reported, so a typo in a long
    // AREGION_FAILPOINTS list degrades loudly instead of silently
    // dropping the rest of the injection plan.
    int armed = 0;
    std::string errors;
    auto complain = [&](const std::string &msg) {
        if (!errors.empty())
            errors += "; ";
        errors += msg;
    };
    size_t pos = 0;
    while (pos < list.size()) {
        size_t comma = list.find(',', pos);
        if (comma == std::string::npos)
            comma = list.size();
        const std::string entry = list.substr(pos, comma - pos);
        pos = comma + 1;
        if (entry.empty())
            continue;
        const size_t colon = entry.find(':');
        if (colon == std::string::npos || colon == 0) {
            complain("entry '" + entry + "' is not <name>:<spec>");
            continue;
        }
        const std::string name = entry.substr(0, colon);
        if (std::find(std::begin(kNames), std::end(kNames), name) ==
            std::end(kNames)) {
            complain("entry '" + entry + "' names no failpoint");
            continue;
        }
        Spec spec;
        std::string spec_err;
        if (!parseSpec(entry.substr(colon + 1), &spec, &spec_err)) {
            complain(spec_err);
            continue;
        }
        arm(name, spec);
        ++armed;
    }
    if (!errors.empty()) {
        if (err)
            *err = errors;
        return -1;
    }
    return armed;
}

void
Registry::disarm(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu);
    points.erase(name);
    armedCount.store(points.size(), std::memory_order_relaxed);
}

void
Registry::disarmAll()
{
    std::lock_guard<std::mutex> lock(mu);
    points.clear();
    armedCount.store(0, std::memory_order_relaxed);
}

void
Registry::setSeed(uint64_t seed)
{
    std::lock_guard<std::mutex> lock(mu);
    baseSeed = seed;
    for (auto &[name, point] : points)
        point->derivedSeed = deriveSeed(name);
}

uint64_t
Registry::seed() const
{
    std::lock_guard<std::mutex> lock(mu);
    return baseSeed;
}

Failpoint *
Registry::find(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu);
    const auto it = points.find(name);
    return it == points.end() ? nullptr : it->second.get();
}

std::vector<std::string>
Registry::armedNames() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::vector<std::string> names;
    names.reserve(points.size());
    for (const auto &[name, point] : points)
        names.push_back(name);
    return names;
}

std::string
Registry::describe() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::ostringstream out;
    bool first = true;
    for (const auto &[name, point] : points) {
        if (!first)
            out << ',';
        first = false;
        out << name << ':';
        const Spec &spec = point->pointSpec;
        switch (spec.trigger) {
          case Trigger::Probability: {
            // Shortest form that parses back to the same double.
            char buf[32];
            const auto res =
                std::to_chars(buf, buf + sizeof buf, spec.probability);
            out << 'p' << std::string_view(buf, res.ptr - buf);
            break;
          }
          case Trigger::EveryNth:
            out << 'n' << spec.n;
            break;
          case Trigger::OneShot:
            out << "once" << spec.n;
            break;
        }
        if (spec.value != 0)
            out << '=' << spec.value;
    }
    return out.str();
}

} // namespace aregion::failpoint
