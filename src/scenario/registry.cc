#include "scenario/registry.h"

#include "common/log.h"
#include "common/strutil.h"
#include "scenario/catalog.h"

namespace gpulitmus::scenario {

namespace {

constexpr const char *kSpecPrefix = "scenario:";

/** Parse "1"/"0"/"true"/"false"/"yes"/"no" or any integer. */
std::optional<int64_t>
parseValue(const std::string &text)
{
    std::string t = trim(text);
    if (t == "true" || t == "yes")
        return 1;
    if (t == "false" || t == "no")
        return 0;
    return parseInt(t);
}

const ParamSpec kFenced{"fenced", 0,
                        "1 adds the (+) membar.gl fences", 0, 1};

std::vector<Scenario>
makeRegistry()
{
    std::vector<Scenario> out;

    out.push_back(
        {"cas_spinlock",
         "CUDA by Example spin lock, distilled (Fig. 9): acquired"
         " lock reads stale data",
         "Sec. 3.2.2, Fig. 2/9",
         {kFenced},
         4000,
         [](const Args &a) { return casSpinlock(a.getBool("fenced")); }});

    out.push_back(
        {"spinlock_dot_product",
         "dot-product client: CTAs accumulate under the full spin"
         " lock; a stale read loses an update",
         "Sec. 3.2.2 (CUDA by Example App 1.2)",
         {{"threads", 2, "accumulating CTAs (2..6)", 2, 6}, kFenced},
         20000,
         [](const Args &a) {
             return spinlockDotProduct(
                 static_cast<int>(a.get("threads")),
                 a.getBool("fenced"));
         }});

    out.push_back(
        {"work_stealing_deque",
         "Cederman-Tsigas deque push/steal: the thief sees the tail"
         " but reads an empty task slot",
         "Sec. 3.2.1, Fig. 6/7",
         {kFenced},
         4000,
         [](const Args &a) {
             return workStealingDeque(a.getBool("fenced"));
         }});

    out.push_back(
        {"ticket_lock",
         "ticket lock around an accumulator: a stale read in the"
         " critical section loses an update",
         "beyond the paper (Sorensen et al. spin-loop catalogue)",
         {kFenced},
         20000,
         [](const Args &a) { return ticketLock(a.getBool("fenced")); }});

    out.push_back(
        {"producer_consumer_ring",
         "one-slot ring: the consumer spins on the head, then reads"
         " an empty slot",
         "Sec. 2 (mp idiom behind a spin loop)",
         {kFenced},
         20000,
         [](const Args &a) {
             return producerConsumerRing(a.getBool("fenced"));
         }});

    out.push_back(
        {"flag_barrier",
         "two-thread flag barrier: a thread passes the barrier yet"
         " reads the other side's stale data",
         "beyond the paper (workgroup barriers)",
         {kFenced},
         20000,
         [](const Args &a) { return flagBarrier(a.getBool("fenced")); }});

    out.push_back(
        {"seqlock",
         "seqlock: the reader sees a stable even sequence but torn"
         " data",
         "beyond the paper (classic seqlock under weak memory)",
         {kFenced},
         4000,
         [](const Args &a) { return seqlock(a.getBool("fenced")); }});

    return out;
}

} // anonymous namespace

int64_t
Args::get(const std::string &name) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        fatal("scenario argument '%s' was not validated",
              name.c_str());
    return it->second;
}

std::optional<Args>
parseArgs(const std::vector<ParamSpec> &params, const std::string &text,
          std::string *error)
{
    Args args;
    for (const auto &p : params)
        args.values_[p.name] = p.defaultValue;

    if (trim(text).empty())
        return args;
    for (const auto &part : split(text, ',')) {
        auto eq = part.find('=');
        std::string key = trim(
            eq == std::string::npos ? part : part.substr(0, eq));
        // A bare key is a boolean switch: "fenced" == "fenced=1".
        std::optional<int64_t> value =
            eq == std::string::npos
                ? std::optional<int64_t>(1)
                : parseValue(part.substr(eq + 1));
        if (!args.values_.count(key)) {
            if (error) {
                *error = "unknown scenario parameter '" + key +
                         "'; valid:";
                for (const auto &p : params)
                    *error += " " + p.name + "(default " +
                              std::to_string(p.defaultValue) + ")";
                if (params.empty())
                    *error += " (none)";
            }
            return std::nullopt;
        }
        if (!value) {
            if (error)
                *error = "bad value for scenario parameter '" + key +
                         "' in '" + part + "'";
            return std::nullopt;
        }
        for (const auto &p : params) {
            if (p.name == key && (*value < p.min || *value > p.max)) {
                if (error)
                    *error = "scenario parameter '" + key + "'=" +
                             std::to_string(*value) +
                             " is out of range [" +
                             std::to_string(p.min) + ", " +
                             std::to_string(p.max) + "]";
                return std::nullopt;
            }
        }
        args.values_[key] = *value;
    }
    return args;
}

const std::vector<Scenario> &
all()
{
    static const std::vector<Scenario> registry = makeRegistry();
    return registry;
}

const Scenario *
find(const std::string &name)
{
    for (const auto &s : all()) {
        if (s.name == name)
            return &s;
    }
    return nullptr;
}

bool
isSpec(const std::string &text)
{
    return startsWith(text, kSpecPrefix);
}

std::optional<SpecTest>
buildSpec(const std::string &spec, std::string *error)
{
    if (!isSpec(spec)) {
        if (error)
            *error = "not a scenario spec (want scenario:<name>"
                     "[,k=v...]): '" +
                     spec + "'";
        return std::nullopt;
    }
    std::string body = spec.substr(std::string(kSpecPrefix).size());
    auto comma = body.find(',');
    std::string name = trim(
        comma == std::string::npos ? body : body.substr(0, comma));
    std::string argtext =
        comma == std::string::npos ? "" : body.substr(comma + 1);

    const Scenario *s = find(name);
    if (!s) {
        if (error) {
            *error = "unknown scenario '" + name + "'; registered:";
            for (const auto &r : all())
                *error += " " + r.name;
        }
        return std::nullopt;
    }
    auto args = parseArgs(s->params, argtext, error);
    if (!args)
        return std::nullopt;
    litmus::Test test = s->build(*args);
    std::string limit = test.limitError();
    if (!limit.empty()) {
        if (error)
            *error = "scenario '" + name + "': " + limit;
        return std::nullopt;
    }
    return SpecTest{std::move(test), s, s->maxMicroSteps};
}

} // namespace gpulitmus::scenario
