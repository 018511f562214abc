/**
 * @file
 * The scenario registry: named, parameterised application workloads
 * (the litmus::Tests of scenario/catalog.h) that every surface API
 * accepts next to .litmus files.
 *
 * A scenario is addressed by a *spec* string:
 *
 *   scenario:<name>[,key=value...]
 *
 * e.g. `scenario:spinlock_dot_product,threads=3,fenced=1`. The CLI
 * (`run/sweep/validate/explore/list`) and the request planner
 * (`serve::planJobs`, which the daemon, the benches and the examples
 * plan with) resolve specs through buildSpec(), so one
 * registration makes a workload available to the sampled, exhaustive
 * and axiomatic backends alike.
 *
 * Each registry scenario states its bug as the test's *forbidden*
 * final condition (`~exists`): the sampler's observed count is then
 * "wrong results per 100k", and an exhaustive (`mc`) exploration
 * yields an exact verdict — reachable-forbidden (the bug, for
 * certain) or unreachable (the fix, proven). See docs/VERDICTS.md.
 */

#ifndef GPULITMUS_SCENARIO_REGISTRY_H
#define GPULITMUS_SCENARIO_REGISTRY_H

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "litmus/test.h"

namespace gpulitmus::scenario {

/** One declared parameter of a registry scenario. */
struct ParamSpec
{
    std::string name;
    int64_t defaultValue = 0;
    std::string help;
    /** Inclusive accepted range; out-of-range spec values are a
     * recoverable buildSpec error, not a fatal in the builder. */
    int64_t min = INT64_MIN;
    int64_t max = INT64_MAX;
};

/** Key=value arguments of one spec, validated against the params. */
class Args
{
  public:
    /** Value of `name`, or the registered default. */
    int64_t get(const std::string &name) const;
    bool getBool(const std::string &name) const
    {
        return get(name) != 0;
    }

  private:
    friend std::optional<Args>
    parseArgs(const std::vector<ParamSpec> &params,
              const std::string &text, std::string *error);
    std::map<std::string, int64_t> values_;
};

/** One registered scenario. */
struct Scenario
{
    std::string name;     ///< registry id, e.g. "spinlock_dot_product"
    std::string summary;  ///< one line, shown by `gpulitmus list`
    std::string paperRef; ///< paper cross-reference, e.g. "Sec. 3.2.2"
    std::vector<ParamSpec> params;
    /** Recommended per-iteration micro-step cap: scenarios with spin
     * loops need more headroom than the straight-line default. */
    int maxMicroSteps = 4000;
    std::function<litmus::Test(const Args &)> build;
};

/** All registered scenarios, in presentation order. */
const std::vector<Scenario> &all();

/** Look up a scenario by registry id; nullptr if absent. */
const Scenario *find(const std::string &name);

/** A spec resolved to a runnable test. */
struct SpecTest
{
    litmus::Test test;
    const Scenario *scenario = nullptr;
    /** The scenario's recommended machine cap (spin-loop headroom);
     * callers take max(their default, this). */
    int maxMicroSteps = 4000;
};

/** True when `text` is a scenario spec ("scenario:..."), as opposed
 * to a .litmus file path. */
bool isSpec(const std::string &text);

/**
 * Resolve "scenario:<name>[,k=v...]" to a built test. Returns
 * nullopt and sets `error` (listing the registry on an unknown name,
 * the declared params on an unknown key) on a malformed spec.
 */
std::optional<SpecTest> buildSpec(const std::string &spec,
                                  std::string *error = nullptr);

} // namespace gpulitmus::scenario

#endif // GPULITMUS_SCENARIO_REGISTRY_H
