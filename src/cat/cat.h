/**
 * @file
 * A .cat model DSL (Alglave et al., "Herding cats", TOPLAS 2014)
 * sufficient for the paper's models (Fig. 15 and 16):
 *
 *   let com = rf | co | fr
 *   let po-loc-llh = WW(po-loc) | WR(po-loc) | RW(po-loc)
 *   acyclic (po-loc-llh | com) as sc-per-loc-llh
 *   let rmo(fence) = dp | fence | rfe | co | fr
 *   ...
 *
 * Supported: let bindings (optionally parameterised), the operators
 * | & \ ; + * ? ^-1, parentheses, the event-class filters WW / WR /
 * RW / RR, and the checks acyclic / irreflexive / empty with "as"
 * names. Comments are (* ... *) or // to end of line.
 *
 * Parsing compiles the model once: every name resolves to a node,
 * every call of a parameterised let is inlined where it is called
 * (its body sees the bindings in scope there, as in herd), equal
 * subexpressions share one node, and only the base relations the
 * model names are computed. An undefined name, a wrong argument count
 * or a recursive let is a parse error with its line. Evaluating a
 * candidate then runs the nodes over fixed-width bit rows in a
 * per-thread workspace: no map, no name lookup and no heap allocation
 * per candidate (firstFailedCheck; evaluate() allocates only for the
 * report it returns).
 */

#ifndef GPULITMUS_CAT_CAT_H
#define GPULITMUS_CAT_CAT_H

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "axiom/execution.h"

namespace gpulitmus::cat {

/** Outcome of a single model check on one candidate execution. */
struct CheckResult
{
    std::string name;  ///< the "as" name (or the check expression)
    std::string kind;  ///< acyclic / irreflexive / empty
    bool passed = false;
    /** A witness cycle (event ids) when an acyclic check fails. */
    std::vector<int> cycle;
};

/** Outcome of evaluating a whole model on one candidate. */
struct ModelResult
{
    bool allowed = false; ///< all checks passed
    std::vector<CheckResult> checks;

    /** Name of the first failed check, empty when allowed. */
    std::string firstFailure() const;
};

/** Parse / evaluation diagnostics. */
struct CatError
{
    std::string message;
    int line = 0;
};

/** A parsed .cat model. */
class Model
{
  public:
    /** Parse and compile source text; nullopt + error on bad syntax
     * or an unresolvable name. */
    static std::optional<Model> parse(const std::string &source,
                                      const std::string &name = "",
                                      CatError *error = nullptr);

    /** Like parse but calls fatal() on error (for built-in models). */
    static Model parseOrDie(const std::string &source,
                            const std::string &name = "");

    /** Evaluate all checks of the model on a candidate execution. */
    ModelResult evaluate(const axiom::Execution &ex) const;

    /** Index (in checkNames() order) of the first check the candidate
     * fails, or -1 when the model allows it. Stops at that check and
     * allocates nothing: the model checker's per-candidate call. */
    int firstFailedCheck(const axiom::Execution &ex) const;

    /**
     * Evaluate a named relation in the context of an execution: the
     * first parameterless let of that name, else a primitive, else
     * the relation a check tests under that "as" name. Useful for
     * inspection and tests. nullopt if undefined or parameterised.
     */
    std::optional<axiom::Relation>
    relation(const std::string &name, const axiom::Execution &ex) const;

    const std::string &name() const { return name_; }

    /** Names of the checks in order. */
    std::vector<std::string> checkNames() const;

  private:
    struct Impl;
    std::shared_ptr<const Impl> impl_;
    std::string name_;
};

} // namespace gpulitmus::cat

#endif // GPULITMUS_CAT_CAT_H
