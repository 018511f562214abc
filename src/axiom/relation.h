/**
 * @file
 * Dense relation algebra over event ids.
 *
 * Candidate executions of litmus tests have few events (the engine
 * caps at 64), so relations are bit matrices with one uint64_t row per
 * event. The operations mirror the .cat language: union, intersection,
 * difference, sequential composition, inverse, closures, and the
 * acyclicity / irreflexivity / emptiness checks.
 */

#ifndef GPULITMUS_AXIOM_RELATION_H
#define GPULITMUS_AXIOM_RELATION_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace gpulitmus::axiom {

/** A set of events as a bit mask (executions have at most 64). */
using EventSet = uint64_t;

constexpr int kMaxEvents = 64;

class Relation
{
  public:
    Relation() : n_(0) {}
    explicit Relation(int n);

    static Relation identity(int n);
    static Relation universal(int n);

    int size() const { return n_; }

    /** The size() rows as masks, contiguous: bit j of row i is set
     * iff (i, j) is in the relation. The compiled .cat evaluator
     * reads them in place. */
    const uint64_t *rows() const { return rows_.data(); }
    /** A relation over n events from n row masks. */
    static Relation fromRows(int n, const uint64_t *rows);

    bool get(int i, int j) const;
    void set(int i, int j, bool v = true);

    Relation operator|(const Relation &other) const;
    Relation operator&(const Relation &other) const;
    /** Set difference (the .cat "\" operator). */
    Relation minus(const Relation &other) const;
    /** Sequential composition (the .cat ";" operator). */
    Relation seq(const Relation &other) const;
    Relation inverse() const;
    /** Transitive closure (the .cat "+" operator). */
    Relation plus() const;
    /** Reflexive-transitive closure (the .cat "*" operator). */
    Relation star() const;
    /** Reflexive closure (the .cat "?" operator). */
    Relation maybe() const;

    /** Keep only pairs with domain in a and range in b. */
    Relation restrict(EventSet a, EventSet b) const;

    bool empty() const;
    bool irreflexive() const;
    /** True if the relation has no cycle (reflexive pairs count). */
    bool acyclic() const;

    /** One witness cycle (event ids), empty if acyclic. */
    std::vector<int> findCycle() const;

    uint64_t pairCount() const;
    std::vector<std::pair<int, int>> pairs() const;

    bool operator==(const Relation &other) const = default;

    std::string str() const;

  private:
    void checkCompatible(const Relation &other) const;

    int n_;
    std::vector<uint64_t> rows_;
};

} // namespace gpulitmus::axiom

#endif // GPULITMUS_AXIOM_RELATION_H
