/**
 * @file
 * The explorer's state memo: one flat, segmented open-addressing
 * table from 128-bit state digests to compact visit records.
 *
 * The sequential explorer probes the memo at every fresh scheduling
 * point and erases grey entries on every cycle it closes, so the
 * table sits on the hot path of every replay. A node-based hash map
 * pays a heap node per state, a pointer chase per probe and a full
 * rehash of every state when it grows; this table pays none of those:
 *
 * - **Segments.** The table is split into kSegments independent
 *   segments, chosen by the top bits of Digest128::hi. Each segment
 *   is an open-addressing array probed linearly from Digest128::lo.
 *   A segment grows (doubles) on its own once its load would pass
 *   3/4, so the rehash transient is a single segment — about 1/64 of
 *   the table — instead of the whole table. Segments allocate on
 *   their first insert: an exploration that memoises nothing pays
 *   for an array of empty vectors and no more.
 * - **Backward-shift deletion.** erase() pulls later members of the
 *   probe run back into the hole, so the table never holds
 *   tombstones and probe runs stay as short as the load allows.
 * - **32-byte slots.** A slot is the key plus a VisitEntry: the
 *   fetch-counter signature and one 32-bit word that encodes grey
 *   depth, black-with-finals-offset, or "empty slot". A black state's
 *   reachable finals live in the walker's append-only arena, not in
 *   the slot.
 *
 * Pointers returned by find()/emplace() are valid until the next
 * emplace() or erase() on the table.
 */

#ifndef GPULITMUS_MC_MEMO_H
#define GPULITMUS_MC_MEMO_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/log.h"

namespace gpulitmus::mc {

/**
 * What the explorer remembers about one visited scheduling state.
 * Grey: the state's subtree is still open on the DFS spine at
 * greyDepth(). Black: the subtree closed; its reachable finals are
 * the span at finalsAt() in the walker's append-only arena.
 */
struct VisitEntry
{
    static constexpr uint32_t kBlack = 1u << 31;
    /** A free memo slot; never the word of a live entry. */
    static constexpr uint32_t kEmpty = UINT32_MAX;

    /** Fetch-counter digest at the visit. The state encoding excludes
     * the counters (they only feed the runaway-loop guard), so a
     * revisit whose digest differs is equal in behaviour *except* for
     * its distance to that guard: the cut still terminates the
     * search, but the result demotes from exact to bounded. */
    uint64_t executedSig = 0;
    /** Grey depth (< kBlack), or kBlack | arena offset, or kEmpty. */
    uint32_t word = kEmpty;

    static VisitEntry
    grey(size_t depth, uint64_t sig)
    {
        if (depth >= kBlack)
            panic("mc trace depth %zu exceeds the memo's 31-bit field",
                  depth);
        return {sig, static_cast<uint32_t>(depth)};
    }

    bool black() const { return (word & kBlack) != 0; }
    size_t greyDepth() const { return word; }
    size_t finalsAt() const { return word & ~kBlack; }

    void
    blacken(size_t arena_offset)
    {
        // kBlack | (kBlack - 1) is kEmpty: the top offset is reserved.
        if (arena_offset >= kBlack - 1)
            panic("mc finals arena exceeds 2^31 words");
        word = kBlack | static_cast<uint32_t>(arena_offset);
    }
};

/** Digest-keyed state memo (see file header). */
class StateMemo
{
  public:
    static constexpr unsigned kSegmentBits = 6;
    static constexpr size_t kSegments = size_t{1} << kSegmentBits;
    /** Slots a segment allocates on its first insert. */
    static constexpr size_t kMinSlots = 16;

    VisitEntry *
    find(const Digest128 &key)
    {
        Segment &seg = segmentOf(key);
        if (seg.slots.empty())
            return nullptr;
        Slot &s = seg.slots[probe(seg, key)];
        return s.entry.word == VisitEntry::kEmpty ? nullptr : &s.entry;
    }

    /** Insert `entry` under `key` unless the key is present. Returns
     * the key's entry and whether it was inserted — a single probe
     * serves both the lookup and the insert. */
    std::pair<VisitEntry *, bool>
    emplace(const Digest128 &key, const VisitEntry &entry)
    {
        Segment &seg = segmentOf(key);
        if (!seg.slots.empty()) {
            size_t i = probe(seg, key);
            if (seg.slots[i].entry.word != VisitEntry::kEmpty)
                return {&seg.slots[i].entry, false};
            if ((seg.used + 1) * 4 <= seg.slots.size() * 3)
                return {place(seg, i, key, entry), true};
        }
        grow(seg);
        return {place(seg, probe(seg, key), key, entry), true};
    }

    /** Remove `key`; false when absent. */
    bool
    erase(const Digest128 &key)
    {
        Segment &seg = segmentOf(key);
        if (seg.slots.empty())
            return false;
        size_t mask = seg.slots.size() - 1;
        size_t hole = probe(seg, key);
        if (seg.slots[hole].entry.word == VisitEntry::kEmpty)
            return false;
        // Backward shift: walk the rest of the probe run and move
        // back every member whose home does not lie cyclically in
        // (hole, j] — i.e. whose probe path from home crosses the
        // hole, so it would otherwise become unreachable.
        for (size_t j = (hole + 1) & mask;; j = (j + 1) & mask) {
            const Slot &s = seg.slots[j];
            if (s.entry.word == VisitEntry::kEmpty)
                break;
            size_t home = s.key.lo & mask;
            if (((j - home) & mask) >= ((j - hole) & mask)) {
                seg.slots[hole] = s;
                hole = j;
            }
        }
        seg.slots[hole].entry.word = VisitEntry::kEmpty;
        --seg.used;
        --size_;
        return true;
    }

    size_t size() const { return size_; }

    /** Bytes of slot storage currently allocated. */
    size_t
    bytes() const
    {
        size_t n = 0;
        for (const Segment &seg : segs_)
            n += seg.slots.capacity() * sizeof(Slot);
        return n;
    }

  private:
    struct Slot
    {
        Digest128 key;
        VisitEntry entry;
    };
    static_assert(sizeof(Slot) <= 32, "memo slots are 32 bytes");

    struct Segment
    {
        /** Power-of-two size, or empty before the first insert. */
        std::vector<Slot> slots;
        size_t used = 0;
    };

    Segment &
    segmentOf(const Digest128 &key)
    {
        return segs_[key.hi >> (64 - kSegmentBits)];
    }

    /** Index of `key`'s slot, or of the empty slot ending its probe
     * run. The load cap guarantees an empty slot exists. */
    static size_t
    probe(const Segment &seg, const Digest128 &key)
    {
        size_t mask = seg.slots.size() - 1;
        for (size_t i = key.lo & mask;; i = (i + 1) & mask) {
            const Slot &s = seg.slots[i];
            if (s.entry.word == VisitEntry::kEmpty || s.key == key)
                return i;
        }
    }

    VisitEntry *
    place(Segment &seg, size_t i, const Digest128 &key,
          const VisitEntry &entry)
    {
        seg.slots[i] = Slot{key, entry};
        ++seg.used;
        ++size_;
        return &seg.slots[i].entry;
    }

    void
    grow(Segment &seg)
    {
        size_t n = seg.slots.empty() ? kMinSlots : 2 * seg.slots.size();
        std::vector<Slot> old =
            std::exchange(seg.slots, std::vector<Slot>(n));
        for (const Slot &s : old) {
            if (s.entry.word != VisitEntry::kEmpty)
                seg.slots[probe(seg, s.key)] = s;
        }
    }

    std::array<Segment, kSegments> segs_;
    size_t size_ = 0;
};

} // namespace gpulitmus::mc

#endif // GPULITMUS_MC_MEMO_H
