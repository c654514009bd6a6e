// Phase 2: the hash table H of unique candidate tuples, kept as one
// sorted run per PI-pair slot.
//
// Duplicates arise from cycles (a->b->a) and from multiple bridge paths
// (a->b->d and a->c->d); H keeps one instance of each (s, d). A tuple's
// PI-pair slot (pi_pair_slot of its endpoints' partitions) is a function
// of (s, d), so every copy of a tuple lands in the same slot and dedup
// per slot is global dedup. Producers bucket their candidates by slot;
// once every candidate is in, each slot is LSD-radix-sorted on the packed
// key (s << bits | d), bits = tuple_key_bits(n), and adjacent duplicates
// are dropped. What remains is the slot's unique tuples in ascending
// (s, d) order — a function of the candidate multiset alone, so any
// emission order, producer split or thread count yields the same bundle,
// and phase 4 finds each source user's candidates as one contiguous run.
//
// The one dedup behind the serial engine's phase 2 and every shard
// consumer's phase 2b.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <span>
#include <vector>

#include "storage/io_model.h"
#include "util/types.h"

namespace knnpc {

class ThreadPool;

/// One producer's candidates bucketed by PI-pair slot: buckets[slot].
using SlotBuckets = std::vector<std::vector<Tuple>>;

/// Bits per endpoint of the packed sort key for vertex ids < n: the
/// smallest b with 2^b >= n (0 for n <= 1, 32 for ids up to UINT32_MAX-1).
[[nodiscard]] unsigned tuple_key_bits(VertexId n);

/// Sorts and dedups every slot across `producers` (each holding the same
/// number of slots; ids < n). For each slot with at least one candidate,
/// calls emit(slot, unique) with its unique tuples in ascending (s, d)
/// order, then releases that slot's buckets in every producer. Returns
/// the unique count per slot (0 for slots without candidates).
///
/// `pool` sorts slots in parallel, so `emit` may run concurrently for
/// distinct slots; the spans and counts are the same at any thread count.
std::vector<std::uint64_t> dedup_tuple_slots(
    std::vector<SlotBuckets>& producers, VertexId n, ThreadPool* pool,
    const std::function<void(std::size_t, std::span<const Tuple>)>& emit);

/// Path of slot `slot`'s tuple bundle under `dir`: <dir>/tuples_<slot>.bin.
[[nodiscard]] std::filesystem::path tuple_bundle_path(
    const std::filesystem::path& dir, std::size_t slot);

/// dedup_tuple_slots, writing each non-empty slot's unique tuples to
/// tuple_bundle_path(dir, slot) (and removing a stale file for every
/// empty slot). `io` is charged one write per non-empty slot afterwards,
/// in slot order, so the accounting is the same at any thread count.
/// Returns the unique count per slot.
std::vector<std::uint64_t> write_tuple_bundles(
    std::vector<SlotBuckets>& producers, VertexId n,
    const std::filesystem::path& dir, ThreadPool* pool, IoAccountant* io);

}  // namespace knnpc
