#include "core/tuple_dedup.h"

#include <algorithm>
#include <bit>
#include <fstream>
#include <stdexcept>
#include <string>

#include "util/thread_pool.h"

namespace knnpc {
namespace {

constexpr unsigned kDigitBits = 11;
constexpr std::size_t kRadix = std::size_t{1} << kDigitBits;
/// Below this many candidates a comparison sort beats the histogram
/// set-up; both give the same ascending order.
constexpr std::size_t kRadixMinTuples = 256;

/// Per-task sort buffers, grown to the largest slot the task meets.
struct SortScratch {
  std::vector<Tuple> a;
  std::vector<Tuple> b;
  std::vector<std::uint32_t> hist;
};

/// Sorts the concatenation of `parts` (`total` tuples, ids < 2^bits) by
/// (s, d) and drops duplicates; returns the unique run, which lives in
/// `scratch`.
std::span<const Tuple> sort_unique(std::span<std::vector<Tuple>* const> parts,
                                   std::size_t total, unsigned bits,
                                   SortScratch& scratch) {
  if (scratch.a.size() < total) {
    scratch.a.resize(total);
    scratch.b.resize(total);
  }
  auto gather = [&](Tuple* dst) {
    for (const std::vector<Tuple>* part : parts) {
      dst = std::copy(part->begin(), part->end(), dst);
    }
  };
  const unsigned passes = (2 * bits + kDigitBits - 1) / kDigitBits;
  Tuple* sorted = scratch.a.data();
  if (total < kRadixMinTuples || passes == 0) {
    gather(sorted);
    // Tuple's ordering is (s, d): the packed key's order.
    std::sort(sorted, sorted + total);
  } else {
    auto key = [bits](const Tuple& t) {
      return static_cast<std::uint64_t>(t.s) << bits | t.d;
    };
    // All digit histograms in one read of the input.
    scratch.hist.assign(passes * kRadix, 0);
    std::uint32_t* hist = scratch.hist.data();
    for (const std::vector<Tuple>* part : parts) {
      for (const Tuple& t : *part) {
        const std::uint64_t k = key(t);
        for (unsigned p = 0; p < passes; ++p) {
          ++hist[p * kRadix + (k >> (p * kDigitBits) & (kRadix - 1))];
        }
      }
    }
    std::uint64_t first_key = 0;
    for (const std::vector<Tuple>* part : parts) {
      if (!part->empty()) {
        first_key = key(part->front());
        break;
      }
    }
    // The first scatter reads the producers' buckets; later passes
    // ping-pong between the two scratch buffers.
    Tuple* src = nullptr;
    Tuple* dst = scratch.a.data();
    Tuple* spare = scratch.b.data();
    for (unsigned p = 0; p < passes; ++p) {
      const unsigned shift = p * kDigitBits;
      std::uint32_t* offsets = hist + p * kRadix;
      // Every key shares this digit: the pass would be the identity.
      if (offsets[first_key >> shift & (kRadix - 1)] == total) continue;
      std::uint32_t sum = 0;
      for (std::size_t r = 0; r < kRadix; ++r) {
        const std::uint32_t count = offsets[r];
        offsets[r] = sum;
        sum += count;
      }
      auto scatter = [&](const Tuple* first, const Tuple* last) {
        for (; first != last; ++first) {
          dst[offsets[key(*first) >> shift & (kRadix - 1)]++] = *first;
        }
      };
      if (src == nullptr) {
        for (const std::vector<Tuple>* part : parts) {
          scatter(part->data(), part->data() + part->size());
        }
      } else {
        scatter(src, src + total);
      }
      src = dst;
      std::swap(dst, spare);
    }
    if (src == nullptr) {
      gather(sorted);  // every pass was the identity: already sorted
    } else {
      sorted = src;
    }
  }
  const Tuple* last = std::unique(sorted, sorted + total);
  return {sorted, static_cast<std::size_t>(last - sorted)};
}

}  // namespace

unsigned tuple_key_bits(VertexId n) {
  return n <= 1 ? 0u : static_cast<unsigned>(std::bit_width(n - 1));
}

std::vector<std::uint64_t> dedup_tuple_slots(
    std::vector<SlotBuckets>& producers, VertexId n, ThreadPool* pool,
    const std::function<void(std::size_t, std::span<const Tuple>)>& emit) {
  const std::size_t num_slots =
      producers.empty() ? 0 : producers.front().size();
  for (const SlotBuckets& buckets : producers) {
    if (buckets.size() != num_slots) {
      throw std::invalid_argument(
          "dedup_tuple_slots: producers disagree on the slot count");
    }
  }
  const unsigned bits = tuple_key_bits(n);
  std::vector<std::uint64_t> unique(num_slots, 0);
  auto sort_slots = [&](std::size_t lo, std::size_t hi) {
    SortScratch scratch;
    std::vector<std::vector<Tuple>*> parts;
    for (std::size_t slot = lo; slot < hi; ++slot) {
      parts.clear();
      std::size_t total = 0;
      for (SlotBuckets& buckets : producers) {
        if (buckets[slot].empty()) continue;
        parts.push_back(&buckets[slot]);
        total += buckets[slot].size();
      }
      if (total == 0) continue;
      const std::span<const Tuple> run =
          sort_unique(parts, total, bits, scratch);
      for (std::vector<Tuple>* part : parts) *part = {};
      unique[slot] = run.size();
      emit(slot, run);
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(0, num_slots, sort_slots, /*min_chunk=*/1);
  } else {
    sort_slots(0, num_slots);
  }
  return unique;
}

std::filesystem::path tuple_bundle_path(const std::filesystem::path& dir,
                                        std::size_t slot) {
  return dir / ("tuples_" + std::to_string(slot) + ".bin");
}

std::vector<std::uint64_t> write_tuple_bundles(
    std::vector<SlotBuckets>& producers, VertexId n,
    const std::filesystem::path& dir, ThreadPool* pool, IoAccountant* io) {
  std::filesystem::create_directories(dir);
  const std::vector<std::uint64_t> unique = dedup_tuple_slots(
      producers, n, pool,
      [&](std::size_t slot, std::span<const Tuple> run) {
        const std::filesystem::path path = tuple_bundle_path(dir, slot);
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char*>(run.data()),
                  static_cast<std::streamsize>(run.size_bytes()));
        if (!out) {
          throw std::runtime_error("write_tuple_bundles: cannot write " +
                                   path.string());
        }
      });
  for (std::size_t slot = 0; slot < unique.size(); ++slot) {
    if (unique[slot] == 0) {
      std::error_code ec;
      std::filesystem::remove(tuple_bundle_path(dir, slot), ec);
    } else if (io != nullptr) {
      io->charge_write(unique[slot] * sizeof(Tuple));
    }
  }
  return unique;
}

}  // namespace knnpc
