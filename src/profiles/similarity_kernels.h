// Batched phase-4 similarity kernels over the flat profile layout.
//
// Two backends, selected at runtime:
//
//  * Scalar — portable sorted-merge / galloping intersection; the
//    reference implementation, always available.
//  * Simd   — AVX2 (x86-64, detected via cpuid at runtime) or NEON
//    (aarch64) accelerated sorted-array intersection, with galloping for
//    skewed length ratios. On CPUs without AVX2/NEON a "simd" request
//    quietly degrades to Scalar.
//
// The bit-identity contract: only the *intersection* — integer item-id
// matching — is vectorized. All floating-point accumulation runs in
// shared baseline-ISA code that replays the exact operation sequence of
// the scalar measures in profiles/similarity.cpp (same double-precision
// accumulators, same order over the common items). Any correct
// intersection finds the same match list, so every measure scores
// bit-identically across backends and the golden checksums in
// tests/golden/checksums.tsv hold with either. InverseEuclid accumulates
// over the *union* in merged item order, which a match list cannot
// replay, so its kernel is the flat scalar merge under both backends —
// it still gains the contiguous layout.
//
// Degenerate-input conventions are inherited from profiles/similarity.h
// (the per-measure table there is the contract both paths implement).
//
// Backend selection, in priority order:
//   1. the explicit request string ("scalar" | "simd"),
//   2. for "auto": the KNNPC_KERNEL environment variable (same values —
//      how the kernels-smoke CI job forces each path end to end),
//   3. CPU support (SIMD when available).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "profiles/flat_profile.h"
#include "profiles/similarity.h"
#include "util/types.h"

namespace knnpc {

enum class KernelBackend {
  Scalar,
  Simd,
};

/// "scalar", or the compiled SIMD ISA: "avx2" / "neon".
const char* kernel_backend_name(KernelBackend backend);

/// True when this binary carries a SIMD intersection for this CPU.
bool simd_backend_available();

/// Resolves "auto" | "scalar" | "simd" (see selection order above);
/// throws std::invalid_argument on anything else.
KernelBackend resolve_kernel_backend(std::string_view request = "auto");

/// Item ids at or above this cap keep a source out of score_batch's
/// per-source path (its dense table would grow past 16 MiB per thread).
inline constexpr ItemId kDenseItemCap = ItemId{1} << 22;

/// Reusable per-thread match buffers (kernels never allocate after the
/// first pairs at a given profile size).
struct KernelScratch {
  std::vector<std::uint32_t> match_a;  // indices into a's arrays
  std::vector<std::uint32_t> match_b;  // indices into b's arrays
  /// score_batch's per-source table: dense[item] = the source's index of
  /// `item`, or ~0u. All ~0u between calls.
  std::vector<std::uint32_t> dense;
};

/// Sorted-array intersection of two item-id lists: fills
/// scratch.match_a/match_b with the matching index pairs in ascending
/// item order and returns the match count. Exposed for the differential
/// tests; backend only changes speed, never the result.
std::uint32_t intersect_items(const ItemId* a, std::uint32_t na,
                              const ItemId* b, std::uint32_t nb,
                              KernelBackend backend, KernelScratch& scratch);

/// One pair through the kernel for `measure`. Bit-identical to
/// similarity(measure, a, b) on the profiles the views were packed from
/// (when the set is unquantized).
float score_pair(const FlatProfileSet::View& a,
                 const FlatProfileSet::View& b, SimilarityMeasure measure,
                 KernelBackend backend, KernelScratch& scratch);

/// Batched phase-4 entry point: scores `src` against each candidate,
/// writing out[i] = sim(src, candidates[i]). Profiles are looked up in
/// `primary` first, then `secondary` (the second partition of a PI pair;
/// may be null). Throws std::logic_error when an endpoint is in neither —
/// the same "tuple endpoint outside loaded pair" condition the engines
/// previously raised per pair.
///
/// Per-source path: for two or more candidates (and a source whose item
/// ids are below kDenseItemCap), the source's item positions are written
/// once into scratch.dense, and each candidate's items are walked in
/// ascending order against that table. That yields exactly the match list
/// intersect_items produces, so every measure replays the same
/// floating-point sequence and out[i] equals score_pair bit for bit, on
/// either backend. Single candidates, over-cap sources and heavily skewed
/// pairs use intersect_items directly.
void score_batch(const FlatProfileSet& primary,
                 const FlatProfileSet* secondary, VertexId src,
                 std::span<const VertexId> candidates,
                 SimilarityMeasure measure, KernelBackend backend,
                 float* out, KernelScratch& scratch);

}  // namespace knnpc
