// Memoizing store of PLIs keyed by attribute set.
//
// TANE repeatedly needs pli(X) for many X along lattice paths; building
// each level by intersecting cached parents turns the exponential rebuild
// cost into one intersection per requested set.
//
// The cache runs on the dictionary-encoded view of the relation: single-
// attribute PLIs are built by counting-style grouping over dense codes
// (no `Value` hashing), and composite PLIs by intersection as before.
// Each PliCache holds one encoding, so an attribute set alone keys its
// entries.
//
// Concurrency: Get is safe to call from any number of threads (TANE
// validates a whole lattice level's candidates concurrently against one
// cache). The key map is sharded under per-shard mutexes, and each entry
// is built single-flight — concurrent Gets of the same missing key agree
// on one builder and the rest block until the PLI is ready. Returned
// pointers stay stable until destruction, as before.
#ifndef METALEAK_PARTITION_PLI_CACHE_H_
#define METALEAK_PARTITION_PLI_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "data/encoded_relation.h"
#include "partition/attribute_set.h"
#include "partition/position_list_index.h"

namespace metaleak {

class PliCache {
 public:
  /// Builds over an existing encoding (shared across consumers of one
  /// pipeline entry point). The encoding must outlive the cache.
  /// Single-attribute PLIs are built eagerly from the code vectors, one
  /// pool task per column; composite PLIs on demand.
  explicit PliCache(const EncodedRelation* encoded);

  /// Builds over an existing encoding but seeds the single-attribute
  /// entries from `singles` (one per column, canonical CSR form) instead
  /// of rebuilding them from the code vectors. The maintenance layer
  /// hands its incrementally-kept PLIs in here, so a warm snapshot's
  /// cache never pays the per-column FromCodes pass again.
  PliCache(const EncodedRelation* encoded,
           std::vector<PositionListIndex> singles);

  METALEAK_DISALLOW_COPY_AND_ASSIGN(PliCache);

  /// Returns pli(attrs). The empty set yields the identity partition.
  /// The returned pointer is owned by the cache and stable until
  /// destruction. Thread-safe; a missing entry is built exactly once
  /// even under concurrent lookups (single-flight).
  const PositionListIndex* Get(AttributeSet attrs);

  /// Entries currently resident (including the eager singletons).
  size_t size() const;

  /// Lookup counters, reset after the eager singleton build: a hit found
  /// an existing entry (possibly waiting for its in-flight build); a miss
  /// claimed the build for a new key.
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }

  /// The encoded view the cache is built over.
  const EncodedRelation& encoded() const { return *encoded_; }

  /// Fingerprint of the underlying encoding.
  uint64_t fingerprint() const { return encoded_->Fingerprint(); }

 private:
  // One cached partition. `once` makes the build single-flight; `pli` is
  // written exactly once, inside call_once, before any reader returns.
  struct Entry {
    std::once_flag once;
    std::unique_ptr<PositionListIndex> pli;
  };

  static constexpr size_t kNumShards = 16;

  // Spreads the attribute bits over the shard index and the buckets.
  struct KeyHash {
    size_t operator()(AttributeSet attrs) const {
      uint64_t h = attrs.mask() * 0x9E3779B97F4A7C15ull;
      h ^= h >> 33;
      return static_cast<size_t>(h);
    }
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<AttributeSet, std::shared_ptr<Entry>, KeyHash> map;
  };

  Shard& ShardFor(AttributeSet attrs) {
    return shards_[KeyHash{}(attrs) % kNumShards];
  }

  void BuildSingletons();
  std::unique_ptr<PositionListIndex> BuildPli(AttributeSet attrs);

  const EncodedRelation* encoded_;
  std::array<Shard, kNumShards> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace metaleak

#endif  // METALEAK_PARTITION_PLI_CACHE_H_
