#include "partition/pli_cache.h"

#include <vector>

#include "common/parallel.h"

namespace metaleak {

PliCache::PliCache(const EncodedRelation* encoded) : encoded_(encoded) {
  METALEAK_DCHECK(encoded_ != nullptr);
  BuildSingletons();
}

PliCache::PliCache(const Relation* relation) {
  METALEAK_DCHECK(relation != nullptr);
  owned_encoding_ =
      std::make_unique<EncodedRelation>(EncodedRelation::Encode(*relation));
  encoded_ = owned_encoding_.get();
  BuildSingletons();
}

PliCache::PliCache(const EncodedRelation* encoded,
                   std::vector<PositionListIndex> singles)
    : encoded_(encoded) {
  METALEAK_DCHECK(encoded_ != nullptr);
  METALEAK_DCHECK(singles.size() == encoded_->num_columns());
  // Pre-fire the singleton entries with the caller's partitions: insert
  // the entry and run its call_once immediately, so later Gets see a
  // completed build exactly as if BuildSingletons had made it.
  for (size_t c = 0; c < singles.size(); ++c) {
    PliCacheKey key{encoded_->Fingerprint(), AttributeSet::Single(c)};
    Shard& shard = ShardFor(key);
    std::shared_ptr<Entry> entry;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      std::shared_ptr<Entry>& slot = shard.map[key];
      METALEAK_DCHECK(slot == nullptr);
      slot = std::make_shared<Entry>();
      entry = slot;
    }
    std::call_once(entry->once, [&] {
      entry->pli =
          std::make_unique<PositionListIndex>(std::move(singles[c]));
    });
  }
  Get(AttributeSet());
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
}

void PliCache::BuildSingletons() {
  METALEAK_DCHECK(encoded_->num_columns() <= AttributeSet::kMaxAttributes);
  Get(AttributeSet());
  // One pool task per column: Get is single-flight and each column's
  // entry is its own key, so the tasks never build the same PLI twice.
  ParallelFor(0, encoded_->num_columns(), 1,
              [this](size_t c) { Get(AttributeSet::Single(c)); });
  // The eager build is construction noise; counters report Get traffic.
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
}

std::unique_ptr<PositionListIndex> PliCache::BuildPli(AttributeSet attrs) {
  if (attrs.empty()) {
    return std::make_unique<PositionListIndex>(
        PositionListIndex::Identity(encoded_->num_rows()));
  }
  if (attrs.size() == 1) {
    size_t c = attrs.ToIndices()[0];
    return std::make_unique<PositionListIndex>(PositionListIndex::FromCodes(
        encoded_->column_view(c), encoded_->dictionary(c).num_codes()));
  }
  // Build by intersecting the (recursively obtained) PLI without the
  // highest attribute with that attribute's single PLI. Depth is |attrs|.
  std::vector<size_t> indices = attrs.ToIndices();
  size_t last = indices.back();
  const PositionListIndex* rest = Get(attrs.Without(last));
  const PositionListIndex* single = Get(AttributeSet::Single(last));
  // One grow-only intersection workspace per worker thread: a level-wise
  // lattice sweep through the cache allocates O(1) scratch total instead
  // of O(candidates) probe tables.
  static thread_local IntersectionScratch scratch;
  return std::make_unique<PositionListIndex>(rest->Intersect(*single, &scratch));
}

const PositionListIndex* PliCache::Get(AttributeSet attrs) {
  PliCacheKey key{encoded_->Fingerprint(), attrs};
  Shard& shard = ShardFor(key);
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    std::shared_ptr<Entry>& slot = shard.map[key];
    if (slot == nullptr) {
      slot = std::make_shared<Entry>();
      misses_.fetch_add(1, std::memory_order_relaxed);
    } else {
      hits_.fetch_add(1, std::memory_order_relaxed);
    }
    entry = slot;
  }
  // Single-flight: the first arrival builds (recursively resolving the
  // parents outside any shard lock); latecomers block here until done.
  std::call_once(entry->once, [&] { entry->pli = BuildPli(attrs); });
  return entry->pli.get();
}

size_t PliCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

}  // namespace metaleak
