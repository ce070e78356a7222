// Striped reader-writer latch for the heap/version-chain store.
//
// A power-of-two array of cache-line-aligned std::shared_mutex stripes;
// a chain's stripe is chosen by hashing its TupleId, so writers of
// independent keys land on independent stripes instead of serializing on
// one per-table latch. Tables use kHeapStripes (db/config.h).
//
// The latch guards only chain *content* (the versions vector). Index
// shape is guarded by the B+-tree's own leaf/structure locks (taken
// after the stripe), chain allocation by the table's alloc_mu. Lock
// order: stripe > tree locks > SIREAD partition.
#pragma once

#include <cstdint>
#include <memory>
#include <shared_mutex>

#include "util/types.h"

namespace pgssi {

class StripedLatch {
 public:
  explicit StripedLatch(uint32_t stripes) {
    size_t n = 1;
    while (n < stripes && n < kMaxStripes) n <<= 1;
    mask_ = n - 1;
    stripes_ = std::make_unique<Stripe[]>(n);
  }
  StripedLatch(const StripedLatch&) = delete;
  StripedLatch& operator=(const StripedLatch&) = delete;

  /// The stripe guarding the chain with this TupleId.
  std::shared_mutex& For(TupleId tid) const {
    return stripes_[Mix(tid) & mask_].mu;
  }

  size_t stripe_count() const { return mask_ + 1; }

 private:
  static constexpr size_t kMaxStripes = 4096;

  struct alignas(64) Stripe {
    mutable std::shared_mutex mu;
  };

  // Finalizer of splitmix64: adjacent TupleIds (the common allocation
  // pattern) spread across stripes instead of marching through them.
  static uint64_t Mix(uint64_t h) {
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 31;
    return h;
  }

  size_t mask_;
  std::unique_ptr<Stripe[]> stripes_;
};

}  // namespace pgssi
