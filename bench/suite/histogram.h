// Fixed-memory log-bucket histogram for the scored benchmark.
//
// util/histogram.h keeps every sample, so its memory grows with
// throughput and would land inside mem_bytes_per_txn. This one is a
// fixed array: values below 256 get exact buckets; above that, each
// power of two is split into 128 equal sub-buckets, so a bucket is at
// most 1/128 of its lower edge wide and the midpoint it reports is
// within 0.4% of every sample it holds.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace pgssi::bench {

class LogHistogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  // Largest distinguished power of two; larger values share the last
  // bucket (2^44 ns is about 4.9 hours).
  static constexpr int kMaxExp = 44;
  static constexpr size_t kBuckets = (kMaxExp - kSubBits + 2) * kSub;

  void Add(uint64_t v) {
    counts_[Index(v)]++;
    count_++;
    sum_ += static_cast<double>(v);
  }

  void Merge(const LogHistogram& o) {
    for (size_t i = 0; i < kBuckets; i++) counts_[i] += o.counts_[i];
    count_ += o.count_;
    sum_ += o.sum_;
  }

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }

  /// Nearest-rank percentile, p in (0, 100]: the midpoint of the bucket
  /// holding the ceil(p/100 * n)-th smallest sample; 0 when empty.
  double Percentile(double p) const {
    if (count_ == 0) return 0;
    uint64_t rank = static_cast<uint64_t>(p / 100.0 * static_cast<double>(count_));
    if (static_cast<double>(rank) < p / 100.0 * static_cast<double>(count_)) rank++;
    if (rank < 1) rank = 1;
    if (rank > count_) rank = count_;
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; i++) {
      seen += counts_[i];
      if (seen >= rank) return Lower(i) + (Width(i) - 1) / 2.0;
    }
    return Lower(kBuckets - 1);
  }

 private:
  static size_t Index(uint64_t v) {
    if (v < 2 * kSub) return static_cast<size_t>(v);
    const int e = 63 - __builtin_clzll(v);
    if (e > kMaxExp) return kBuckets - 1;
    const uint64_t sub = (v >> (e - kSubBits)) & (kSub - 1);
    return static_cast<size_t>(e - kSubBits + 1) * kSub + static_cast<size_t>(sub);
  }
  static double Lower(size_t i) {
    if (i < 2 * kSub) return static_cast<double>(i);
    const int e = static_cast<int>(i / kSub) + kSubBits - 1;
    return static_cast<double>((kSub + i % kSub) << (e - kSubBits));
  }
  static double Width(size_t i) {
    if (i < 2 * kSub) return 1;
    const int e = static_cast<int>(i / kSub) + kSubBits - 1;
    return static_cast<double>(uint64_t{1} << (e - kSubBits));
  }

  std::array<uint64_t, kBuckets> counts_{};
  uint64_t count_ = 0;
  double sum_ = 0;
};

}  // namespace pgssi::bench
