//===- timing/Cache.h - Set-associative cache model -----------------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A set-associative cache timing model with LRU replacement, matching
/// Table 1: a 64KB 2-way I-cache with 128-byte lines and a 32KB 2-way
/// write-back write-allocate D-cache with 32-byte lines, both with
/// 1-cycle hits and a 6-cycle miss penalty.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_TIMING_CACHE_H
#define FPINT_TIMING_CACHE_H

#include <cstdint>
#include <vector>

namespace fpint {
namespace timing {

struct CacheConfig {
  uint32_t SizeBytes = 32 * 1024;
  uint32_t Assoc = 2;
  uint32_t LineBytes = 32;
  unsigned HitLatency = 1;
  unsigned MissPenalty = 6;
};

/// LRU set-associative cache. Only timing matters; no data is stored.
class Cache {
public:
  explicit Cache(CacheConfig Config);

  /// Accesses \p Addr; returns total latency (hit latency, plus the miss
  /// penalty on a miss). \p Write marks the line dirty.
  unsigned access(uint32_t Addr, bool Write = false);

  /// True if \p Addr currently hits (no state change).
  bool probe(uint32_t Addr) const;

  uint64_t accesses() const { return Accesses; }
  uint64_t misses() const { return Misses; }
  uint64_t writebacks() const { return Writebacks; }
  double missRate() const {
    return Accesses ? static_cast<double>(Misses) /
                          static_cast<double>(Accesses)
                    : 0.0;
  }

  const CacheConfig &config() const { return Config; }

private:
  struct Line {
    uint32_t Tag = 0;
    uint64_t LastUse = 0;
    bool Valid = false;
    bool Dirty = false;
  };

  CacheConfig Config;
  unsigned LineShift; ///< log2(LineBytes).
  unsigned SetShift;  ///< log2(number of sets).
  uint32_t SetMask;   ///< Number of sets - 1.
  std::vector<Line> Lines; // (SetMask + 1) * Assoc.
  uint64_t Tick = 0;
  uint64_t Accesses = 0;
  uint64_t Misses = 0;
  uint64_t Writebacks = 0;
};

} // namespace timing
} // namespace fpint

#endif // FPINT_TIMING_CACHE_H
