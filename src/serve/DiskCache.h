//===- serve/DiskCache.h - Persistent content-addressed result store ------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The durable tier of the serving layer's result cache: a directory
/// of content-addressed response bodies, keyed by the FNV-1a hash of
/// (module text, pipeline key, machine key, schema stamp) -- the same
/// platform-stable hash family as the PR 2 run ids.
///
/// Layout (see docs/SERVING.md):
///
///   <dir>/<kk>/<16-hex-key>.json      kk = first two hex digits
///   <dir>/tmp.<pid>.<seq>             in-flight writes (never read)
///
/// Each entry wraps its body in a small envelope carrying the schema
/// stamp and its own key. Publication is atomic: the entry is written
/// to a tmp file and rename(2)d into place, so readers (including
/// other daemon processes sharing the directory) only ever observe
/// absent or complete entries, and two writers racing the same key
/// converge on identical bytes. Entries whose stamp or key does not
/// match on read are unlinked and counted as invalidations -- that is
/// how a schema bump (or a corrupted file) self-heals instead of
/// serving stale results.
///
/// Capacity is bounded by MaxEntries; exceeding it evicts the least-
/// recently-modified entries down to 7/8 of the cap, so a full tier
/// pays its directory scan once per MaxEntries/8 stores (get()
/// refreshes mtime: eviction approximates LRU across daemon restarts).
///
/// Thread-safety: all methods are safe to call concurrently; the file
/// operations are per-entry atomic and the counters are mutex-guarded.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_SERVE_DISKCACHE_H
#define FPINT_SERVE_DISKCACHE_H

#include <cstdint>
#include <mutex>
#include <string>

namespace fpint {
namespace serve {

class DiskCache {
public:
  struct Options {
    std::string Dir = "serve_cache";
    /// Entry-count cap; 0 means unbounded.
    size_t MaxEntries = 8192;
  };

  struct Counters {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Stores = 0;
    uint64_t Evictions = 0;
    uint64_t Invalidations = 0; ///< Stale-stamp / corrupt entries dropped.
  };

  explicit DiskCache(Options Opts);

  /// The schema stamp folded into every key and entry envelope. Any
  /// change to the response-body layout (serve::ResponseSchema) or the
  /// stats report schema changes the stamp, so every old entry misses
  /// and is reclaimed.
  static std::string schemaStamp();

  /// Content address of one (module, pipeline, machine) request:
  /// 16 lower-case hex digits, stable across processes, platforms,
  /// and daemon restarts.
  static std::string key(const std::string &ModuleText,
                         const std::string &PipelineKey,
                         const std::string &MachineKey);

  /// Looks \p Key up; on a hit fills \p Body with the stored bytes and
  /// refreshes the entry's mtime. A present-but-stale entry (schema
  /// stamp or key mismatch, unparseable JSON) is unlinked and reported
  /// as a miss.
  bool get(const std::string &Key, std::string &Body);

  /// Publishes \p Body under \p Key (write-then-rename). Returns false
  /// on I/O failure; the cache is then simply cold for that key.
  bool put(const std::string &Key, const std::string &Body);

  Counters counters() const;

  const std::string &dir() const { return Opts.Dir; }

  /// Number of entries currently on disk (maintained incrementally;
  /// exact after construction-time scan).
  size_t entryCount() const;

private:
  std::string pathFor(const std::string &Key) const;
  void evictIfNeeded();

  Options Opts;
  mutable std::mutex Mu;
  Counters Counts;
  size_t Entries = 0;
  uint64_t TmpSeq = 0;
};

} // namespace serve
} // namespace fpint

#endif // FPINT_SERVE_DISKCACHE_H
