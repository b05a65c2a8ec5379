//===- analysis/AnalysisManager.h - Cached per-function analyses ----------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one source of every per-function analysis a pass consults: a
/// lazily-computed cache keyed by (function, analysis). A pass asks for
///
///   const analysis::CFG &Cfg = AM.getResult<analysis::CFGAnalysis>(F);
///
/// and the result is computed at most once until something invalidates
/// it. An analysis may consult other analyses of the same function
/// (ReachingDefs pulls CFG, RDG pulls both); every entry of a function
/// is always dropped together, so no dependency bookkeeping is needed.
///
/// Two operations invalidate:
///   - invalidate() drops everything; the pass manager calls it after
///     every pass that reported a change;
///   - invalidateFunction(F) drops F's entries; a pass calls it when it
///     mutated F mid-run.
/// Hit / miss / invalidation counters are kept globally and per
/// analysis name; the pass manager snapshots them around every pass
/// for the per-pass telemetry table.
///
/// Contract: cached analyses are built over renumbered functions and
/// hold pointers into the IR. Module-level results (block execution
/// weights) are keyed by the profile they were derived from and are
/// dropped only by invalidate(), never by invalidateFunction() --
/// references obtained before a loop over functions stay valid across
/// it.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_ANALYSIS_ANALYSISMANAGER_H
#define FPINT_ANALYSIS_ANALYSISMANAGER_H

#include "analysis/CFG.h"
#include "analysis/ExecutionEstimate.h"
#include "analysis/RDG.h"
#include "analysis/ReachingDefs.h"
#include "sir/IR.h"

#include <map>
#include <memory>
#include <string>

namespace fpint {
namespace analysis {

/// Caches analysis results per function (and per module for block
/// weights). Not thread-safe: one manager serves one compilation
/// pipeline.
class AnalysisManager {
public:
  struct Counters {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Invalidations = 0;
  };

  AnalysisManager() = default;
  AnalysisManager(const AnalysisManager &) = delete;
  AnalysisManager &operator=(const AnalysisManager &) = delete;

  /// The cached result of analysis \p A over \p F, computing (and
  /// caching) it on a miss. The reference stays valid until the entry
  /// is invalidated.
  template <typename A> const typename A::Result &getResult(const sir::Function &F) {
    static const char Key = 0; // One address per analysis type.
    const EntryKey K{&F, &Key};
    if (const void *Hit = lookup(K, A::name()))
      return *static_cast<const typename A::Result *>(Hit);
    std::shared_ptr<const typename A::Result> R = A::run(F, *this);
    Entries.emplace(K, Entry{R, A::name()});
    return *R;
  }

  /// Module-level block execution weights derived from \p Prof (which
  /// may be null: static estimates everywhere). Cached until the next
  /// invalidate().
  const BlockWeights &blockWeights(const sir::Module &M,
                                   const vm::Profile *Prof);

  /// Drops every cached entry, block weights included.
  void invalidate();

  /// Drops every per-function entry for \p F (a pass mutated \p F
  /// mid-run). Module-level results are deliberately kept; see the
  /// file comment.
  void invalidateFunction(const sir::Function &F);

  Counters counters() const { return Counts; }
  /// Per-analysis-name counters, for tests and --time-passes.
  const std::map<std::string, Counters> &countersByAnalysis() const {
    return ByName;
  }

private:
  /// (function, address of the analysis type's key).
  using EntryKey = std::pair<const void *, const char *>;

  struct Entry {
    std::shared_ptr<const void> Result;
    const char *Name;
  };

  /// Counting lookup: the cached result, or null on a miss.
  const void *lookup(const EntryKey &K, const char *Name);
  /// Counts the invalidation of one dropped result named \p Name.
  void countInvalidation(const std::string &Name);

  std::map<EntryKey, Entry> Entries;
  Counters Counts;
  std::map<std::string, Counters> ByName;

  /// Module-level block-weights cache.
  std::unique_ptr<BlockWeights> Weights;
  const sir::Module *WeightsModule = nullptr;
  const vm::Profile *WeightsProfile = nullptr;
};

//===----------------------------------------------------------------------===//
// Concrete analyses over sir functions.
//===----------------------------------------------------------------------===//

/// analysis::CFG of a renumbered function.
struct CFGAnalysis {
  using Result = CFG;
  static const char *name() { return "cfg"; }
  static std::unique_ptr<Result> run(const sir::Function &F,
                                     AnalysisManager &AM);
};

/// Reaching definitions (consults CFGAnalysis).
struct ReachingDefsAnalysis {
  using Result = ReachingDefs;
  static const char *name() { return "reaching-defs"; }
  static std::unique_ptr<Result> run(const sir::Function &F,
                                     AnalysisManager &AM);
};

/// The register dependence graph (consults CFG + ReachingDefs).
struct RDGAnalysis {
  using Result = RDG;
  static const char *name() { return "rdg"; }
  static std::unique_ptr<Result> run(const sir::Function &F,
                                     AnalysisManager &AM);
};

} // namespace analysis
} // namespace fpint

#endif // FPINT_ANALYSIS_ANALYSISMANAGER_H
