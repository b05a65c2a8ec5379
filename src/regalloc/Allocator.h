//===- regalloc/Allocator.h - Pluggable register-allocation backends ------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The register-allocation backend interface (see docs/REGALLOC.md).
/// An Allocator rewrites one function at a time onto the architectural
/// register files described by ArchLayout, honoring one fixed
/// contract so every downstream consumer (VM oracle, timing
/// simulator, partition statistics) works with any backend:
///
///  * the calling convention is lowered first (arguments through
///    $a0..$a3 per class, results through $v0);
///  * INT and FP registers are allocated from their own files; FPa
///    partition operands arrive as RegClass::Fp and therefore land in
///    FP registers automatically;
///  * intervals live across a call take callee-saved registers or
///    spill; used callee-saved registers are saved/restored in the
///    prologue/epilogue;
///  * spilled values are rewritten through the reserved scratch
///    registers with frame loads/stores, and the function is left
///    renumbered with setAllocated(true).
///
/// Backends are listed by name in Allocator.cpp; the incumbent
/// is "regalloc" (and remains the default), the Poletto-Sarkar
/// linear-scan backend is "regalloc-linear". Selection flows from
/// pipeline text / PipelineConfig::RegAllocator (see
/// core/PassManager.h); a non-default name is folded into every cache
/// key so compiled artifacts never alias across backends.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_REGALLOC_ALLOCATOR_H
#define FPINT_REGALLOC_ALLOCATOR_H

#include "regalloc/RegAlloc.h"

#include <memory>
#include <string>
#include <vector>

namespace fpint {
namespace regalloc {

/// One register-allocation backend. Stateless across functions: the
/// module driver (allocateModule) calls runOnFunction once per
/// function, bracketing each call with AnalysisManager invalidation
/// and recording per-function wall time.
class Allocator {
public:
  virtual ~Allocator() = default;

  /// Stable backend name ("regalloc", "regalloc-linear").
  virtual const char *name() const = 0;

  /// Allocates \p F in place, emplacing its FuncAlloc into
  /// \p Out.Funcs. All analyses (CFG, liveness, live intervals) are
  /// fetched through \p AM so cache counters attribute the lookups to
  /// the running pass. Returns false with \p Error set on a contract
  /// violation (e.g. too many formals); \p F is left untouched in that
  /// case.
  virtual bool runOnFunction(sir::Function &F, ModuleAlloc &Out,
                             analysis::AnalysisManager &AM,
                             std::string &Error) = 0;
};

/// Creates the backend named \p Name: "regalloc" (the incumbent, also
/// the default) or "regalloc-linear". Null for any other name.
std::unique_ptr<Allocator> createAllocator(const std::string &Name);

/// Every backend name, sorted.
std::vector<std::string> allocatorNames();

/// The backend allocateModule dispatches to for an empty name.
inline const char *defaultAllocatorName() { return "regalloc"; }

/// Allocates every function of \p M with the backend named
/// \p Name (empty selects defaultAllocatorName()). An unknown name
/// produces a ModuleAlloc carrying only an error. See
/// regalloc::allocateModule for the AM contract.
ModuleAlloc allocateModuleWith(const std::string &Name, sir::Module &M,
                               analysis::AnalysisManager &AM);

/// Backend factories, defined next to each implementation.
std::unique_ptr<Allocator> createIncumbentAllocator();
std::unique_ptr<Allocator> createLinearScanAllocator();

} // namespace regalloc
} // namespace fpint

#endif // FPINT_REGALLOC_ALLOCATOR_H
