//===- perfbench/src/Harness.h - Benchmark harness plumbing ---------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the fpint-perfbench harness: options, the seeded
/// schedule generator, the closed-loop phase runner, in-memory spans
/// with self-time aggregation, and the result line.
///
/// Every layer is timed from outside, at its public entry points: a
/// span is opened by the harness around a call into the library and
/// closed when the call returns. Spans live in memory and are written
/// once, at the end of a traced run.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_PERFBENCH_HARNESS_H
#define FPINT_PERFBENCH_HARNESS_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Small inputs for the self-test; never used by measured runs.
  bool Tiny = false;
  unsigned Threads = 1;
  std::string ServeBin;  ///< Path of the shipped fpint-serve binary.
  std::string RunDir;    ///< Working directory owned by this run.
  std::string GoldenDir; ///< scripts/golden of the checkout.
  std::string TraceOut;  ///< Where a traced run writes its spans.
};

/// Milliseconds on the steady clock since the harness started.
double nowMs();

/// The steady clock in nanoseconds since its own epoch, which all
/// processes of a host share (for spans measured in a helper process).
int64_t steadyNs();

/// Seeded Fisher-Yates permutation of [0, N), drawn from fpint::Rng so
/// that it is the same on every host.
std::vector<size_t> permutation(size_t N, uint64_t Seed);

//===----------------------------------------------------------------------===//
// Spans.
//===----------------------------------------------------------------------===//

struct Span {
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0: a root span.
  uint64_t Op = 0;     ///< Operation the span belongs to.
  std::string Name;
  double StartMs = 0;
  double EndMs = 0;
};

/// In-memory span store. A null Tracer pointer, or one constructed
/// off, records nothing, so untraced phases pay only a branch.
class Tracer {
public:
  explicit Tracer(bool On) : On(On) {}
  bool on() const { return On; }

  /// Per-name totals: calls, summed duration and summed self time (a
  /// span's duration minus the part of it its children cover).
  struct Layer {
    uint64_t Calls = 0;
    double TotalMs = 0;
    double SelfMs = 0;
    double meanSelfMs() const { return Calls ? SelfMs / Calls : 0.0; }
  };
  std::map<std::string, Layer> layers() const;

  /// Adds a root span measured elsewhere, in steadyNs() time.
  void record(const char *Name, int64_t StartNs, int64_t EndNs,
              uint64_t Op);

  /// Writes one JSON object per span, one per line.
  bool write(const std::string &Path, std::string &Err) const;

private:
  friend class ScopedSpan;
  bool On;
  mutable std::mutex Mu;
  std::vector<Span> Spans;
  std::atomic<uint64_t> NextId{1};
};

/// RAII span around one call. Its parent is the innermost span still
/// open on the same thread.
class ScopedSpan {
public:
  ScopedSpan(Tracer *T, const char *Name, uint64_t Op);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  /// Renames the span before it closes (for spans classified by their
  /// outcome, like a serve request by the tier that answered it).
  void rename(const char *NewName) { Name = NewName; }

private:
  Tracer *T;
  Span S;
  const char *Name;
  ScopedSpan *Outer;
};

//===----------------------------------------------------------------------===//
// Closed-loop phases.
//===----------------------------------------------------------------------===//

struct PhaseStats {
  std::vector<double> LatencyMs; ///< One per completed op.
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  double WallS = 0;
  double opsPerSec() const {
    return WallS > 0 ? static_cast<double>(LatencyMs.size()) / WallS : 0.0;
  }
};

/// Runs Op(0, W), Op(1, W), ... from \p Threads workers W = 0, 1, ...,
/// each starting its next op only after the previous one returned, in
/// whole quanta of \p Quantum consecutive ops (at least one quantum):
/// a new quantum starts only while \p Seconds have not yet passed, so
/// a workload whose ops differ in cost always runs the same mix. With
/// \p Seconds 0, exactly one quantum runs. Op returns false (or throws)
/// for a wrong or failed op. With a tracer, every op runs inside an
/// "op" span whose op id is its index.
PhaseStats runPhase(unsigned Threads, double Seconds, uint64_t Quantum,
                    Tracer *T,
                    const std::function<bool(uint64_t, unsigned)> &Op);

/// Nearest-rank percentile (0 < Q <= 1) of unsorted samples.
double percentile(std::vector<double> Samples, double Q);

/// Median of \p Samples.
double median(std::vector<double> Samples);

/// Peak resident set of this process, in MiB.
double selfPeakRssMb();

/// Peak resident set of process \p Pid from /proc, in MiB (0 if gone).
double pidPeakRssMb(int Pid);

//===----------------------------------------------------------------------===//
// Results.
//===----------------------------------------------------------------------===//

/// Accumulates metrics and failures, then prints the human table and
/// the final one-line JSON result.
class Report {
public:
  void metric(const std::string &Name, const std::string &Unit,
              double Value);
  /// Counts one checked output; a wrong one is explained on stderr.
  void check(bool Ok, const std::string &What);
  /// Counts the ops of a phase (their failures were explained by the
  /// ops themselves).
  void addPhase(const PhaseStats &P);
  /// A line printed before the result (seed, digests, sources).
  void note(const std::string &Line) { Notes.push_back(Line); }

  /// Prints everything; returns the process exit code.
  int finish(const Options &Opts) const;

private:
  struct Entry {
    std::string Name, Unit;
    double Value;
  };
  std::vector<Entry> Metrics;
  std::vector<std::string> Notes;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// Explains a wrong or failed op on stderr (thread-safe; the first few
/// only, so a systematic failure does not flood the log).
void complain(const std::string &What);

/// Adds the end-to-end metrics every workload reports.
void reportEndToEnd(Report &R, const std::vector<double> &SetupS,
                    const PhaseStats &P, double PeakRssMb);

/// Times \p Setup \p Times times (each a complete, independent set-up)
/// and returns the seconds each took.
std::vector<double> timeSetups(unsigned Times,
                               const std::function<void()> &Setup);

} // namespace perfbench

#endif // FPINT_PERFBENCH_HARNESS_H
