//===- support/Subprocess.h - Fork-based sandboxed task execution ---------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process-isolation for harness tasks that may crash, hang, or exhaust
/// memory: Subprocess::run forks a child, runs an arbitrary callable in
/// it under RLIMIT_CPU / RLIMIT_AS, and supervises it with a wall-clock
/// watchdog that escalates SIGTERM -> SIGKILL. The parent structurally
/// captures everything a triage layer needs: exit status or fatal
/// signal, whether the watchdog fired (and whether it had to escalate),
/// the tail of the child's stderr, peak RSS, and an arbitrary byte
/// payload the child streamed back over a pipe.
///
/// Supervised::run is the one entry point the harnesses use on top of
/// it: retries with backoff, fault-site plumbing, typed failures, and
/// an in-process mode -- see docs/ROBUSTNESS.md, "Supervised
/// execution", for its policy, failure kinds and each caller's
/// mapping.
///
/// Forking contract: run() must only be called from a thread that is
/// not racing other threads for locks the child will need (malloc,
/// the run cache). The child runs the callable and _exit()s; it never
/// returns into the caller's stack. Callers that fork from pool
/// workers confine the child to self-contained compile/simulate code
/// (no shared caches, registries, or other parent locks); see
/// serve/Server.h.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_SUPPORT_SUBPROCESS_H
#define FPINT_SUPPORT_SUBPROCESS_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

/// True when this translation unit is compiled under AddressSanitizer.
/// The sandbox skips RLIMIT_AS in that case (ASan's shadow reservation
/// makes any address-space cap fatal to the child), and the tests skip
/// the expectations that depend on it.
#if defined(__SANITIZE_ADDRESS__)
#define FPINT_BUILT_WITH_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FPINT_BUILT_WITH_ASAN 1
#endif
#endif
#ifndef FPINT_BUILT_WITH_ASAN
#define FPINT_BUILT_WITH_ASAN 0
#endif

namespace fpint {
namespace support {

/// Resource and supervision limits applied to one sandboxed task.
struct SandboxLimits {
  /// Wall-clock watchdog in milliseconds; 0 disables the watchdog.
  int WallMs = 0;
  /// Grace between the watchdog's SIGTERM and the SIGKILL escalation.
  int KillGraceMs = 1000;
  /// RLIMIT_CPU in seconds (soft limit; hard limit +2s); 0 inherits.
  uint64_t CpuSeconds = 0;
  /// RLIMIT_AS in MiB; 0 inherits the parent's limit.
  uint64_t AddressSpaceMb = 0;
  /// How much of the child's stderr to retain (the tail).
  size_t StderrTailBytes = 8192;
};

/// Structured outcome of one sandboxed task.
struct TaskResult {
  enum class Status {
    Ok,          ///< Child exited 0.
    ExitNonZero, ///< Child exited with a nonzero code.
    Signaled,    ///< Child died on a signal (SIGSEGV, SIGKILL, ...).
    SpawnFailed, ///< fork/pipe failed; nothing ran.
  };

  Status St = Status::SpawnFailed;
  int ExitCode = -1;   ///< Valid for Ok / ExitNonZero.
  int TermSignal = 0;  ///< Valid for Signaled.
  bool TimedOut = false; ///< Watchdog sent SIGTERM.
  bool Killed = false;   ///< Watchdog escalated to SIGKILL.
  std::string Payload;    ///< Bytes the child wrote to its payload fd.
  std::string StderrTail; ///< Last StderrTailBytes of child stderr.
  long PeakRssKb = 0;     ///< ru_maxrss of the reaped child.
  double WallSeconds = 0; ///< Fork-to-reap wall clock.

  bool ok() const { return St == Status::Ok; }

  /// Human-readable one-liner: "exit 3", "signal 11 (SIGSEGV)",
  /// "timeout after 2.0s (SIGKILL)", "spawn failed".
  std::string describe() const;
};

class Subprocess {
public:
  /// The child-side task. Receives the write end of the payload pipe;
  /// its return value becomes the child's exit code. Exceptions are
  /// caught, reported on stderr, and mapped to exit code 125.
  using ChildFn = std::function<int(int PayloadFd)>;

  /// Forks and runs \p Fn in the child under \p Limits; blocks until
  /// the child is reaped (or the watchdog destroyed it).
  static TaskResult run(const ChildFn &Fn, const SandboxLimits &Limits);

  /// EINTR-safe full write (child-side helper for the payload fd).
  /// Returns false on a write error (e.g. the supervisor died).
  static bool writeAll(int Fd, const void *Data, size_t Len);
  static bool writeAll(int Fd, const std::string &S) {
    return writeAll(Fd, S.data(), S.size());
  }
};

/// Runs a task under a retry policy, forked into a Subprocess sandbox
/// or in the calling process, and returns its payload or a typed
/// Failure. The retry loop, the fault-site plumbing, the child's
/// exception handling and the stderr hint live here and nowhere else.
class Supervised {
public:
  /// Where a task writes its payload: the sandbox's payload pipe, or a
  /// string in-process. Bytes written before a crash reach the caller.
  class Sink {
  public:
    void write(const std::string &Bytes);

  private:
    friend class Supervised;
    int Fd = -1;
    std::string *Buffer = nullptr;
    bool WriteFailed = false;
  };

  /// The task body. Signal failure by throwing.
  using Task = std::function<void(Sink &)>;
  /// The caller's check of a complete payload; returning false with a
  /// reason in \p Why makes the attempt a BadPayload failure.
  using Accept =
      std::function<bool(const std::string &Payload, std::string &Why)>;

  struct Policy {
    SandboxLimits Limits; ///< Ignored in-process.
    int Retries = 0;      ///< Attempts after the first.
    /// Sleep before retry N is BackoffMs << (N - 1); 0 retries at once.
    int BackoffMs = 0;
    /// fault::inject site fired before the task, after the attempt
    /// number is set (in the child when forked); null for none.
    const char *FaultSite = nullptr;
    /// Run in the calling process with an in-memory sink: exceptions
    /// are still typed, but a crash or hang is not contained.
    bool InProcess = false;

    /// This policy with the FPINT_SANDBOX_{TIMEOUT_MS,KILL_GRACE_MS,
    /// AS_MB,RETRIES} overrides; a value that is not a number in range
    /// warns once and keeps this policy's (docs/ARCHITECTURE.md,
    /// "Environment"). Binaries call it once, then apply their flags.
    Policy withEnv() const;
  };

  /// Longest watchdog FPINT_SANDBOX_TIMEOUT_MS accepts (24 h).
  static constexpr uint64_t MaxTimeoutMs = 24ull * 60 * 60 * 1000;

  struct Failure {
    enum class Kind {
      Crash,
      Timeout,
      Exit,
      Exception,
      BadPayload,
      SpawnFailed,
    };
    Kind K = Kind::SpawnFailed;
    int Signal = 0;   ///< Fatal signal (Crash, Timeout).
    int ExitCode = 0; ///< Exit status (Exit, Exception when forked).
    /// TaskResult::describe(); the exception's what() in-process; the
    /// rejection reason for BadPayload.
    std::string Describe;
    std::string StderrLine; ///< Last nonempty stderr line (forked only).
    std::string Payload;    ///< What the task wrote before failing.
    unsigned Attempts = 0;

    /// "crash", "timeout", "exit", "exception", "bad_payload",
    /// "spawn_failed".
    const char *kindName() const;
    /// Describe, then ": " and the stderr line when there is one.
    std::string detail() const;
  };

  struct Result {
    std::string Payload; ///< The accepted payload (ok() only).
    unsigned Attempts = 0;
    std::optional<Failure> Fail; ///< The last attempt's failure.

    bool ok() const { return !Fail; }
  };

  /// Runs \p T up to 1 + \p P.Retries times until an attempt succeeds
  /// and \p A (if given) accepts its payload.
  static Result run(const Task &T, const Policy &P, const Accept &A = {});
};

/// \p Text as a decimal number in [\p Lo, \p Hi] -- digits only, no
/// sign, space or suffix -- else nullopt. The one reader for numeric
/// knobs and flags (FPINT_JOBS, FPINT_SANDBOX_*, --jobs, --timeout-ms).
std::optional<uint64_t> parseDecimal(const char *Text, uint64_t Lo,
                                     uint64_t Hi);

} // namespace support
} // namespace fpint

#endif // FPINT_SUPPORT_SUBPROCESS_H
