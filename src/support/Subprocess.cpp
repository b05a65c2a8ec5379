//===- support/Subprocess.cpp - Fork-based sandboxed task execution -------===//

#include "support/Subprocess.h"

#include "support/FaultInject.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace fpint;
using namespace fpint::support;

namespace {

double nowSeconds() {
  using namespace std::chrono;
  return duration_cast<duration<double>>(
             steady_clock::now().time_since_epoch())
      .count();
}

void setNonBlocking(int Fd) {
  int Flags = fcntl(Fd, F_GETFL, 0);
  if (Flags >= 0)
    fcntl(Fd, F_SETFL, Flags | O_NONBLOCK);
}

/// Appends everything currently readable from \p Fd to \p Out;
/// returns false once the peer closed (EOF).
bool drainFd(int Fd, std::string &Out) {
  char Buf[4096];
  for (;;) {
    ssize_t N = read(Fd, Buf, sizeof(Buf));
    if (N > 0) {
      Out.append(Buf, static_cast<size_t>(N));
      continue;
    }
    if (N == 0)
      return false; // EOF.
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return true;
    if (errno == EINTR)
      continue;
    return false; // Unexpected error; treat as closed.
  }
}

/// Owns both ends of a pipe(); whatever is still open at scope exit is
/// closed. Every early-return path (second pipe() failing, fork
/// failing) releases its descriptors structurally instead of by
/// hand-written close() sequences.
struct ScopedPipe {
  int Fds[2] = {-1, -1};

  ~ScopedPipe() {
    closeRead();
    closeWrite();
  }
  bool open() { return pipe(Fds) == 0; }
  int readFd() const { return Fds[0]; }
  int writeFd() const { return Fds[1]; }
  void closeRead() {
    if (Fds[0] >= 0) {
      close(Fds[0]);
      Fds[0] = -1;
    }
  }
  void closeWrite() {
    if (Fds[1] >= 0) {
      close(Fds[1]);
      Fds[1] = -1;
    }
  }
};

void applyRlimits(const SandboxLimits &Limits) {
  if (Limits.CpuSeconds > 0) {
    struct rlimit RL;
    RL.rlim_cur = Limits.CpuSeconds;
    RL.rlim_max = Limits.CpuSeconds + 2;
    setrlimit(RLIMIT_CPU, &RL);
  }
  // ASan reserves terabytes of virtual shadow at startup, so any
  // RLIMIT_AS cap makes every subsequent child allocation fail; the
  // wall-clock watchdog still bounds runaway children in those builds.
#if !FPINT_BUILT_WITH_ASAN
  if (Limits.AddressSpaceMb > 0) {
    struct rlimit RL;
    RL.rlim_cur = Limits.AddressSpaceMb << 20;
    RL.rlim_max = Limits.AddressSpaceMb << 20;
    setrlimit(RLIMIT_AS, &RL);
  }
#endif
}

} // namespace

bool Subprocess::writeAll(int Fd, const void *Data, size_t Len) {
  const char *P = static_cast<const char *>(Data);
  while (Len > 0) {
    ssize_t N = write(Fd, P, Len);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    P += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
}

std::string TaskResult::describe() const {
  char Buf[128];
  switch (St) {
  case Status::Ok:
    return "ok";
  case Status::ExitNonZero:
    std::snprintf(Buf, sizeof(Buf), "exit %d", ExitCode);
    return Buf;
  case Status::Signaled: {
    const char *Name = strsignal(TermSignal);
    if (TimedOut)
      std::snprintf(Buf, sizeof(Buf), "timeout after %.1fs (%s)", WallSeconds,
                    Killed ? "SIGKILL" : "SIGTERM");
    else
      std::snprintf(Buf, sizeof(Buf), "signal %d (%s)", TermSignal,
                    Name ? Name : "?");
    return Buf;
  }
  case Status::SpawnFailed:
    return "spawn failed";
  }
  return "?";
}

TaskResult Subprocess::run(const ChildFn &Fn, const SandboxLimits &Limits) {
  TaskResult R;

  // All four descriptors are scope-owned: if the second pipe() or the
  // fork() fails, the destructors release whatever was opened and the
  // caller sees SpawnFailed with the parent's fd table unchanged.
  ScopedPipe PayloadPipe, StderrPipe;
  if (!PayloadPipe.open() || !StderrPipe.open())
    return R;

  const double Start = nowSeconds();
  // The child re-flushes inherited stdio buffers on exit; empty them
  // here so buffered parent output is not duplicated per fork.
  std::fflush(nullptr);
  pid_t Pid = fork();
  if (Pid < 0)
    return R;

  if (Pid == 0) {
    // Child: own process group (so the supervisor can kill everything
    // we might spawn), stderr onto the capture pipe, rlimits, task.
    setpgid(0, 0);
    PayloadPipe.closeRead();
    StderrPipe.closeRead();
    dup2(StderrPipe.writeFd(), 2);
    StderrPipe.closeWrite();
    signal(SIGPIPE, SIG_IGN);
    applyRlimits(Limits);
    int Code = 125;
    try {
      Code = Fn(PayloadPipe.writeFd());
    } catch (const std::exception &E) {
      std::fprintf(stderr, "[subprocess] uncaught exception: %s\n", E.what());
      Code = 125;
    } catch (...) {
      std::fprintf(stderr, "[subprocess] uncaught exception\n");
      Code = 125;
    }
    // _exit, not exit: no atexit handlers (they belong to the parent's
    // lifecycle -- running them here would emit duplicate reports).
    std::fflush(nullptr);
    _exit(Code);
  }

  // Parent / supervisor.
  setpgid(Pid, Pid); // Mirror the child's setpgid (wins either way).
  PayloadPipe.closeWrite();
  StderrPipe.closeWrite();
  setNonBlocking(PayloadPipe.readFd());
  setNonBlocking(StderrPipe.readFd());

  std::string StderrAll;
  const double WallDeadline =
      Limits.WallMs > 0 ? Start + Limits.WallMs / 1000.0 : 0;
  double KillDeadline = 0;
  bool PayloadOpen = true, StderrOpen = true;
  int Status = 0;
  struct rusage Ru;
  std::memset(&Ru, 0, sizeof(Ru));

  for (;;) {
    if (PayloadOpen)
      PayloadOpen = drainFd(PayloadPipe.readFd(), R.Payload);
    if (StderrOpen)
      StderrOpen = drainFd(StderrPipe.readFd(), StderrAll);

    pid_t W = wait4(Pid, &Status, WNOHANG, &Ru);
    if (W == Pid)
      break;
    if (W < 0 && errno != EINTR)
      break; // Should not happen; avoid spinning forever.

    const double Now = nowSeconds();
    if (WallDeadline > 0 && Now >= WallDeadline && !R.TimedOut) {
      R.TimedOut = true;
      kill(-Pid, SIGTERM);
      KillDeadline = Now + Limits.KillGraceMs / 1000.0;
    }
    if (R.TimedOut && !R.Killed && Now >= KillDeadline) {
      R.Killed = true;
      kill(-Pid, SIGKILL);
    }

    struct pollfd Fds[2];
    nfds_t NFds = 0;
    if (PayloadOpen)
      Fds[NFds++] = {PayloadPipe.readFd(), POLLIN, 0};
    if (StderrOpen)
      Fds[NFds++] = {StderrPipe.readFd(), POLLIN, 0};
    poll(NFds ? Fds : nullptr, NFds, 20);
  }

  // Drain whatever the pipes still buffer, then close.
  while (PayloadOpen)
    PayloadOpen = drainFd(PayloadPipe.readFd(), R.Payload);
  while (StderrOpen)
    StderrOpen = drainFd(StderrPipe.readFd(), StderrAll);
  PayloadPipe.closeRead();
  StderrPipe.closeRead();

  R.WallSeconds = nowSeconds() - Start;
  R.PeakRssKb = Ru.ru_maxrss;
  if (StderrAll.size() > Limits.StderrTailBytes)
    StderrAll.erase(0, StderrAll.size() - Limits.StderrTailBytes);
  R.StderrTail = std::move(StderrAll);

  if (WIFEXITED(Status)) {
    R.ExitCode = WEXITSTATUS(Status);
    R.St = R.ExitCode == 0 ? TaskResult::Status::Ok
                           : TaskResult::Status::ExitNonZero;
  } else if (WIFSIGNALED(Status)) {
    R.TermSignal = WTERMSIG(Status);
    R.St = TaskResult::Status::Signaled;
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Supervised
//===----------------------------------------------------------------------===//

namespace {

/// Exit status of a forked task that threw; the same code
/// Subprocess::run gives an exception that escapes its callable.
constexpr int ExceptionExit = 125;

/// Last nonempty line of \p Tail.
std::string lastLine(std::string Tail) {
  while (!Tail.empty() && Tail.back() == '\n')
    Tail.pop_back();
  size_t Line = Tail.rfind('\n');
  return Line == std::string::npos ? Tail : Tail.substr(Line + 1);
}

using Failure = Supervised::Failure;

Failure failureOf(TaskResult &R) {
  Failure F;
  F.Describe = R.describe();
  F.StderrLine = lastLine(R.StderrTail);
  F.Payload = std::move(R.Payload);
  F.ExitCode = R.ExitCode;
  F.Signal = R.TermSignal;
  if (R.TimedOut || R.Killed)
    F.K = Failure::Kind::Timeout;
  else if (R.St == TaskResult::Status::Signaled)
    F.K = Failure::Kind::Crash;
  else if (R.St == TaskResult::Status::SpawnFailed)
    F.K = Failure::Kind::SpawnFailed;
  else
    F.K = R.ExitCode == ExceptionExit ? Failure::Kind::Exception
                                      : Failure::Kind::Exit;
  return F;
}

/// Sets \p Field from the variable \p Name when it holds a number in
/// [\p Lo, \p Hi]; warns and keeps \p Field when it holds anything else.
template <typename T>
void envOverride(const char *Name, uint64_t Lo, uint64_t Hi, T &Field) {
  const char *Text = std::getenv(Name);
  if (!Text)
    return;
  if (std::optional<uint64_t> V = parseDecimal(Text, Lo, Hi))
    Field = static_cast<T>(*V);
  else
    std::fprintf(stderr, "warning: ignoring %s='%s' (not in [%" PRIu64
                         ", %" PRIu64 "])\n", Name, Text, Lo, Hi);
}

} // namespace

std::optional<uint64_t> support::parseDecimal(const char *Text, uint64_t Lo,
                                              uint64_t Hi) {
  const char *End = Text + std::strlen(Text);
  uint64_t V = 0;
  auto [Stop, Ec] = std::from_chars(Text, End, V);
  if (Ec != std::errc() || Stop != End || V < Lo || V > Hi)
    return std::nullopt;
  return V;
}

Supervised::Policy Supervised::Policy::withEnv() const {
  Policy P = *this;
  envOverride("FPINT_SANDBOX_TIMEOUT_MS", 1, MaxTimeoutMs, P.Limits.WallMs);
  envOverride("FPINT_SANDBOX_KILL_GRACE_MS", 0, 60000, P.Limits.KillGraceMs);
  envOverride("FPINT_SANDBOX_AS_MB", 1, 1u << 20, P.Limits.AddressSpaceMb);
  envOverride("FPINT_SANDBOX_RETRIES", 0, 10, P.Retries);
  return P;
}

void Supervised::Sink::write(const std::string &Bytes) {
  if (Buffer)
    *Buffer += Bytes;
  else if (!Subprocess::writeAll(Fd, Bytes))
    WriteFailed = true;
}

const char *Supervised::Failure::kindName() const {
  switch (K) {
  case Kind::Crash:
    return "crash";
  case Kind::Timeout:
    return "timeout";
  case Kind::Exit:
    return "exit";
  case Kind::Exception:
    return "exception";
  case Kind::BadPayload:
    return "bad_payload";
  case Kind::SpawnFailed:
    return "spawn_failed";
  }
  return "?";
}

std::string Supervised::Failure::detail() const {
  return StderrLine.empty() ? Describe : Describe + ": " + StderrLine;
}

Supervised::Result Supervised::run(const Task &T, const Policy &P,
                                   const Accept &A) {
  Result Out;
  const unsigned Attempts = 1 + static_cast<unsigned>(std::max(0, P.Retries));
  for (unsigned Attempt = 1; Attempt <= Attempts; ++Attempt) {
    if (Attempt > 1 && P.BackoffMs > 0)
      std::this_thread::sleep_for(
          std::chrono::milliseconds(P.BackoffMs << (Attempt - 2)));
    Out.Attempts = Attempt;

    std::string Payload;
    std::optional<Failure> F;
    if (P.InProcess) {
      // The attempt counter is process-global: touch it only when a
      // fault site can read it, so concurrent in-process callers
      // without one never race on it.
      const bool Fault = P.FaultSite && fault::enabled();
      Sink S;
      S.Buffer = &Payload;
      try {
        if (Fault) {
          fault::setAttempt(Attempt);
          fault::inject(P.FaultSite);
        }
        T(S);
      } catch (const std::exception &E) {
        F.emplace();
        F->Describe = E.what();
      } catch (...) {
        F.emplace();
        F->Describe = "unknown exception";
      }
      if (Fault)
        fault::setAttempt(1);
      if (F) {
        F->K = Failure::Kind::Exception;
        F->Payload = std::move(Payload);
      }
    } else {
      TaskResult R = Subprocess::run(
          [&](int Fd) {
            // Set in the child: callers fork from pool workers, where a
            // parent-side counter would race across concurrent tasks.
            fault::setAttempt(Attempt);
            Sink S;
            S.Fd = Fd;
            try {
              if (P.FaultSite)
                fault::inject(P.FaultSite);
              T(S);
            } catch (const std::exception &E) {
              std::fprintf(stderr, "%s\n", E.what());
              return ExceptionExit;
            }
            return S.WriteFailed ? 2 : 0;
          },
          P.Limits);
      if (R.ok())
        Payload = std::move(R.Payload);
      else
        F = failureOf(R);
    }

    std::string Why;
    if (!F && (!A || A(Payload, Why))) {
      Out.Payload = std::move(Payload);
      Out.Fail.reset();
      return Out;
    }
    if (!F) {
      F.emplace();
      F->K = Failure::Kind::BadPayload;
      F->Describe = Why.empty() ? "payload rejected" : Why;
      F->Payload = std::move(Payload);
    }
    F->Attempts = Attempt;
    Out.Fail = std::move(F);
  }
  return Out;
}
