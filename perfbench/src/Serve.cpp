//===- perfbench/src/Serve.cpp - The serve workload -----------------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the shipped fpint-serve daemon, with its default sandbox, over
/// its Unix socket from one client thread per connection, closed loop.
///
/// Requests are small integer kernels. Most come from a shared pool of
/// keys that an earlier daemon lifetime computed during set-up, so each
/// pool key hits the disk tier on first touch and the memory tier after
/// that; a seeded fraction are unique modules that miss, run in the
/// sandbox and write the disk tier. The request stream is a pure
/// function of the seed.
///
/// Checks: every body has status "ok"; every pool body, whichever tier
/// answered it (the set-up miss, the disk tier, the memory tier), is
/// byte-identical to the body computed in-process for the same request
/// (parse, compileAndMeasure, simulate, serve::okBody); so is a seeded
/// sample of the unique bodies.
///
//===----------------------------------------------------------------------===//

#include "Layers.h"
#include "Workloads.h"

#include "serve/DiskCache.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "sir/Parser.h"
#include "support/Rng.h"
#include "support/Subprocess.h"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <sstream>

#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace perfbench;
using namespace fpint;

namespace {

//===----------------------------------------------------------------------===//
// Request stream.
//===----------------------------------------------------------------------===//

/// A small kernel of kind \p Kind (0-2) whose content address varies
/// with \p Variant through a global initializer.
std::string kernelText(unsigned Kind, uint32_t Variant) {
  const std::string K = std::to_string(Variant & 0x7fffffff);
  switch (Kind % 3) {
  case 0: // Vector add (the fpint-loadgen kernel).
    return "global a 8 = 3 1 4 1 5 9 2 6\n"
           "global b 8 = 2 7 1 8 2 8 1 8\n"
           "global k 1 = " + K + "\n"
           "global c 8\n\n"
           "func main() {\n"
           "entry:\n"
           "  li %i, 0\n  li %n, 8\n  la %pa, a\n  la %pb, b\n"
           "  la %pc, c\n  lw %vk, k\n"
           "loop:\n"
           "  sll %off, %i, 2\n  add %ea, %pa, %off\n  lw %va, 0(%ea)\n"
           "  add %eb, %pb, %off\n  lw %vb, 0(%eb)\n  add %vc, %va, %vb\n"
           "  add %vs, %vc, %vk\n  add %ec, %pc, %off\n  sw %vs, 0(%ec)\n"
           "  addi %i, %i, 1\n  slt %t, %i, %n\n  bne %t, %zero, loop\n"
           "  lw %o, c+4\n  out %o\n  ret\n}\n";
  case 1: // Multiply-accumulate with a data-dependent branch.
    return "global a 16 = 5 3 8 1 9 2 7 4 6 0 3 8 2 9 1 5\n"
           "global k 1 = " + K + "\n"
           "global r 1\n\n"
           "func main() {\n"
           "entry:\n"
           "  li %i, 0\n  li %n, 16\n  li %acc, 0\n  la %pa, a\n"
           "  lw %vk, k\n"
           "loop:\n"
           "  sll %off, %i, 2\n  add %ea, %pa, %off\n  lw %va, 0(%ea)\n"
           "  mul %m, %va, %vk\n  add %acc, %acc, %m\n"
           "  andi %lo, %m, 255\n  slti %t0, %lo, 128\n"
           "  beq %t0, %zero, skip\n  addi %acc, %acc, 1\n"
           "skip:\n"
           "  addi %i, %i, 1\n  slt %t, %i, %n\n  bne %t, %zero, loop\n"
           "  sw %acc, r\n  out %acc\n  ret\n}\n";
  default: // Running maximum of a keyed scan.
    return "global a 12 = 4 -2 9 7 -5 3 11 0 6 -8 2 10\n"
           "global k 1 = " + K + "\n\n"
           "func main() {\n"
           "entry:\n"
           "  li %i, 0\n  li %n, 12\n  la %pa, a\n  lw %vk, k\n"
           "  andi %best, %vk, 1023\n"
           "loop:\n"
           "  sll %off, %i, 2\n  add %ea, %pa, %off\n  lw %va, 0(%ea)\n"
           "  xor %vx, %va, %vk\n  andi %vm, %vx, 4095\n"
           "  slt %gt, %best, %vm\n  beq %gt, %zero, next\n"
           "  move %best, %vm\n"
           "next:\n"
           "  addi %i, %i, 1\n  slt %t, %i, %n\n  bne %t, %zero, loop\n"
           "  out %best\n  ret\n}\n";
  }
}

std::string requestText(unsigned Kind, uint32_t Variant, unsigned Scheme,
                        unsigned Base) {
  static const char *Schemes[] = {"none", "basic", "advanced"};
  static const char *Bases[] = {"4-way", "8-way"};
  json::Value Pipeline = json::Value::object();
  Pipeline.set("scheme", Schemes[Scheme % 3]);
  json::Value Machine = json::Value::object();
  Machine.set("base", Bases[Base % 2]);
  json::Value Doc = json::Value::object();
  Doc.set("op", "compile");
  Doc.set("module", kernelText(Kind, Variant));
  Doc.set("pipeline", std::move(Pipeline));
  Doc.set("machine", std::move(Machine));
  Doc.set("simulate", true);
  return Doc.dump();
}

/// The seeded request stream: pool keys live below 2^30, unique
/// modules at or above it, so the two never share a key. The pool asks
/// for each of its modules on both Table 1 machines.
class Schedule {
public:
  Schedule(uint64_t Seed, size_t PoolSize)
      : Seed(Seed), Salt(fpint::Rng(Seed).next()) {
    for (size_t I = 0; I < PoolSize; ++I) {
      const size_t Module = I / 2;
      Pool.push_back(requestText(
          static_cast<unsigned>(Module % 3),
          static_cast<uint32_t>((Salt * 1024 + Module) & 0x3fffffff),
          static_cast<unsigned>(Module / 3), static_cast<unsigned>(I)));
    }
  }

  /// One request in this many misses. At one in five, op_p50_ms falls
  /// among the memory hits and op_p90_ms and op_p99_ms among the
  /// misses, away from the edge between them, where a percentile
  /// jumps with small shifts in the mix.
  static constexpr uint64_t UniqueOneIn = 5;

  /// Request \p Idx: a pool index, or -1 with the unique text in \p Text.
  long at(uint64_t Idx, std::string &Text) const {
    fpint::Rng G(Seed ^ (Idx * 0xd1b54a32d192ed03ULL));
    if (G.nextBelow(UniqueOneIn) != 0)
      return static_cast<long>(G.nextBelow(Pool.size()));
    Text = unique(Idx, G.next());
    return -1;
  }

  std::string unique(uint64_t Idx, uint64_t Draw) const {
    return requestText(static_cast<unsigned>(Draw % 3),
                       static_cast<uint32_t>(0x40000000u |
                                             ((Salt + Idx) & 0x3fffffff)),
                       static_cast<unsigned>(Draw / 3),
                       static_cast<unsigned>(Draw / 9));
  }

  const std::string &text(long PoolIdx, const std::string &Unique) const {
    return PoolIdx < 0 ? Unique : Pool[static_cast<size_t>(PoolIdx)];
  }

  /// FNV-1a over the first \p N requests, to show that equal seeds give
  /// byte-identical streams.
  uint64_t digest(uint64_t N) const {
    uint64_t H = 1469598103934665603ULL;
    for (uint64_t I = 0; I < N; ++I) {
      std::string U;
      const std::string &T = text(at(I, U), U);
      for (unsigned char C : T)
        H = (H ^ C) * 1099511628211ULL;
    }
    return H;
  }

  std::vector<std::string> Pool;

private:
  uint64_t Seed;
  uint64_t Salt;
};

/// What fpint-serve answers for \p Request, computed in-process the way
/// its miss path does, through \p Cache (a module asked for on both
/// machines compiles once). With a tracer, the compile layers are
/// spanned.
bool expectedBody(const std::string &Request, core::RunCache &Cache,
                  Tracer *T, LayerLog *L, uint64_t &Cycles,
                  std::string &Body) {
  serve::Request Req;
  std::string Err;
  if (!serve::parseRequest(Request, Req, Err))
    return false;
  sir::ParseResult PR;
  {
    ScopedSpan S(T, "sir.parse", 0);
    PR = sir::parseModule(Req.ModuleText);
  }
  if (!PR.ok())
    return false;
  const uint64_t Compiles = Cache.stats().CompileMisses;
  core::RunCache::RunPtr Run = compileCell(
      T, L, Cache, *PR.M,
      "request-" + std::to_string(std::hash<std::string>()(Req.ModuleText)),
      Req.Pipeline, 0);
  if (!Run)
    return false;
  timing::SimStats Sim;
  {
    ScopedSpan S(T, "timing.sim", 0);
    Sim = Cache.simulate(Run, Req.Machine);
  }
  Cycles = Sim.Cycles;
  if (L) {
    L->simulated(Sim.Cycles);
    if (Cache.stats().CompileMisses > Compiles &&
        !probeVm(T, *L, *PR.M, *Run, Request, 0))
      return false;
  }
  Body = serve::okBody(*Run, &Sim).dump();
  return true;
}

//===----------------------------------------------------------------------===//
// The daemon and its clients.
//===----------------------------------------------------------------------===//

/// One fpint-serve process on a socket in the run directory.
class Daemon {
public:
  Daemon(const Options &Opts, const std::string &CacheDir, unsigned Id)
      : Socket(Opts.RunDir + "/s" + std::to_string(Id) + ".sock") {
    const std::string Log = Opts.RunDir + "/daemon" + std::to_string(Id) +
                            ".log";
    std::vector<std::string> Args = {Opts.ServeBin, "--socket", Socket,
                                     "--cache-dir", CacheDir};
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);
    posix_spawn_file_actions_t Fa;
    posix_spawn_file_actions_init(&Fa);
    posix_spawn_file_actions_addopen(&Fa, STDOUT_FILENO, Log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&Fa, STDOUT_FILENO, STDERR_FILENO);
    // The daemon, and the sandbox children it forks, keep to one
    // processor: the last this process may use. On free processors a
    // child was reaped either at once or only after the supervisor's
    // 20 ms poll interval, with shares that moved with how busy the
    // guest was, so miss latencies fell into two groups 20 ms apart and
    // op_p99_ms jumped from one to the other between runs. On one
    // processor every miss waits out the interval (see sandboxFloorMain)
    // and the clients' misses share it. The spawned process
    // inherits the calling thread's mask, which is then restored.
    cpu_set_t Own, One;
    sched_getaffinity(0, sizeof(Own), &Own);
    CPU_ZERO(&One);
    for (int C = CPU_SETSIZE - 1; C >= 0; --C)
      if (CPU_ISSET(C, &Own)) {
        CPU_SET(C, &One);
        break;
      }
    sched_setaffinity(0, sizeof(One), &One);
    if (posix_spawn(&Pid, Opts.ServeBin.c_str(), &Fa, nullptr, Argv.data(),
                    environ) != 0)
      Pid = -1;
    sched_setaffinity(0, sizeof(Own), &Own);
    posix_spawn_file_actions_destroy(&Fa);
    Up = Pid > 0 && waitReady();
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  bool up() const { return Up; }
  const std::string &socket() const { return Socket; }
  double peakRssMb() const { return Pid > 0 ? pidPeakRssMb(Pid) : 0.0; }

  /// SIGTERM drains the accept loop; all client connections must be
  /// closed first, or the daemon waits for them.
  void stop() {
    if (Pid <= 0)
      return;
    kill(Pid, SIGTERM);
    int Status = 0;
    for (int I = 0; I < 1000 && waitpid(Pid, &Status, WNOHANG) == 0; ++I)
      usleep(10 * 1000);
    if (waitpid(Pid, &Status, WNOHANG) == 0) {
      kill(Pid, SIGKILL);
      waitpid(Pid, &Status, 0);
    }
    Pid = -1;
  }

private:
  bool waitReady() {
    for (int I = 0; I < 1000; ++I) {
      int Status = 0;
      if (waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        return false;
      }
      std::string Err, Resp;
      int Fd = serve::connectUnix(Socket, Err);
      if (Fd >= 0) {
        bool Ok = serve::writeFrame(Fd, "{\"op\": \"ping\"}") &&
                  serve::readFrame(Fd, 1u << 20, Resp) ==
                      serve::FrameStatus::Ok;
        close(Fd);
        if (Ok)
          return true;
      }
      usleep(10 * 1000);
    }
    return false;
  }

  std::string Socket;
  pid_t Pid = -1;
  bool Up = false;
};

/// One connection per client thread.
class Clients {
public:
  Clients(const Daemon &D, unsigned N) {
    for (unsigned I = 0; I < N; ++I) {
      std::string Err;
      Fds.push_back(serve::connectUnix(D.socket(), Err));
    }
  }
  ~Clients() {
    for (int Fd : Fds)
      if (Fd >= 0)
        close(Fd);
  }
  Clients(const Clients &) = delete;
  Clients &operator=(const Clients &) = delete;

  bool roundTrip(unsigned Client, const std::string &Req,
                 std::string &Resp) const {
    const int Fd = Fds[Client];
    return Fd >= 0 && serve::writeFrame(Fd, Req) &&
           serve::readFrame(Fd, 64u << 20, Resp) == serve::FrameStatus::Ok;
  }

private:
  std::vector<int> Fds;
};

/// The "body" member and "cache.tier" of a response document.
bool splitResponse(const std::string &Resp, std::string &Body,
                   std::string &Tier) {
  json::Value Doc;
  std::string Err;
  if (!json::Value::parse(Resp, Doc, &Err))
    return false;
  const json::Value *B = Doc.find("body");
  const json::Value *C = Doc.find("cache");
  if (!B || !C)
    return false;
  Body = B->dump();
  Tier = C->strOr("tier", "");
  return B->strOr("status", "") == "ok";
}

//===----------------------------------------------------------------------===//
// In-process layer decomposition.
//===----------------------------------------------------------------------===//

/// Fills a fresh disk tier with \p Pool through one Server lifetime,
/// then answers \p Stream through a second, spanning each layer call.
void serveLayers(const Options &Opts, Report &R, Tracer &T,
                 const std::vector<std::string> &Pool,
                 const std::vector<std::string> &Stream) {
  namespace fs = std::filesystem;
  const std::string Dir = Opts.RunDir + "/inproc";
  fs::remove_all(Dir);
  serve::ServerOptions SO;
  SO.CacheDir = Dir + "/cache";
  {
    serve::Server Fill(SO);
    for (const std::string &Req : Pool) {
      std::string Body, Tier;
      R.check(splitResponse(Fill.handleRequest(Req), Body, Tier),
              "in-process pool fill");
    }
  }

  serve::Server S(SO);
  serve::DiskCache Probe(serve::DiskCache::Options{Dir + "/probe", 8192});
  for (size_t I = 0; I < Stream.size(); ++I) {
    const std::string &Req = Stream[I];
    serve::Request Parsed;
    std::string Err;
    {
      ScopedSpan Sp(&T, "serve.parse_request", I);
      serve::parseRequest(Req, Parsed, Err);
    }
    json::Value ReqDoc;
    {
      ScopedSpan Sp(&T, "support.json_parse", I);
      json::Value::parse(Req, ReqDoc, &Err);
    }
    {
      ScopedSpan Sp(&T, "support.json_dump", I);
      ReqDoc.dump();
    }

    std::string Resp;
    {
      ScopedSpan Sp(&T, "serve.miss", I);
      const serve::Server::Counters Before = S.counters();
      Resp = S.handleRequest(Req);
      const serve::Server::Counters After = S.counters();
      if (After.MemHits > Before.MemHits)
        Sp.rename("serve.mem_hit");
      else if (After.DiskHits > Before.DiskHits)
        Sp.rename("serve.disk_hit");
    }
    json::Value RespDoc;
    {
      ScopedSpan Sp(&T, "support.json_parse", I);
      json::Value::parse(Resp, RespDoc, &Err);
    }
    {
      ScopedSpan Sp(&T, "support.json_dump", I);
      RespDoc.dump();
    }
    std::string Body, Tier;
    R.check(splitResponse(Resp, Body, Tier), "in-process request " +
                                                 std::to_string(I));
    const json::Value *Cache = RespDoc.find("cache");
    const std::string Key = Cache ? Cache->strOr("key", "") : "";
    std::string Back;
    {
      ScopedSpan Sp(&T, "serve.disk_put", I);
      Probe.put(Key, Body);
    }
    {
      ScopedSpan Sp(&T, "serve.disk_get", I);
      Probe.get(Key, Back);
    }
    R.check(Back == Body, "disk tier round trip of request " +
                              std::to_string(I));
  }

  const std::map<std::string, Tracer::Layer> Ls = T.layers();
  auto Mean = [&](const char *Name) {
    auto It = Ls.find(Name);
    return It == Ls.end() ? 0.0 : It->second.meanSelfMs();
  };
  const serve::Server::Counters C = S.counters();
  R.metric("serve.mem_hit_ms", "ms", Mean("serve.mem_hit"));
  R.metric("serve.disk_hit_ms", "ms", Mean("serve.disk_hit"));
  R.metric("serve.miss_ms", "ms", Mean("serve.miss"));
  R.metric("serve.hit_ratio", "ratio",
           C.Requests ? static_cast<double>(C.MemHits + C.DiskHits) /
                            static_cast<double>(C.Requests)
                      : 0.0);
  R.metric("serve.parse_request_ms", "ms", Mean("serve.parse_request"));
  R.metric("serve.disk_get_ms", "ms", Mean("serve.disk_get"));
  R.metric("serve.disk_put_ms", "ms", Mean("serve.disk_put"));
  R.metric("support.json_parse_ms", "ms", Mean("support.json_parse"));
  R.metric("support.json_dump_ms", "ms", Mean("support.json_dump"));
  R.note("  in-process serve: " + std::to_string(C.Requests) +
         " requests, " + std::to_string(C.MemHits) + " memory hits, " +
         std::to_string(C.DiskHits) + " disk hits, " +
         std::to_string(C.Misses) + " misses, " +
         std::to_string(C.SandboxDeaths) + " sandbox deaths, " +
         std::to_string(C.BadRequests) + " bad requests");
  R.check(C.SandboxDeaths == 0 && C.BadRequests == 0,
          "in-process serve: sandbox deaths or bad requests");
  fs::remove_all(Dir);
}

} // namespace

int perfbench::sandboxFloorMain(unsigned Calls) {
  // The supervisor and its children (which inherit the mask) share one
  // processor, as they do on a busy host. The child closing its pipes
  // at exit then wakes the supervisor before the child can be reaped,
  // and the supervisor waits out its poll interval, as the serving
  // daemon's misses do. On two idle processors the child is usually
  // reaped first and the interval does not show.
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(sched_getcpu(), &One);
  sched_setaffinity(0, sizeof(One), &One);
  auto NoOp = [] {
    return support::Subprocess::run([](int) { return 0; },
                                    support::SandboxLimits());
  };
  NoOp(); // Warm-up: the first fork of a process is not typical.
  for (unsigned I = 0; I < Calls; ++I) {
    const int64_t Start = steadyNs();
    const support::TaskResult TR = NoOp();
    const int64_t End = steadyNs();
    std::printf("%lld %lld %d\n", static_cast<long long>(Start),
                static_cast<long long>(End), TR.ok() ? 1 : 0);
  }
  return 0;
}

void perfbench::reportSandboxFloor(const Options &Opts, Report &R,
                                   Tracer &T) {
  // The calls run in a helper: a fresh fpint-perfbench that loads no
  // workload and keeps to one processor (see sandboxFloorMain).
  const unsigned Calls = Opts.Tiny ? 3 : 10;
  std::string Count = std::to_string(Calls);
  std::string Self = "/proc/self/exe", Flag = "--sandbox-floor";
  char *Argv[] = {Self.data(), Flag.data(), Count.data(), nullptr};
  int Out[2];
  pid_t Pid = -1;
  if (pipe(Out) == 0) {
    posix_spawn_file_actions_t Fa;
    posix_spawn_file_actions_init(&Fa);
    posix_spawn_file_actions_adddup2(&Fa, Out[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&Fa, Out[0]);
    if (posix_spawn(&Pid, Self.c_str(), &Fa, nullptr, Argv, environ) != 0)
      Pid = -1;
    posix_spawn_file_actions_destroy(&Fa);
    close(Out[1]);
  }
  std::string Text;
  char Buf[4096];
  ssize_t N;
  while (Pid > 0 && (N = read(Out[0], Buf, sizeof(Buf))) > 0)
    Text.append(Buf, static_cast<size_t>(N));
  close(Out[0]);
  int Status = -1;
  if (Pid > 0)
    waitpid(Pid, &Status, 0);

  std::vector<double> Ms;
  std::istringstream In(Text);
  long long Start = 0, End = 0;
  int Ok = 0;
  for (unsigned I = 0; In >> Start >> End >> Ok; ++I) {
    T.record("support.subprocess", Start, End, I);
    Ms.push_back(static_cast<double>(End - Start) / 1e6);
    R.check(Ok == 1, "no-op subprocess " + std::to_string(I) + " failed");
  }
  R.check(Pid > 0 && Status == 0 && Ms.size() == Calls,
          "sandbox floor helper: " + std::to_string(Ms.size()) + " of " +
              Count + " calls");
  R.metric("support.subprocess_ms", "ms", median(Ms));
}

void perfbench::reportServeCensus(const Options &Opts, Report &R,
                                  Tracer &T) {
  // Every pool key once from disk, once from memory, then misses.
  const Schedule Sched(Opts.Seed, 6);
  std::vector<std::string> Stream = Sched.Pool;
  Stream.insert(Stream.end(), Sched.Pool.begin(), Sched.Pool.end());
  for (uint64_t I = 0; I < 3; ++I)
    Stream.push_back(Sched.unique(I, I));
  serveLayers(Opts, R, T, Sched.Pool, Stream);
}

void perfbench::runServe(const Options &Opts, Report &R) {
  namespace fs = std::filesystem;
  const size_t PoolSize = Opts.Tiny ? 12 : 32;
  const Schedule Sched(Opts.Seed, PoolSize);
  R.note("  schedule digest " + std::to_string(Sched.digest(256)) +
         " (first 256 requests), pool " + std::to_string(PoolSize) +
         ", one in " + std::to_string(Schedule::UniqueOneIn) + " unique");

  Tracer T(Opts.Trace);
  LayerLog L;
  if (Opts.Trace)
    reportSandboxFloor(Opts, R, T);
  std::vector<std::string> Expected;
  std::vector<uint64_t> PoolCycles;
  std::unique_ptr<Daemon> Serving;
  unsigned Lifetimes = 0;

  // Set-up: expected bodies in-process, then one daemon lifetime that
  // computes the pool into a fresh disk tier, then the daemon the timed
  // phase talks to, on the same disk tier.
  auto Setup = [&] {
    Serving.reset();
    const std::string CacheDir = Opts.RunDir + "/cache";
    fs::remove_all(CacheDir);
    Expected.assign(PoolSize, "");
    PoolCycles.assign(PoolSize, 0);
    core::RunCache Cache;
    for (size_t I = 0; I < PoolSize; ++I)
      R.check(expectedBody(Sched.Pool[I], Cache, T.on() ? &T : nullptr,
                           T.on() ? &L : nullptr, PoolCycles[I],
                           Expected[I]),
              "in-process pool request " + std::to_string(I));
    if (T.on())
      L.cacheStats(Cache.stats());
    {
      Daemon Filler(Opts, CacheDir, Lifetimes++);
      R.check(Filler.up(), "fpint-serve did not come up");
      Clients C(Filler, Opts.Threads);
      R.addPhase(runPhase(
          Opts.Threads, 0, PoolSize, nullptr, [&](uint64_t I, unsigned W) {
            std::string Resp, Body, Tier;
            if (C.roundTrip(W, Sched.Pool[I], Resp) &&
                splitResponse(Resp, Body, Tier) && Body == Expected[I])
              return true;
            complain("pool request " + std::to_string(I) +
                     " while filling the disk tier");
            return false;
          }));
    }
    Serving = std::make_unique<Daemon>(Opts, CacheDir, Lifetimes++);
    R.check(Serving->up(), "fpint-serve did not come up");
  };
  const std::vector<double> SetupS = timeSetups(3, Setup);
  if (!Serving->up())
    return;

  // Responses are kept raw and checked after the phase, so an op is
  // only the round trip.
  std::vector<std::vector<std::pair<uint64_t, std::string>>> Answers(
      Opts.Threads);
  uint64_t Base = 0;
  // The daemon's memory tier keeps every body it answers until it holds
  // serve::ServerOptions::MemCacheEntries of them, so its high-water
  // mark grows with the misses completed. It is read when request
  // RssAt is answered (about 11 s into a run on a 4-vCPU VM), so
  // peak_rss_mb does not follow throughput.
  const uint64_t RssAt = Opts.Tiny ? 50 : 1000;
  double DaemonRssMb = 0;
  auto Phase = [&](double Seconds, Tracer *Tr) {
    Clients C(*Serving, Opts.Threads);
    PhaseStats P = runPhase(Opts.Threads, Seconds, 1, Tr,
                            [&](uint64_t Idx, unsigned W) {
                              std::string Unique, Resp;
                              const long PI = Sched.at(Base + Idx, Unique);
                              if (!C.roundTrip(W, Sched.text(PI, Unique),
                                               Resp)) {
                                complain("transport error at request " +
                                         std::to_string(Base + Idx));
                                return false;
                              }
                              Answers[W].emplace_back(Base + Idx,
                                                      std::move(Resp));
                              if (Base + Idx + 1 == RssAt)
                                DaemonRssMb = Serving->peakRssMb();
                              return true;
                            });
    Base += P.Attempted;
    R.addPhase(P);
    return P;
  };

  PhaseStats U = Phase(Opts.Trace ? Opts.Seconds / 2 : Opts.Seconds, nullptr);
  PhaseStats Tr;
  if (Opts.Trace)
    Tr = Phase(Opts.Seconds / 2, &T);
  if (DaemonRssMb == 0) {
    DaemonRssMb = Serving->peakRssMb();
    R.note("  daemon peak RSS read at the end: the run ended before "
           "request " + std::to_string(RssAt));
  }
  Serving.reset();

  // Every body must be ok and every pool body byte-identical to the
  // in-process one. Unique bodies are recomputed in-process for a
  // seeded sample only: one recomputation costs as much as the miss.
  uint64_t Tiers[3] = {0, 0, 0}; // memory, disk, none
  std::vector<std::pair<uint64_t, std::string>> UniqueBodies;
  for (const auto &PerClient : Answers)
    for (const auto &[Idx, Resp] : PerClient) {
      std::string Body, Tier, Unique;
      const bool Ok = splitResponse(Resp, Body, Tier);
      ++Tiers[Tier == "memory" ? 0 : Tier == "disk" ? 1 : 2];
      const long PI = Sched.at(Idx, Unique);
      if (PI < 0 && Ok)
        UniqueBodies.emplace_back(Idx, std::move(Body));
      else
        R.check(Ok && Body == Expected[static_cast<size_t>(PI)],
                "request " + std::to_string(Idx) + " (tier " + Tier +
                    ") body differs from the in-process body");
    }
  Answers = {};
  std::sort(UniqueBodies.begin(), UniqueBodies.end());
  const std::vector<size_t> Sample =
      permutation(UniqueBodies.size(), Opts.Seed ^ 0x5eedc0deULL);
  for (size_t K = 0; K < Sample.size() && K < 32; ++K) {
    const auto &[Idx, Body] = UniqueBodies[Sample[K]];
    std::string Unique, Want;
    uint64_t Cycles = 0;
    Sched.at(Idx, Unique);
    core::RunCache Cache;
    R.check(expectedBody(Unique, Cache, nullptr, nullptr, Cycles, Want) &&
                Body == Want,
            "request " + std::to_string(Idx) +
                " (unique) body differs from the in-process body");
  }
  R.note("  daemon answers: " + std::to_string(Tiers[0]) + " memory, " +
         std::to_string(Tiers[1]) + " disk, " + std::to_string(Tiers[2]) +
         " miss");

  if (!Opts.Trace) {
    reportEndToEnd(R, SetupS, U, DaemonRssMb);
    return;
  }

  double CyclesPerOp = 0;
  for (uint64_t C : PoolCycles)
    CyclesPerOp += static_cast<double>(C);
  CyclesPerOp /= static_cast<double>(PoolSize);
  std::vector<std::string> Stream;
  for (uint64_t I = 0; I < (Opts.Tiny ? 60u : 400u); ++I) {
    std::string Unique;
    Stream.push_back(Sched.text(Sched.at(I, Unique), Unique));
  }
  reportCompileLayers(R, T, L, CyclesPerOp);
  serveLayers(Opts, R, T, Sched.Pool, Stream);
  reportOverhead(R, U, Tr);
  std::string Err;
  R.check(T.write(Opts.TraceOut, Err), Err);
}
