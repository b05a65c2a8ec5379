//===- serve/Server.cpp - Compilation-as-a-service request engine ---------===//

#include "serve/Server.h"

#include "sir/Parser.h"
#include "support/ThreadPool.h"
#include "timing/Simulator.h"
#include "vm/Trap.h"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <mutex>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace fpint;
using namespace fpint::serve;
using json::Value;

//===----------------------------------------------------------------------===//
// Deterministic request execution (runs inside the sandbox child, or
// in-process under an InProcess policy).
//===----------------------------------------------------------------------===//

namespace {

Value computeBody(const Request &Req) {
  sir::ParseResult PR = sir::parseModule(Req.ModuleText);
  if (!PR.ok())
    return errorBody("parse_error",
                     "line " + std::to_string(PR.Line) + ": " + PR.Error);

  core::PipelineRun Run = core::compileAndMeasure(*PR.M, Req.Pipeline);
  if (!Run.ok()) {
    std::string Detail =
        Run.Errors.empty() ? "output mismatch" : Run.Errors[0];
    return errorBody("compile_error", Detail);
  }

  if (!Req.Simulate)
    return okBody(Run, nullptr);
  try {
    timing::SimStats S = core::simulate(Run, Req.Machine);
    return okBody(Run, &S);
  } catch (const timing::SimulationOverrun &O) {
    return errorBody("overrun",
                     "simulation exceeded " + std::to_string(O.Limit) +
                         " cycles (" + std::to_string(O.Retired) + "/" +
                         std::to_string(O.TraceSize) +
                         " instructions retired)");
  }
}

} // namespace

std::pair<Value, bool> Server::execute(const Request &Req) {
  Value Body;
  support::Supervised::Result R = support::Supervised::run(
      [&Req](support::Supervised::Sink &S) {
        S.write(computeBody(Req).dump());
      },
      Opts.Policy,
      [&Body](const std::string &Payload, std::string &Why) {
        return json::Value::parse(Payload, Body, &Why) && Body.isObject();
      });
  if (R.ok()) {
    const Value *Error = Body.find("error");
    bool Cacheable = Body.strOr("status", "") == "ok" ||
                     isDeterministicErrorKind(
                         Error ? Error->strOr("kind", "") : "");
    return {std::move(Body), Cacheable};
  }

  using Kind = support::Supervised::Failure::Kind;
  const support::Supervised::Failure &F = *R.Fail;
  if (F.K == Kind::BadPayload)
    return {errorBody("internal", "malformed sandbox payload"), false};
  // The sandbox contained a death (or, in-process, the request threw);
  // type it for the client. None of these are deterministic functions
  // of the request, so none are cached -- a retry after a transient
  // fault can still succeed.
  if (!Opts.Policy.InProcess) {
    std::lock_guard<std::mutex> Lock(Mu);
    ++Counts.SandboxDeaths;
  }
  const char *ErrKind = F.K == Kind::Timeout       ? "timeout"
                        : F.K == Kind::Crash       ? "crash"
                        : F.K == Kind::SpawnFailed ? "spawn_failed"
                                                   : "internal";
  return {errorBody(ErrKind, F.detail()), false};
}

//===----------------------------------------------------------------------===//
// Caching and response assembly.
//===----------------------------------------------------------------------===//

Server::Server(ServerOptions O)
    : Opts(std::move(O)),
      Disk(DiskCache::Options{Opts.CacheDir, ServerOptions::DiskCacheEntries}) {}

Server::~Server() = default;

bool Server::memGet(const std::string &Key, std::string &Body) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = MemCache.find(Key);
  if (It == MemCache.end())
    return false;
  Body = It->second;
  return true;
}

void Server::memPut(const std::string &Key, const std::string &Body) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (MemCache.emplace(Key, Body).second) {
    MemOrder.push_back(Key);
    while (MemOrder.size() > ServerOptions::MemCacheEntries) {
      MemCache.erase(MemOrder.front());
      MemOrder.pop_front();
    }
  }
}

std::string Server::respond(const Value &Body, const char *Tier,
                            const std::string &Key) {
  Counters C = counters();
  DiskCache::Counters D = Disk.counters();

  Value Cache = Value::object();
  Cache.set("tier", Tier);
  if (!Key.empty())
    Cache.set("key", Key);
  Cache.set("mem_hits", C.MemHits);
  Cache.set("disk_hits", D.Hits);
  Cache.set("disk_misses", D.Misses);
  Cache.set("disk_stores", D.Stores);
  Cache.set("disk_evictions", D.Evictions);
  Cache.set("disk_invalidations", D.Invalidations);

  Value Doc = Value::object();
  Doc.set("schema", ResponseSchema);
  Doc.set("body", Body);
  Doc.set("cache", std::move(Cache));
  return Doc.dump();
}

std::string Server::handleRequest(const std::string &RequestBytes) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    ++Counts.Requests;
  }

  Request Req;
  std::string Err;
  if (!parseRequest(RequestBytes, Req, Err)) {
    {
      // Scoped: respond() re-locks Mu for the counter snapshot.
      std::lock_guard<std::mutex> Lock(Mu);
      ++Counts.BadRequests;
      ++Counts.ErrorBodies;
    }
    return respond(errorBody("bad_request", Err), "none", "");
  }

  if (Req.Op == RequestOp::Ping) {
    Value Result = Value::object();
    Result.set("pong", true);
    Value Body = Value::object();
    Body.set("status", "ok");
    Body.set("result", std::move(Result));
    return respond(Body, "none", "");
  }

  if (Req.Op == RequestOp::Stats) {
    Counters C = counters();
    DiskCache::Counters D = Disk.counters();
    Value Result = Value::object();
    Result.set("requests", C.Requests);
    Result.set("mem_hits", C.MemHits);
    Result.set("disk_hits", C.DiskHits);
    Result.set("misses", C.Misses);
    Result.set("bad_requests", C.BadRequests);
    Result.set("error_bodies", C.ErrorBodies);
    Result.set("sandbox_deaths", C.SandboxDeaths);
    Result.set("disk_entries", Disk.entryCount());
    Result.set("disk_stores", D.Stores);
    Result.set("disk_evictions", D.Evictions);
    Result.set("disk_invalidations", D.Invalidations);
    Value Body = Value::object();
    Body.set("status", "ok");
    Body.set("result", std::move(Result));
    return respond(Body, "none", "");
  }

  if (Req.Simulate && !Req.Pipeline.RunRegisterAllocation) {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      ++Counts.BadRequests;
      ++Counts.ErrorBodies;
    }
    return respond(errorBody("bad_request",
                             "simulation requires register allocation"),
                   "none", "");
  }

  // Content address: module text + full pipeline key + machine key +
  // whether simulation stats are part of the body. Display names are
  // deliberately excluded (and absent from the body).
  const std::string Key =
      DiskCache::key(Req.ModuleText, pipelineCacheKey(Req.Pipeline),
                     Req.Machine.canonicalKey() +
                         (Req.Simulate ? ";sim=1" : ";sim=0"));

  std::string BodyText;
  if (memGet(Key, BodyText)) {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      ++Counts.MemHits;
    }
    Value Body;
    std::string ParseErr;
    json::Value::parse(BodyText, Body, &ParseErr);
    return respond(Body, "memory", Key);
  }

  if (Disk.get(Key, BodyText)) {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      ++Counts.DiskHits;
    }
    memPut(Key, BodyText);
    Value Body;
    std::string ParseErr;
    json::Value::parse(BodyText, Body, &ParseErr);
    return respond(Body, "disk", Key);
  }

  {
    std::lock_guard<std::mutex> Lock(Mu);
    ++Counts.Misses;
  }
  auto [Body, Cacheable] = execute(Req);
  if (Body.strOr("status", "") != "ok") {
    std::lock_guard<std::mutex> Lock(Mu);
    ++Counts.ErrorBodies;
  }
  if (Cacheable) {
    const std::string Text = Body.dump();
    Disk.put(Key, Text);
    memPut(Key, Text);
  }
  return respond(Body, "none", Key);
}

//===----------------------------------------------------------------------===//
// Transport.
//===----------------------------------------------------------------------===//

namespace {

void ignoreSigpipeOnce() {
  // A client that disconnects mid-response must surface as a write
  // error, not SIGPIPE.
  static std::once_flag Once;
  std::call_once(Once, [] { std::signal(SIGPIPE, SIG_IGN); });
}

} // namespace

bool Server::serveConnection(int Fd) {
  ignoreSigpipeOnce();
  std::string ReqBytes;
  for (;;) {
    switch (readFrame(Fd, Opts.MaxRequestBytes, ReqBytes)) {
    case FrameStatus::Ok:
      if (!writeFrame(Fd, handleRequest(ReqBytes)))
        return false;
      break;
    case FrameStatus::Eof:
      return true;
    case FrameStatus::Oversized: {
      // The stream is unframed from here on; answer and hang up.
      {
        std::lock_guard<std::mutex> Lock(Mu);
        ++Counts.Requests;
        ++Counts.BadRequests;
        ++Counts.ErrorBodies;
      }
      writeFrame(Fd, respond(errorBody("bad_request",
                                       "request exceeds " +
                                           std::to_string(
                                               Opts.MaxRequestBytes) +
                                           " bytes"),
                             "none", ""));
      return false;
    }
    case FrameStatus::Truncated:
    case FrameStatus::IoError:
      return false;
    }
  }
}

void Server::serveLoop(int ListenFd, const std::atomic<bool> &Stop) {
  ignoreSigpipeOnce();
  if (!Pool)
    Pool = std::make_unique<support::ThreadPool>(Opts.Jobs);
  while (!Stop.load(std::memory_order_relaxed)) {
    struct pollfd P = {ListenFd, POLLIN, 0};
    int N = poll(&P, 1, 200);
    if (N < 0 && errno != EINTR)
      break;
    if (N <= 0 || !(P.revents & POLLIN))
      continue;
    int Conn = accept(ListenFd, nullptr, nullptr);
    if (Conn < 0)
      continue;
    Pool->submit([this, Conn] {
      serveConnection(Conn);
      close(Conn);
    });
  }
  close(ListenFd);
}

Server::Counters Server::counters() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Counts;
}

//===----------------------------------------------------------------------===//
// Unix-domain endpoints.
//===----------------------------------------------------------------------===//

namespace {

bool fillSockaddr(const std::string &Path, sockaddr_un &Addr,
                  std::string &Err) {
  if (Path.size() >= sizeof(Addr.sun_path)) {
    Err = "socket path too long: " + Path;
    return false;
  }
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  return true;
}

} // namespace

int serve::listenUnix(const std::string &Path, std::string &Err) {
  sockaddr_un Addr;
  if (!fillSockaddr(Path, Addr, Err))
    return -1;
  int Fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  unlink(Path.c_str()); // Replace a stale socket file.
  if (bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    Err = "bind " + Path + ": " + std::strerror(errno);
    close(Fd);
    return -1;
  }
  if (listen(Fd, 64) != 0) {
    Err = "listen " + Path + ": " + std::strerror(errno);
    close(Fd);
    return -1;
  }
  return Fd;
}

int serve::connectUnix(const std::string &Path, std::string &Err) {
  sockaddr_un Addr;
  if (!fillSockaddr(Path, Addr, Err))
    return -1;
  int Fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  if (connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    Err = "connect " + Path + ": " + std::strerror(errno);
    close(Fd);
    return -1;
  }
  return Fd;
}
