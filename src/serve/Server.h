//===- serve/Server.h - Compilation-as-a-service request engine -----------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving engine behind the fpint-serve daemon: accepts framed
/// compile+measure requests (serve::Protocol), answers them from a
/// two-tier result cache, and executes misses through
/// support::Supervised in a subprocess sandbox so a poisoned module
/// degrades to one ERR response instead of taking the daemon down.
///
/// Tiers, checked in order per request:
///
///   memory   bounded in-process map of response bodies (hot keys)
///   disk     serve::DiskCache, shared across restarts and processes
///   miss     fork + compile + measure under rlimits and a watchdog
///
/// Only deterministic bodies are published to the caches: successful
/// runs and typed deterministic failures (sir parse errors, pipeline
/// failures, simulator overruns). Sandbox deaths -- crash, watchdog
/// timeout, OOM, spawn failure -- produce uncached ERR responses with
/// a typed reason, so a transient fault never poisons the store.
///
/// Forking contract: handleRequest() forks from thread-pool workers
/// while sibling workers run concurrently. This is safe on the glibc
/// targets this daemon supports because fork() runs the malloc fork
/// handlers (the child's arenas are reinitialized consistently), and
/// the child executes only self-contained compile/simulate code -- it
/// never touches the parent's caches, registries, or any other lock
/// a sibling thread could have held at fork time (the forking
/// contract in support/Subprocess.h).
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_SERVE_SERVER_H
#define FPINT_SERVE_SERVER_H

#include "serve/DiskCache.h"
#include "serve/Protocol.h"
#include "support/Subprocess.h"

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace fpint {
namespace support {
class ThreadPool;
}

namespace serve {

/// How a miss runs by default: forked, no retries (the client may retry
/// an uncached death itself).
inline constexpr support::Supervised::Policy MissPolicy = {
    .Limits = {.WallMs = 30000, .KillGraceMs = 500, .AddressSpaceMb = 4096},
    .FaultSite = "serve"};

/// Daemon configuration. The server reads no environment; fpint-serve
/// builds these from its flags and the FPINT_SANDBOX_* overrides.
struct ServerOptions {
  std::string CacheDir = "serve_cache"; ///< On-disk result store.
  unsigned Jobs = 0;                 ///< Worker threads (0 = auto).
  size_t MaxRequestBytes = 8u << 20; ///< Frame size limit.
  size_t MemCacheEntries = 1024;     ///< Memory-tier entry cap.
  size_t DiskCacheEntries = 8192;    ///< Disk-tier entry cap (0 = none).
  /// How misses run; InProcess skips the fork (a crashing request then
  /// kills the server: tests and trusted single-user runs only).
  support::Supervised::Policy Policy = MissPolicy;
};

class Server {
public:
  struct Counters {
    uint64_t Requests = 0;
    uint64_t MemHits = 0;
    uint64_t DiskHits = 0;
    uint64_t Misses = 0;        ///< Executed (neither tier hit).
    uint64_t BadRequests = 0;
    uint64_t ErrorBodies = 0;   ///< Responses whose body is an error.
    uint64_t SandboxDeaths = 0; ///< Crash / timeout / oom / spawn-fail.
  };

  explicit Server(ServerOptions Opts);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Answers one unframed request document; always returns a complete
  /// response document (never throws). Thread-safe.
  std::string handleRequest(const std::string &RequestBytes);

  /// Serves framed requests on \p Fd until EOF or a transport error.
  /// Returns true on clean EOF. An oversized frame is answered with a
  /// bad_request response and the connection is closed (the stream
  /// can no longer be framed). Thread-safe (one caller per fd).
  bool serveConnection(int Fd);

  /// Accept loop: serves every connection of \p ListenFd on an
  /// internal thread pool until \p Stop becomes true. Returns when
  /// the listener is closed and no more connections are accepted.
  void serveLoop(int ListenFd, const std::atomic<bool> &Stop);

  Counters counters() const;
  const DiskCache &disk() const { return Disk; }
  const ServerOptions &options() const { return Opts; }

private:
  struct CacheLookup {
    std::string Body;  ///< Valid when Tier != "none" or after execute.
    const char *Tier = "none";
  };

  std::string respond(const json::Value &Body, const char *Tier,
                      const std::string &Key);
  bool memGet(const std::string &Key, std::string &Body);
  void memPut(const std::string &Key, const std::string &Body);

  /// Runs one validated compile request under Opts.Policy and returns
  /// (body, cacheable).
  std::pair<json::Value, bool> execute(const Request &Req);

  ServerOptions Opts;
  DiskCache Disk;
  std::unique_ptr<support::ThreadPool> Pool;

  mutable std::mutex Mu;
  Counters Counts;
  std::map<std::string, std::string> MemCache;
  std::deque<std::string> MemOrder; ///< FIFO eviction for MemCache.
};

/// Creates, binds, and listens on a Unix-domain stream socket at
/// \p Path (an existing socket file is replaced). Returns the listen
/// fd, or -1 with \p Err set.
int listenUnix(const std::string &Path, std::string &Err);

/// Connects to the daemon's Unix-domain socket. Returns the connected
/// fd, or -1 with \p Err set.
int connectUnix(const std::string &Path, std::string &Err);

} // namespace serve
} // namespace fpint

#endif // FPINT_SERVE_SERVER_H
