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

/// Daemon configuration; every field has an FPINT_SERVE_* environment
/// override (see fromEnv() and docs/SERVING.md).
struct ServerOptions {
  std::string CacheDir = "serve_cache"; ///< FPINT_SERVE_CACHE
  unsigned Jobs = 0;                    ///< FPINT_SERVE_JOBS (0 = auto)
  size_t MaxRequestBytes = 8u << 20;    ///< FPINT_SERVE_MAX_REQUEST_BYTES
  size_t MemCacheEntries = 1024;        ///< FPINT_SERVE_MEM_ENTRIES
  size_t DiskCacheEntries = 8192;       ///< FPINT_SERVE_DISK_ENTRIES
  int SandboxWallMs = 30000;            ///< FPINT_SERVE_TIMEOUT_MS
  int SandboxKillGraceMs = 500;         ///< FPINT_SERVE_KILL_GRACE_MS
  uint64_t SandboxAsMb = 4096;          ///< FPINT_SERVE_AS_MB
  /// FPINT_SERVE_SANDBOX=0 executes misses in-process instead of in a
  /// forked child (faster, but a crashing request kills the server --
  /// tests and trusted single-user runs only).
  bool Sandbox = true;

  static ServerOptions fromEnv();
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

  /// Runs one validated compile request (sandboxed or in-process per
  /// Opts.Sandbox) and returns (body, cacheable).
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
