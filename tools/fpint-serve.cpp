//===- tools/fpint-serve.cpp - Compilation-as-a-service daemon ------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fpint compile+measure daemon. Accepts length-prefixed JSON
/// requests (sir module text + pipeline config + machine config, see
/// docs/SERVING.md) over a Unix-domain socket or a stdin/stdout pipe,
/// answers from a two-tier content-addressed result cache, and runs
/// misses in the subprocess sandbox so a poisoned module degrades to
/// one typed ERR response instead of taking the service down.
///
///   fpint-serve --socket PATH [options]     serve a Unix socket
///   fpint-serve --stdio [options]           one framed stream on
///                                           stdin/stdout (single
///                                           connection, then exit)
///
///     --cache-dir DIR   on-disk result store (default serve_cache)
///     --jobs N          worker threads for the socket accept loop
///                       (default auto)
///     --no-sandbox      execute misses in-process (tests only; a
///                       crashing request kills the daemon)
///
/// Misses run under serve::MissPolicy plus the FPINT_SANDBOX_* overrides
/// (docs/ARCHITECTURE.md, "Environment"). SIGINT/SIGTERM drain the
/// accept loop and exit 0.
///
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"
#include "serve/Server.h"

#include <atomic>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <unistd.h>

using namespace fpint;

namespace {

std::atomic<bool> GStop{false};

void onSignal(int) { GStop.store(true); }

/// Single-connection pipe transport: frames arrive on stdin, responses
/// leave on stdout. Returns the process exit status.
int serveStdio(serve::Server &Server) {
  std::string ReqBytes;
  for (;;) {
    switch (serve::readFrame(STDIN_FILENO, Server.options().MaxRequestBytes,
                             ReqBytes)) {
    case serve::FrameStatus::Ok:
      if (!serve::writeFrame(STDOUT_FILENO, Server.handleRequest(ReqBytes)))
        return 1;
      break;
    case serve::FrameStatus::Eof:
      return 0;
    case serve::FrameStatus::Oversized: {
      // The stream is unframed from here on; answer and give up.
      json::Value Doc = json::Value::object();
      Doc.set("schema", serve::ResponseSchema);
      Doc.set("body",
              serve::errorBody("bad_request",
                               "request exceeds " +
                                   std::to_string(
                                       Server.options().MaxRequestBytes) +
                                   " bytes"));
      serve::writeFrame(STDOUT_FILENO, Doc.dump());
      return 1;
    }
    case serve::FrameStatus::Truncated:
    case serve::FrameStatus::IoError:
      return 1;
    }
  }
}

int usage(int Status) {
  std::fprintf(Status ? stderr : stdout,
               "usage: fpint-serve (--socket PATH | --stdio)\n"
               "                   [--cache-dir DIR] [--jobs N] "
               "[--no-sandbox]\n");
  return Status;
}

} // namespace

int main(int argc, char **argv) {
  serve::ServerOptions Opts;
  Opts.Policy = serve::MissPolicy.withEnv();
  std::string SocketPath;
  bool Stdio = false;

  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto needArg = [&](const char *Flag) -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "fpint-serve: %s needs an argument\n", Flag);
        std::exit(2);
      }
      return argv[++I];
    };
    if (A == "--socket") {
      SocketPath = needArg("--socket");
    } else if (A == "--stdio") {
      Stdio = true;
    } else if (A == "--cache-dir") {
      Opts.CacheDir = needArg("--cache-dir");
    } else if (A == "--jobs") {
      std::optional<uint64_t> N =
          support::parseDecimal(needArg("--jobs"), 0, UINT_MAX);
      if (!N)
        return usage(2);
      Opts.Jobs = static_cast<unsigned>(*N); // The pool caps it.
    } else if (A == "--no-sandbox") {
      Opts.Policy.InProcess = true;
    } else if (A == "--help" || A == "-h") {
      return usage(0);
    } else {
      std::fprintf(stderr, "fpint-serve: unknown option %s\n", A.c_str());
      return usage(2);
    }
  }
  if (Stdio == !SocketPath.empty())
    return usage(2); // Exactly one transport.

  serve::Server Server(Opts);

  if (Stdio)
    return serveStdio(Server);

  std::string Err;
  int ListenFd = serve::listenUnix(SocketPath, Err);
  if (ListenFd < 0) {
    std::fprintf(stderr, "fpint-serve: %s\n", Err.c_str());
    return 1;
  }
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  std::fprintf(stderr, "fpint-serve: listening on %s (cache %s)\n",
               SocketPath.c_str(), Opts.CacheDir.c_str());

  Server.serveLoop(ListenFd, GStop);

  serve::Server::Counters C = Server.counters();
  std::fprintf(stderr,
               "fpint-serve: drained: %llu requests, %llu mem hits, "
               "%llu disk hits, %llu misses, %llu sandbox deaths\n",
               static_cast<unsigned long long>(C.Requests),
               static_cast<unsigned long long>(C.MemHits),
               static_cast<unsigned long long>(C.DiskHits),
               static_cast<unsigned long long>(C.Misses),
               static_cast<unsigned long long>(C.SandboxDeaths));
  unlink(SocketPath.c_str());
  // In-flight connections may still be parked in blocking reads on
  // their fds; the loop already drained accept, so skip the idle
  // waits and leave.
  std::fflush(nullptr);
  _exit(0);
}
