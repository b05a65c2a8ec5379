//===- tests/ServeTest.cpp - Compilation-as-a-service layer ---------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serve subsystem end to end: wire framing round-trips, strict
/// request validation, the content-addressed disk cache (round-trip,
/// schema-stamp self-invalidation, eviction, key stability), and the
/// Server engine -- oversized/malformed requests answered without
/// taking the connection loop down, restart-stable disk hits, and
/// byte-identical bodies under concurrent clients.
///
//===----------------------------------------------------------------------===//

#include "serve/DiskCache.h"
#include "serve/Protocol.h"
#include "serve/Server.h"

#include "PaperExamples.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

using namespace fpint;
using namespace fpint::serve;
namespace fs = std::filesystem;

namespace {

/// A unique per-test scratch directory, removed on scope exit.
struct TempDir {
  std::string Path;
  explicit TempDir(const char *Tag) {
    Path = (fs::temp_directory_path() /
            (std::string("fpint_serve_test_") + Tag + "_" +
             std::to_string(getpid())))
               .string();
    fs::remove_all(Path);
  }
  ~TempDir() {
    std::error_code EC;
    fs::remove_all(Path, EC);
  }
};

std::string compileRequest(const char *ModuleText, const char *Scheme,
                           bool Simulate = true) {
  json::Value Pipeline = json::Value::object();
  Pipeline.set("scheme", Scheme);
  json::Value Doc = json::Value::object();
  Doc.set("op", "compile");
  Doc.set("module", ModuleText);
  Doc.set("pipeline", std::move(Pipeline));
  Doc.set("simulate", Simulate);
  return Doc.dump();
}

/// Parses a response document and returns (body dump, cache tier,
/// body status).
struct Parsed {
  std::string Body;
  std::string Tier;
  std::string Status;
  std::string ErrorKind;
};

Parsed parseResponse(const std::string &Text) {
  Parsed P;
  json::Value Doc;
  std::string Err;
  EXPECT_TRUE(json::Value::parse(Text, Doc, &Err)) << Err;
  EXPECT_EQ(Doc.strOr("schema", ""), "fpint-serve-response-v1");
  if (const json::Value *Cache = Doc.find("cache"))
    P.Tier = Cache->strOr("tier", "");
  if (const json::Value *Body = Doc.find("body")) {
    P.Body = Body->dump();
    P.Status = Body->strOr("status", "");
    if (const json::Value *E = Body->find("error"))
      P.ErrorKind = E->strOr("kind", "");
  }
  return P;
}

ServerOptions quickOptions(const std::string &CacheDir, bool Sandbox) {
  ServerOptions O;
  O.CacheDir = CacheDir;
  O.Policy.InProcess = !Sandbox;
  O.Policy.Limits.WallMs = 20000;
  return O;
}

//===----------------------------------------------------------------------===//
// Framing.
//===----------------------------------------------------------------------===//

TEST(Frame, RoundTripsPayloadsIncludingEmpty) {
  int Fds[2];
  ASSERT_EQ(pipe(Fds), 0);
  for (const std::string &Payload :
       {std::string(""), std::string("{}"), std::string(4096, 'x')}) {
    ASSERT_TRUE(writeFrame(Fds[1], Payload));
    std::string Got;
    ASSERT_EQ(readFrame(Fds[0], 1 << 20, Got), FrameStatus::Ok);
    EXPECT_EQ(Got, Payload);
  }
  close(Fds[1]);
  std::string Got;
  EXPECT_EQ(readFrame(Fds[0], 1 << 20, Got), FrameStatus::Eof);
  close(Fds[0]);
}

TEST(Frame, DetectsTruncationMidHeaderAndMidPayload) {
  int Fds[2];
  ASSERT_EQ(pipe(Fds), 0);
  // Two header bytes, then EOF.
  ASSERT_EQ(write(Fds[1], "\x08\x00", 2), 2);
  close(Fds[1]);
  std::string Got;
  EXPECT_EQ(readFrame(Fds[0], 1 << 20, Got), FrameStatus::Truncated);
  close(Fds[0]);

  ASSERT_EQ(pipe(Fds), 0);
  // Full header declaring 8 bytes, only 3 delivered. (Split literal:
  // 'abc' are hex digits and would extend a trailing \x escape.)
  ASSERT_EQ(write(Fds[1], "\x08\x00\x00\x00" "abc", 7), 7);
  close(Fds[1]);
  EXPECT_EQ(readFrame(Fds[0], 1 << 20, Got), FrameStatus::Truncated);
  close(Fds[0]);
}

TEST(Frame, RejectsOversizedDeclaredLength) {
  int Fds[2];
  ASSERT_EQ(pipe(Fds), 0);
  ASSERT_TRUE(writeFrame(Fds[1], std::string(256, 'y')));
  std::string Got;
  EXPECT_EQ(readFrame(Fds[0], 64, Got), FrameStatus::Oversized);
  close(Fds[0]);
  close(Fds[1]);
}

//===----------------------------------------------------------------------===//
// Strict request validation.
//===----------------------------------------------------------------------===//

TEST(ParseRequest, RejectsUnknownMembersAnywhere) {
  Request Req;
  std::string Err;
  EXPECT_FALSE(parseRequest("{\"op\": \"ping\", \"schme\": \"basic\"}", Req,
                            Err));
  EXPECT_NE(Err.find("schme"), std::string::npos);

  Err.clear();
  EXPECT_FALSE(parseRequest("{\"op\": \"compile\", \"module\": \"m\", "
                            "\"pipeline\": {\"shceme\": \"basic\"}}",
                            Req, Err));
  EXPECT_NE(Err.find("shceme"), std::string::npos);

  Err.clear();
  EXPECT_FALSE(parseRequest("{\"op\": \"compile\", \"module\": \"m\", "
                            "\"machine\": {\"bse\": \"4-way\"}}",
                            Req, Err));
  EXPECT_NE(Err.find("bse"), std::string::npos);
}

TEST(ParseRequest, RejectsBadValuesAndMissingModule) {
  Request Req;
  std::string Err;
  EXPECT_FALSE(parseRequest("not json at all", Req, Err));
  EXPECT_FALSE(parseRequest("[1, 2]", Req, Err));
  EXPECT_FALSE(parseRequest("{\"op\": \"frobnicate\"}", Req, Err));
  EXPECT_FALSE(parseRequest("{\"op\": \"compile\"}", Req, Err));
  EXPECT_FALSE(parseRequest("{\"op\": \"compile\", \"module\": \"\"}", Req,
                            Err));
  EXPECT_FALSE(parseRequest("{\"op\": \"compile\", \"module\": 7}", Req,
                            Err));
  EXPECT_FALSE(parseRequest("{\"op\": \"compile\", \"module\": \"m\", "
                            "\"pipeline\": {\"scheme\": \"turbo\"}}",
                            Req, Err));
  EXPECT_FALSE(parseRequest("{\"op\": \"compile\", \"module\": \"m\", "
                            "\"machine\": {\"base\": \"16-way\"}}",
                            Req, Err));
  // The regalloc backend must name a known allocator.
  Err.clear();
  EXPECT_FALSE(parseRequest("{\"op\": \"compile\", \"module\": \"m\", "
                            "\"pipeline\": {\"regalloc\": \"turbo\"}}",
                            Req, Err));
  EXPECT_NE(Err.find("turbo"), std::string::npos);
  // 'module' is compile-only.
  EXPECT_FALSE(parseRequest("{\"op\": \"ping\", \"module\": \"m\"}", Req,
                            Err));
}

TEST(ParseRequest, RejectsCacheGeometryTheSimulatorCannotIndex) {
  Request Req;
  std::string Err;
  auto Parse = [&](const char *Cache) {
    Err.clear();
    return parseRequest(std::string("{\"op\": \"compile\", \"module\": "
                                    "\"m\", \"machine\": {\"dcache\": ") +
                            Cache + "}}",
                        Req, Err);
  };
  // 48-byte lines: 3072 / (48 * 1) = 64 sets, but the line is not a
  // power of two.
  EXPECT_FALSE(Parse("{\"size_bytes\": 3072, \"assoc\": 1, "
                     "\"line_bytes\": 48}"));
  EXPECT_NE(Err.find("dcache"), std::string::npos) << Err;
  // 3 sets of 32-byte, 2-way lines.
  EXPECT_FALSE(Parse("{\"size_bytes\": 192}"));
  EXPECT_FALSE(Parse("{\"assoc\": 0}"));
  EXPECT_FALSE(Parse("{\"line_bytes\": 0}"));
  // line_bytes * assoc is 2^32, which wraps to 0 in 32 bits.
  EXPECT_FALSE(Parse("{\"line_bytes\": 2147483648, \"assoc\": 2}"));
  // Overrides that keep both counts powers of two are accepted.
  ASSERT_TRUE(Parse("{\"size_bytes\": 8192, \"assoc\": 4, "
                    "\"line_bytes\": 64}"))
      << Err;
  EXPECT_EQ(Req.Machine.DCache.LineBytes, 64u);
}

TEST(ParseRequest, RejectsCostsTheCostModelCannotUse) {
  // Each would abort the compiler on CostModel's o_dupl < o_copy
  // assert, or leave the FPa share cap meaningless.
  for (const char *Costs : {"{\"copy_overhead\": 1, \"dup_overhead\": 2}",
                            "{\"copy_overhead\": 2, \"dup_overhead\": 2}",
                            "{\"dup_overhead\": -1}",
                            "{\"copy_overhead\": 1e999}",
                            "{\"fpa_share_cap\": 1.5}"}) {
    Request Req;
    std::string Err;
    EXPECT_FALSE(parseRequest(
        std::string("{\"op\": \"compile\", \"module\": \"func main() {}\", "
                    "\"pipeline\": {\"costs\": ") +
            Costs + "}}",
        Req, Err))
        << Costs;
    EXPECT_NE(Err.find("costs"), std::string::npos) << Err;
  }
}

TEST(ParseRequest, AcceptsFullCompileRequest) {
  Request Req;
  std::string Err;
  ASSERT_TRUE(parseRequest(
      "{\"op\": \"compile\", \"module\": \"func main() {}\", "
      "\"name\": \"demo\", "
      "\"pipeline\": {\"scheme\": \"advanced\", "
      "\"regalloc\": \"regalloc-linear\", "
      "\"costs\": {\"copy_overhead\": 2.5, \"dup_overhead\": 2.0}, "
      "\"ref_args\": [3, 4]}, "
      "\"machine\": {\"base\": \"8-way\", \"fp_units\": 3}, "
      "\"simulate\": false}",
      Req, Err))
      << Err;
  EXPECT_EQ(Req.Op, RequestOp::Compile);
  EXPECT_EQ(Req.Name, "demo");
  EXPECT_EQ(Req.Pipeline.Scheme, partition::Scheme::Advanced);
  EXPECT_EQ(Req.Pipeline.RegAllocator, "regalloc-linear");
  EXPECT_EQ(Req.Pipeline.Costs.CopyOverhead, 2.5);
  ASSERT_EQ(Req.Pipeline.RefArgs.size(), 2u);
  EXPECT_EQ(Req.Pipeline.RefArgs[1], 4);
  EXPECT_EQ(Req.Machine.FpUnits, 3u);
  EXPECT_FALSE(Req.Simulate);
}

TEST(ParseRequest, ErrorKindCacheabilityIsTyped) {
  for (const char *Kind : {"parse_error", "compile_error", "overrun"})
    EXPECT_TRUE(isDeterministicErrorKind(Kind)) << Kind;
  for (const char *Kind :
       {"bad_request", "crash", "timeout", "spawn_failed", "internal", ""})
    EXPECT_FALSE(isDeterministicErrorKind(Kind)) << Kind;
}

//===----------------------------------------------------------------------===//
// The content-addressed disk cache.
//===----------------------------------------------------------------------===//

TEST(DiskCacheTest, KeysAreStableAndContentAddressed) {
  const std::string K1 = DiskCache::key("module a", "pipe", "mach");
  EXPECT_EQ(K1.size(), 16u);
  EXPECT_EQ(K1, DiskCache::key("module a", "pipe", "mach"));
  EXPECT_NE(K1, DiskCache::key("module b", "pipe", "mach"));
  EXPECT_NE(K1, DiskCache::key("module a", "pipe2", "mach"));
  EXPECT_NE(K1, DiskCache::key("module a", "pipe", "mach2"));
  // Separator injection: moving bytes across field boundaries must
  // change the key.
  EXPECT_NE(DiskCache::key("ab", "c", "d"), DiskCache::key("a", "bc", "d"));
  // Pinned: a key change would orphan every existing serve cache.
  EXPECT_EQ(K1, "5e6eef9e4d79578d");
}

TEST(DiskCacheTest, PutGetRoundTripsAcrossInstances) {
  TempDir Dir("diskcache");
  const std::string Key = DiskCache::key("m", "p", "mc");
  {
    DiskCache Cache({Dir.Path, 64});
    std::string Body;
    EXPECT_FALSE(Cache.get(Key, Body));
    EXPECT_TRUE(Cache.put(Key, "{\"status\": \"ok\"}"));
    EXPECT_TRUE(Cache.get(Key, Body));
    EXPECT_EQ(Cache.counters().Hits, 1u);
    EXPECT_EQ(Cache.counters().Misses, 1u);
    EXPECT_EQ(Cache.counters().Stores, 1u);
  }
  // A fresh instance (fresh process in production) sees the entry.
  DiskCache Cache2({Dir.Path, 64});
  EXPECT_EQ(Cache2.entryCount(), 1u);
  std::string Body;
  ASSERT_TRUE(Cache2.get(Key, Body));
  json::Value Doc;
  std::string Err;
  ASSERT_TRUE(json::Value::parse(Body, Doc, &Err)) << Err;
  EXPECT_EQ(Doc.strOr("status", ""), "ok");
}

TEST(DiskCacheTest, MalformedBodiesAreNotPublishable) {
  TempDir Dir("diskcache_badbody");
  DiskCache Cache({Dir.Path, 64});
  EXPECT_FALSE(Cache.put("0123456789abcdef", "not json"));
  EXPECT_EQ(Cache.counters().Stores, 0u);
}

TEST(DiskCacheTest, StaleSchemaStampSelfInvalidates) {
  TempDir Dir("diskcache_stale");
  DiskCache Cache({Dir.Path, 64});
  const std::string Key = DiskCache::key("m", "p", "mc");
  ASSERT_TRUE(Cache.put(Key, "{\"status\": \"ok\"}"));

  // Rewrite the entry as if an older build with a different schema
  // stamp had produced it.
  const std::string Path =
      Dir.Path + "/" + Key.substr(0, 2) + "/" + Key + ".json";
  {
    std::ofstream Out(Path, std::ios::trunc);
    Out << "{\"cache_schema\": \"fpint-serve-response-v0/old\", \"key\": \""
        << Key << "\", \"body\": {\"status\": \"ok\"}}\n";
  }
  std::string Body;
  EXPECT_FALSE(Cache.get(Key, Body));
  EXPECT_EQ(Cache.counters().Invalidations, 1u);
  EXPECT_FALSE(fs::exists(Path)); // Reclaimed, not re-served.
}

TEST(DiskCacheTest, EvictionKeepsEntryCountBounded) {
  TempDir Dir("diskcache_evict");
  DiskCache Cache({Dir.Path, 4});
  for (int I = 0; I < 10; ++I)
    ASSERT_TRUE(Cache.put(DiskCache::key("m" + std::to_string(I), "p", "mc"),
                          "{\"status\": \"ok\"}"));
  EXPECT_LE(Cache.entryCount(), 4u);
  EXPECT_GE(Cache.counters().Evictions, 6u);
}

TEST(DiskCacheTest, OverflowEvictsDownToSevenEighths) {
  // One store past the cap trims the tier well below it, so the next
  // MaxEntries/8 stores pay no directory scan.
  TempDir Dir("diskcache_hysteresis");
  constexpr size_t Cap = 16;
  DiskCache Cache({Dir.Path, Cap});
  for (size_t I = 0; I < Cap + 1; ++I)
    ASSERT_TRUE(Cache.put(DiskCache::key("m" + std::to_string(I), "p", "mc"),
                          "{\"status\": \"ok\"}"));
  EXPECT_LE(Cache.entryCount(), Cap * 7 / 8);
}

//===----------------------------------------------------------------------===//
// The request engine.
//===----------------------------------------------------------------------===//

TEST(ServeTest, PingAndStatsOps) {
  TempDir Dir("server_ops");
  Server S(quickOptions(Dir.Path, /*Sandbox=*/false));
  Parsed Ping = parseResponse(S.handleRequest("{\"op\": \"ping\"}"));
  EXPECT_EQ(Ping.Status, "ok");
  EXPECT_EQ(Ping.Tier, "none");

  Parsed Stats = parseResponse(S.handleRequest("{\"op\": \"stats\"}"));
  EXPECT_EQ(Stats.Status, "ok");
  json::Value Body;
  std::string Err;
  ASSERT_TRUE(json::Value::parse(Stats.Body, Body, &Err));
  EXPECT_EQ(Body.find("result")->numberOr("requests", -1), 2);
}

TEST(ServeTest, CompileMissThenMemoryHitByteIdentical) {
  TempDir Dir("server_basic");
  Server S(quickOptions(Dir.Path, /*Sandbox=*/false));
  const std::string Req = compileRequest(fixtures::IntVectorSum, "basic");

  Parsed Cold = parseResponse(S.handleRequest(Req));
  EXPECT_EQ(Cold.Status, "ok") << Cold.Body;
  EXPECT_EQ(Cold.Tier, "none");
  json::Value Body;
  std::string Err;
  ASSERT_TRUE(json::Value::parse(Cold.Body, Body, &Err));
  const json::Value *Result = Body.find("result");
  ASSERT_NE(Result, nullptr);
  EXPECT_GT(Result->find("stats")->numberOr("cycles", 0), 0);
  // The body is content-addressed: volatile wall-clock must be zero.
  EXPECT_EQ(Result->find("stats")->numberOr("sim_wall_ms", -1), 0);

  Parsed Warm = parseResponse(S.handleRequest(Req));
  EXPECT_EQ(Warm.Tier, "memory");
  EXPECT_EQ(Warm.Body, Cold.Body);

  Server::Counters C = S.counters();
  EXPECT_EQ(C.Misses, 1u);
  EXPECT_EQ(C.MemHits, 1u);
}

TEST(ServeTest, RestartServesFromDiskWithIdenticalBody) {
  TempDir Dir("server_restart");
  const std::string Req = compileRequest(fixtures::IntVectorSum, "advanced");
  std::string ColdBody;
  {
    Server S(quickOptions(Dir.Path, /*Sandbox=*/false));
    Parsed Cold = parseResponse(S.handleRequest(Req));
    EXPECT_EQ(Cold.Status, "ok") << Cold.Body;
    ColdBody = Cold.Body;
  }
  // A new engine on the same store (a daemon restart): first touch is
  // a disk hit with a byte-identical body, then memory.
  Server S2(quickOptions(Dir.Path, /*Sandbox=*/false));
  Parsed AfterRestart = parseResponse(S2.handleRequest(Req));
  EXPECT_EQ(AfterRestart.Tier, "disk");
  EXPECT_EQ(AfterRestart.Body, ColdBody);
  Parsed Again = parseResponse(S2.handleRequest(Req));
  EXPECT_EQ(Again.Tier, "memory");
  EXPECT_EQ(Again.Body, ColdBody);
}

TEST(ServeTest, SandboxedExecutionMatchesInProcess) {
  TempDir DirA("server_sandboxed");
  TempDir DirB("server_inproc");
  const std::string Req = compileRequest(fixtures::IntVectorSum, "basic");
  Server Sandboxed(quickOptions(DirA.Path, /*Sandbox=*/true));
  Server InProcess(quickOptions(DirB.Path, /*Sandbox=*/false));
  Parsed A = parseResponse(Sandboxed.handleRequest(Req));
  Parsed B = parseResponse(InProcess.handleRequest(Req));
  EXPECT_EQ(A.Status, "ok") << A.Body;
  EXPECT_EQ(A.Body, B.Body);
}

TEST(ServeTest, DeterministicErrorsAreCachedTransportOnesAreNot) {
  TempDir Dir("server_errors");
  Server S(quickOptions(Dir.Path, /*Sandbox=*/false));

  // A sir parse error is a pure function of the module: cached.
  const std::string BadModule = compileRequest("func main( {", "none");
  Parsed E1 = parseResponse(S.handleRequest(BadModule));
  EXPECT_EQ(E1.Status, "error");
  EXPECT_EQ(E1.ErrorKind, "parse_error");
  Parsed E2 = parseResponse(S.handleRequest(BadModule));
  EXPECT_EQ(E2.Tier, "memory");
  EXPECT_EQ(E2.Body, E1.Body);

  // A bad request never reaches the cache (and is typed).
  Parsed Bad = parseResponse(S.handleRequest("{\"op\": \"compile\"}"));
  EXPECT_EQ(Bad.ErrorKind, "bad_request");
  EXPECT_EQ(Bad.Tier, "none");
  EXPECT_EQ(S.counters().BadRequests, 1u);

  // simulate=true without register allocation cannot produce a trace.
  json::Value Pipeline = json::Value::object();
  Pipeline.set("scheme", "none");
  Pipeline.set("run_register_allocation", false);
  json::Value Doc = json::Value::object();
  Doc.set("op", "compile");
  Doc.set("module", fixtures::IntVectorSum);
  Doc.set("pipeline", std::move(Pipeline));
  Parsed NoRa = parseResponse(S.handleRequest(Doc.dump()));
  EXPECT_EQ(NoRa.ErrorKind, "bad_request");
}

/// A compile request for IntVectorSum whose pipeline object is
/// \p PipelineJson.
std::string requestWithPipeline(const std::string &PipelineJson) {
  json::Value Doc = json::Value::object();
  Doc.set("op", "compile");
  Doc.set("module", fixtures::IntVectorSum);
  std::string Text = Doc.dump();
  Text.pop_back(); // The closing '}'.
  return Text + ", \"pipeline\": " + PipelineJson + "}";
}

TEST(ServeTest, SimulatingAnUnallocatedPipelineIsBadRequest) {
  // The flag is on, but the text never allocates: the sandboxed child
  // and the in-process engine both answer instead of aborting.
  const std::string Req = requestWithPipeline(
      "{\"passes\": \"opt,profile,partition\", \"scheme\": \"advanced\"}");
  for (bool Sandbox : {true, false}) {
    TempDir Dir(Sandbox ? "server_noalloc_sandboxed" : "server_noalloc");
    Server S(quickOptions(Dir.Path, Sandbox));
    Parsed P = parseResponse(S.handleRequest(Req));
    EXPECT_EQ(P.ErrorKind, "bad_request") << P.Body;
    EXPECT_NE(P.Body.find("simulation requires register allocation"),
              std::string::npos)
        << P.Body;
    EXPECT_EQ(S.counters().BadRequests, 1u);
    EXPECT_EQ(S.counters().SandboxDeaths, 0u);
  }
}

TEST(ServeTest, DeeplyNestedPipelineTextIsBadRequestAndServerSurvives) {
  TempDir Dir("server_nested_passes");
  Server S(quickOptions(Dir.Path, /*Sandbox=*/false));
  // About 300 KB of fixpoint( -- far past core::MaxPipelineNesting.
  const unsigned Depth = 300000 / 9;
  std::string Passes;
  for (unsigned I = 0; I < Depth; ++I)
    Passes += "fixpoint(";
  Passes += "dce" + std::string(Depth, ')');
  Parsed Bad = parseResponse(
      S.handleRequest(requestWithPipeline("{\"passes\": \"" + Passes + "\"}")));
  EXPECT_EQ(Bad.ErrorKind, "bad_request");
  EXPECT_NE(Bad.Body.find("deeper than"), std::string::npos) << Bad.Body;

  Parsed Ping = parseResponse(S.handleRequest("{\"op\": \"ping\"}"));
  EXPECT_EQ(Ping.Status, "ok");
}

TEST(ServeTest, PartitioningTwiceIsCompileErrorAndServerSurvives) {
  // opt2 ends in partition and regalloc, so "opt2,opt2" partitions an
  // allocated, partitioned module: a typed error, answered in-process.
  TempDir Dir("server_opt2_twice");
  Server S(quickOptions(Dir.Path, /*Sandbox=*/false));
  Parsed Bad = parseResponse(
      S.handleRequest(requestWithPipeline("{\"passes\": \"opt2,opt2\"}")));
  EXPECT_EQ(Bad.ErrorKind, "compile_error") << Bad.Body;
  EXPECT_NE(Bad.Body.find("partition: module is already partitioned"),
            std::string::npos)
      << Bad.Body;
  EXPECT_EQ(S.counters().SandboxDeaths, 0u);

  Parsed Ping = parseResponse(S.handleRequest("{\"op\": \"ping\"}"));
  EXPECT_EQ(Ping.Status, "ok");
}

TEST(ServeTest, DeeplyNestedRequestIsBadRequestAndServerSurvives) {
  TempDir Dir("server_nested");
  Server S(quickOptions(Dir.Path, /*Sandbox=*/false));
  const std::string Hostile =
      std::string(200000, '[') + std::string(200000, ']');
  Parsed Bad = parseResponse(S.handleRequest(Hostile));
  EXPECT_EQ(Bad.ErrorKind, "bad_request");
  EXPECT_NE(Bad.Body.find("nesting too deep"), std::string::npos) << Bad.Body;
  EXPECT_EQ(S.counters().BadRequests, 1u);

  Parsed Ping = parseResponse(S.handleRequest("{\"op\": \"ping\"}"));
  EXPECT_EQ(Ping.Status, "ok");
}

//===----------------------------------------------------------------------===//
// Connection loop.
//===----------------------------------------------------------------------===//

/// Runs serveConnection on one end of a socketpair in a thread and
/// returns the client end.
struct ConnectionHarness {
  Server &S;
  int ClientFd = -1;
  std::thread Worker;
  bool CleanEof = false;

  explicit ConnectionHarness(Server &Srv) : S(Srv) {
    int Fds[2];
    EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
    ClientFd = Fds[0];
    int ServerFd = Fds[1];
    Worker = std::thread([this, ServerFd] {
      CleanEof = S.serveConnection(ServerFd);
      close(ServerFd);
    });
  }
  ~ConnectionHarness() {
    if (ClientFd >= 0)
      close(ClientFd);
    if (Worker.joinable())
      Worker.join();
  }
  void closeClient() {
    close(ClientFd);
    ClientFd = -1;
  }
};

TEST(ServeTest, MalformedJsonAnsweredAndConnectionStaysOpen) {
  TempDir Dir("conn_malformed");
  Server S(quickOptions(Dir.Path, /*Sandbox=*/false));
  ConnectionHarness Conn(S);

  ASSERT_TRUE(writeFrame(Conn.ClientFd, "this is not json"));
  std::string Resp;
  ASSERT_EQ(readFrame(Conn.ClientFd, 1 << 20, Resp), FrameStatus::Ok);
  EXPECT_EQ(parseResponse(Resp).ErrorKind, "bad_request");

  // The stream is still framed; the next request is served normally.
  ASSERT_TRUE(writeFrame(Conn.ClientFd, "{\"op\": \"ping\"}"));
  ASSERT_EQ(readFrame(Conn.ClientFd, 1 << 20, Resp), FrameStatus::Ok);
  EXPECT_EQ(parseResponse(Resp).Status, "ok");

  Conn.closeClient();
  Conn.Worker.join();
  EXPECT_TRUE(Conn.CleanEof);
}

TEST(ServeTest, OversizedRequestAnsweredThenConnectionClosed) {
  TempDir Dir("conn_oversized");
  ServerOptions Opts = quickOptions(Dir.Path, /*Sandbox=*/false);
  Opts.MaxRequestBytes = 128;
  Server S(Opts);
  {
    ConnectionHarness Conn(S);
    ASSERT_TRUE(writeFrame(Conn.ClientFd, std::string(4096, 'z')));
    std::string Resp;
    ASSERT_EQ(readFrame(Conn.ClientFd, 1 << 20, Resp), FrameStatus::Ok);
    EXPECT_EQ(parseResponse(Resp).ErrorKind, "bad_request");
    // The server hung up: the unframable stream cannot continue. The
    // close happens with our unread payload still buffered, so the
    // client may see a reset (IoError) rather than a clean EOF.
    EXPECT_NE(readFrame(Conn.ClientFd, 1 << 20, Resp), FrameStatus::Ok);
    Conn.Worker.join();
    EXPECT_FALSE(Conn.CleanEof);
  }
  // The engine survived; a fresh connection is served normally.
  ConnectionHarness Conn2(S);
  ASSERT_TRUE(writeFrame(Conn2.ClientFd, "{\"op\": \"ping\"}"));
  std::string Resp;
  ASSERT_EQ(readFrame(Conn2.ClientFd, 1 << 20, Resp), FrameStatus::Ok);
  EXPECT_EQ(parseResponse(Resp).Status, "ok");
}

TEST(ServeTest, TruncatedStreamDoesNotKillTheEngine) {
  TempDir Dir("conn_truncated");
  Server S(quickOptions(Dir.Path, /*Sandbox=*/false));
  {
    ConnectionHarness Conn(S);
    // Half a header, then hang up.
    ASSERT_EQ(write(Conn.ClientFd, "\xff\x00", 2), 2);
    Conn.closeClient();
    Conn.Worker.join();
    EXPECT_FALSE(Conn.CleanEof);
  }
  ConnectionHarness Conn2(S);
  ASSERT_TRUE(writeFrame(Conn2.ClientFd, "{\"op\": \"ping\"}"));
  std::string Resp;
  ASSERT_EQ(readFrame(Conn2.ClientFd, 1 << 20, Resp), FrameStatus::Ok);
  EXPECT_EQ(parseResponse(Resp).Status, "ok");
}

//===----------------------------------------------------------------------===//
// Concurrency.
//===----------------------------------------------------------------------===//

TEST(ServeTest, ConcurrentClientsGetByteIdenticalBodies) {
  TempDir Dir("server_concurrent");
  Server S(quickOptions(Dir.Path, /*Sandbox=*/false));

  // Reference bodies, computed serially.
  const std::vector<std::string> Requests = {
      compileRequest(fixtures::IntVectorSum, "none"),
      compileRequest(fixtures::IntVectorSum, "basic"),
      compileRequest(fixtures::IntVectorSum, "advanced"),
      compileRequest(fixtures::InvalidateForCall, "basic"),
  };
  std::map<std::string, std::string> Reference;
  {
    TempDir RefDir("server_concurrent_ref");
    Server RefServer(quickOptions(RefDir.Path, /*Sandbox=*/false));
    for (const std::string &R : Requests)
      Reference[R] = parseResponse(RefServer.handleRequest(R)).Body;
  }

  constexpr unsigned NumThreads = 8, PerThread = 12;
  std::atomic<unsigned> Mismatches{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (unsigned I = 0; I < PerThread; ++I) {
        const std::string &R = Requests[(T + I) % Requests.size()];
        Parsed P = parseResponse(S.handleRequest(R));
        if (P.Body != Reference[R] || P.Status != "ok")
          Mismatches.fetch_add(1);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Mismatches.load(), 0u);

  Server::Counters C = S.counters();
  EXPECT_EQ(C.Requests, NumThreads * PerThread);
  // Cold keys can be computed by several racing clients before the
  // first publish lands (the publishes are byte-identical and atomic,
  // so this only costs duplicate work), but once warm every request
  // must hit: misses are bounded by the racing thread count.
  EXPECT_GE(C.Misses, Requests.size());
  EXPECT_LE(C.Misses, Requests.size() * NumThreads);
  EXPECT_EQ(C.MemHits + C.DiskHits + C.Misses, C.Requests);
}

} // namespace
