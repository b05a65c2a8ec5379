//===- serve/Protocol.cpp - fpint-serve wire protocol ---------------------===//

#include "serve/Protocol.h"

#include "core/PassManager.h"
#include "core/RunCache.h"
#include "regalloc/Allocator.h"
#include "stats/Report.h"

#include <bit>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <limits>

#include <unistd.h>

using namespace fpint;
using namespace fpint::serve;
using json::Value;

const char *const serve::ResponseSchema = "fpint-serve-response-v1";

//===----------------------------------------------------------------------===//
// Framing.
//===----------------------------------------------------------------------===//

namespace {

/// EINTR-safe read of exactly \p Len bytes. Returns the byte count
/// actually read (short on EOF), or -1 on error.
ssize_t readFull(int Fd, char *Buf, size_t Len) {
  size_t Got = 0;
  while (Got < Len) {
    ssize_t N = read(Fd, Buf + Got, Len - Got);
    if (N == 0)
      break;
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return -1;
    }
    Got += static_cast<size_t>(N);
  }
  return static_cast<ssize_t>(Got);
}

} // namespace

FrameStatus serve::readFrame(int Fd, size_t MaxBytes, std::string &Out) {
  char Hdr[4];
  ssize_t N = readFull(Fd, Hdr, 4);
  if (N < 0)
    return FrameStatus::IoError;
  if (N == 0)
    return FrameStatus::Eof;
  if (N < 4)
    return FrameStatus::Truncated;
  uint32_t Len = static_cast<uint8_t>(Hdr[0]) |
                 (static_cast<uint8_t>(Hdr[1]) << 8) |
                 (static_cast<uint8_t>(Hdr[2]) << 16) |
                 (static_cast<uint32_t>(static_cast<uint8_t>(Hdr[3])) << 24);
  if (Len > MaxBytes)
    return FrameStatus::Oversized;
  Out.resize(Len);
  if (Len == 0)
    return FrameStatus::Ok;
  N = readFull(Fd, Out.data(), Len);
  if (N < 0)
    return FrameStatus::IoError;
  if (static_cast<size_t>(N) < Len)
    return FrameStatus::Truncated;
  return FrameStatus::Ok;
}

bool serve::writeFrame(int Fd, const std::string &Payload) {
  uint32_t Len = static_cast<uint32_t>(Payload.size());
  char Hdr[4] = {static_cast<char>(Len), static_cast<char>(Len >> 8),
                 static_cast<char>(Len >> 16), static_cast<char>(Len >> 24)};
  std::string Framed(Hdr, 4);
  Framed += Payload;
  size_t Off = 0;
  while (Off < Framed.size()) {
    ssize_t N = write(Fd, Framed.data() + Off, Framed.size() - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Strict request parsing.
//===----------------------------------------------------------------------===//

namespace {

/// Accumulates the first validation diagnostic; subsequent checks
/// become no-ops once one fired.
struct Validator {
  std::string &Err;
  bool ok() const { return Err.empty(); }
  void fail(const std::string &Msg) {
    if (Err.empty())
      Err = Msg;
  }

  /// Checks that every member of \p Obj is one of \p Allowed.
  void onlyKeys(const Value &Obj, const char *What,
                std::initializer_list<const char *> Allowed) {
    for (const auto &KV : Obj.members()) {
      bool Known = false;
      for (const char *A : Allowed)
        if (KV.first == A)
          Known = true;
      if (!Known)
        fail(std::string("unknown ") + What + " member '" + KV.first + "'");
    }
  }

  bool getString(const Value &Obj, const char *Key, std::string &Out) {
    const Value *V = Obj.find(Key);
    if (!V)
      return false;
    if (!V->isString()) {
      fail(std::string("'") + Key + "' must be a string");
      return false;
    }
    Out = V->str();
    return true;
  }

  bool getBool(const Value &Obj, const char *Key, bool &Out) {
    const Value *V = Obj.find(Key);
    if (!V)
      return false;
    if (V->kind() != Value::Kind::Bool) {
      fail(std::string("'") + Key + "' must be a boolean");
      return false;
    }
    Out = V->boolean();
    return true;
  }

  bool getUnsigned(const Value &Obj, const char *Key, unsigned &Out) {
    const Value *V = Obj.find(Key);
    if (!V)
      return false;
    if (V->kind() != Value::Kind::Int || V->integer() < 0 ||
        V->integer() > std::numeric_limits<unsigned>::max()) {
      fail(std::string("'") + Key + "' must be a non-negative integer");
      return false;
    }
    Out = static_cast<unsigned>(V->integer());
    return true;
  }

  bool getDouble(const Value &Obj, const char *Key, double &Out) {
    const Value *V = Obj.find(Key);
    if (!V)
      return false;
    if (!V->isNumber()) {
      fail(std::string("'") + Key + "' must be a number");
      return false;
    }
    Out = V->number();
    return true;
  }

  bool getArgs(const Value &Obj, const char *Key,
               std::vector<int32_t> &Out) {
    const Value *V = Obj.find(Key);
    if (!V)
      return false;
    if (!V->isArray() || V->size() > 64) {
      fail(std::string("'") + Key +
           "' must be an array of at most 64 integers");
      return false;
    }
    Out.clear();
    for (const Value &E : V->items()) {
      if (E.kind() != Value::Kind::Int ||
          E.integer() < std::numeric_limits<int32_t>::min() ||
          E.integer() > std::numeric_limits<int32_t>::max()) {
        fail(std::string("'") + Key + "' elements must be 32-bit integers");
        return false;
      }
      Out.push_back(static_cast<int32_t>(E.integer()));
    }
    return true;
  }
};

void parsePipelineObj(Validator &V, const Value &Obj,
                      core::PipelineConfig &Cfg) {
  if (!Obj.isObject()) {
    V.fail("'pipeline' must be an object");
    return;
  }
  V.onlyKeys(Obj, "pipeline",
             {"scheme", "costs", "train_args", "ref_args",
              "run_register_allocation", "enable_fp_arg_passing",
              "run_optimizations", "passes", "regalloc"});
  std::string Scheme;
  if (V.getString(Obj, "scheme", Scheme)) {
    if (Scheme == "none")
      Cfg.Scheme = partition::Scheme::None;
    else if (Scheme == "basic")
      Cfg.Scheme = partition::Scheme::Basic;
    else if (Scheme == "advanced")
      Cfg.Scheme = partition::Scheme::Advanced;
    else
      V.fail("'scheme' must be none|basic|advanced");
  }
  if (const Value *Costs = Obj.find("costs")) {
    if (!Costs->isObject()) {
      V.fail("'costs' must be an object");
    } else {
      V.onlyKeys(*Costs, "costs",
                 {"copy_overhead", "dup_overhead", "fpa_share_cap"});
      V.getDouble(*Costs, "copy_overhead", Cfg.Costs.CopyOverhead);
      V.getDouble(*Costs, "dup_overhead", Cfg.Costs.DupOverhead);
      V.getDouble(*Costs, "fpa_share_cap", Cfg.Costs.FpaShareCap);
    }
  }
  V.getArgs(Obj, "train_args", Cfg.TrainArgs);
  V.getArgs(Obj, "ref_args", Cfg.RefArgs);
  V.getBool(Obj, "run_register_allocation", Cfg.RunRegisterAllocation);
  V.getBool(Obj, "enable_fp_arg_passing", Cfg.EnableFpArgPassing);
  V.getBool(Obj, "run_optimizations", Cfg.RunOptimizations);
  if (V.getString(Obj, "passes", Cfg.Passes) && !Cfg.Passes.empty()) {
    std::vector<std::unique_ptr<core::ModulePass>> Parsed;
    std::string ParseErr;
    if (!core::parsePipeline(Cfg.Passes, Parsed, ParseErr))
      V.fail("bad 'passes' pipeline text: " + ParseErr);
  }
  if (V.getString(Obj, "regalloc", Cfg.RegAllocator) &&
      !Cfg.RegAllocator.empty() &&
      !regalloc::AllocatorRegistry::global().contains(Cfg.RegAllocator))
    V.fail("unknown 'regalloc' backend '" + Cfg.RegAllocator + "'");
}

void parseCacheObj(Validator &V, const Value &Obj, const char *What,
                   timing::CacheConfig &C) {
  if (!Obj.isObject()) {
    V.fail(std::string("'") + What + "' must be an object");
    return;
  }
  V.onlyKeys(Obj, What,
             {"size_bytes", "assoc", "line_bytes", "hit_latency",
              "miss_penalty"});
  V.getUnsigned(Obj, "size_bytes", C.SizeBytes);
  V.getUnsigned(Obj, "assoc", C.Assoc);
  V.getUnsigned(Obj, "line_bytes", C.LineBytes);
  V.getUnsigned(Obj, "hit_latency", C.HitLatency);
  V.getUnsigned(Obj, "miss_penalty", C.MissPenalty);
  // timing::Cache indexes with shifts and masks, so the line size and
  // the set count size_bytes / (line_bytes * assoc) must be powers of
  // two. The product is taken in 64 bits, so it cannot wrap to zero.
  const uint64_t SetBytes = uint64_t{C.LineBytes} * C.Assoc;
  if (!std::has_single_bit(C.LineBytes) || C.Assoc == 0 ||
      !std::has_single_bit(C.SizeBytes / SetBytes))
    V.fail(std::string("'") + What +
           "' needs a power-of-two line_bytes, a non-zero assoc and a "
           "power-of-two set count size_bytes / (line_bytes * assoc)");
}

void parseMachineObj(Validator &V, const Value &Obj,
                     timing::MachineConfig &M, std::string &DisplayName) {
  if (!Obj.isObject()) {
    V.fail("'machine' must be an object");
    return;
  }
  V.onlyKeys(Obj, "machine",
             {"base", "name", "fetch_width", "decode_width", "retire_width",
              "int_window", "fp_window", "max_in_flight", "int_units",
              "fp_units", "load_store_ports", "int_phys_regs",
              "fp_phys_regs", "icache", "dcache", "predictor",
              "mispredict_redirect", "fetch_breaks_on_taken",
              "fpa_enabled"});
  std::string Base;
  if (V.getString(Obj, "base", Base)) {
    if (Base == "4-way" || Base == "4way")
      M = timing::MachineConfig::fourWay();
    else if (Base == "8-way" || Base == "8way")
      M = timing::MachineConfig::eightWay();
    else
      V.fail("'base' must be 4-way|8-way");
  }
  V.getString(Obj, "name", DisplayName);
  V.getUnsigned(Obj, "fetch_width", M.FetchWidth);
  V.getUnsigned(Obj, "decode_width", M.DecodeWidth);
  V.getUnsigned(Obj, "retire_width", M.RetireWidth);
  V.getUnsigned(Obj, "int_window", M.IntWindow);
  V.getUnsigned(Obj, "fp_window", M.FpWindow);
  V.getUnsigned(Obj, "max_in_flight", M.MaxInFlight);
  V.getUnsigned(Obj, "int_units", M.IntUnits);
  V.getUnsigned(Obj, "fp_units", M.FpUnits);
  V.getUnsigned(Obj, "load_store_ports", M.LoadStorePorts);
  V.getUnsigned(Obj, "int_phys_regs", M.IntPhysRegs);
  V.getUnsigned(Obj, "fp_phys_regs", M.FpPhysRegs);
  if (const Value *C = Obj.find("icache"))
    parseCacheObj(V, *C, "icache", M.ICache);
  if (const Value *C = Obj.find("dcache"))
    parseCacheObj(V, *C, "dcache", M.DCache);
  if (const Value *P = Obj.find("predictor")) {
    if (!P->isObject()) {
      V.fail("'predictor' must be an object");
    } else {
      V.onlyKeys(*P, "predictor", {"kind", "table_bits", "history_bits"});
      std::string Kind;
      if (V.getString(*P, "kind", Kind)) {
        if (Kind == "gshare")
          M.Predictor = timing::PredictorKind::Gshare;
        else if (Kind == "mcfarling")
          M.Predictor = timing::PredictorKind::McFarling;
        else if (Kind == "static_not_taken")
          M.Predictor = timing::PredictorKind::StaticNotTaken;
        else
          V.fail("'predictor.kind' must be "
                 "gshare|mcfarling|static_not_taken");
      }
      V.getUnsigned(*P, "table_bits", M.PredictorTableBits);
      V.getUnsigned(*P, "history_bits", M.PredictorHistoryBits);
    }
  }
  V.getUnsigned(Obj, "mispredict_redirect", M.MispredictRedirect);
  V.getBool(Obj, "fetch_breaks_on_taken", M.FetchBreaksOnTaken);
  V.getBool(Obj, "fpa_enabled", M.FpaEnabled);
}

} // namespace

bool serve::parseRequest(const std::string &Text, Request &Out,
                         std::string &Err) {
  Value Doc;
  if (!Value::parse(Text, Doc, &Err))
    return false;
  if (!Doc.isObject()) {
    Err = "request must be a JSON object";
    return false;
  }
  Validator V{Err};
  V.onlyKeys(Doc, "request",
             {"op", "module", "name", "pipeline", "machine", "simulate"});

  std::string Op = "compile";
  V.getString(Doc, "op", Op);
  if (Op == "compile")
    Out.Op = RequestOp::Compile;
  else if (Op == "stats")
    Out.Op = RequestOp::Stats;
  else if (Op == "ping")
    Out.Op = RequestOp::Ping;
  else
    V.fail("'op' must be compile|stats|ping");

  V.getString(Doc, "name", Out.Name);
  if (Out.Op == RequestOp::Compile) {
    if (!V.getString(Doc, "module", Out.ModuleText) && V.ok())
      V.fail("compile request needs a 'module' string");
    if (V.ok() && Out.ModuleText.empty())
      V.fail("'module' must not be empty");
  } else if (Doc.find("module")) {
    V.fail("'module' is only valid on compile requests");
  }
  if (const Value *P = Doc.find("pipeline"))
    parsePipelineObj(V, *P, Out.Pipeline);
  if (const Value *M = Doc.find("machine"))
    parseMachineObj(V, *M, Out.Machine, Out.MachineName);
  V.getBool(Doc, "simulate", Out.Simulate);
  return V.ok();
}

std::string serve::pipelineCacheKey(const core::PipelineConfig &Config) {
  // The empty leading module-name slot: the serve cache addresses the
  // module by its full text hash, not by a caller-chosen label.
  return core::RunCache::runKey("", Config);
}

//===----------------------------------------------------------------------===//
// Deterministic response bodies.
//===----------------------------------------------------------------------===//

json::Value serve::okBody(const core::PipelineRun &Run,
                          const timing::SimStats *Sim) {
  Value Result = Value::object();

  Value Part = Value::object();
  Part.set("dynamic_instructions", Run.Stats.Total);
  Part.set("fpa_fraction", Run.Stats.fpaFraction());
  Part.set("copy_fraction", Run.Stats.copyFraction());
  Part.set("dup_fraction", Run.Stats.dupFraction());
  Part.set("loads", Run.Stats.Loads);
  Part.set("stores", Run.Stats.Stores);
  Part.set("static_copies", Run.Rewrite.StaticCopies);
  Part.set("static_dups", Run.Rewrite.StaticDups);
  Part.set("static_copy_backs", Run.Rewrite.StaticCopyBacks);
  Result.set("partition", std::move(Part));
  Result.set("exit_value", Run.RefResult.ExitValue);

  // Per-pass telemetry: change counts and analysis-cache counters are
  // deterministic for a fixed pipeline; wall clock is not, so it is
  // zeroed to keep the body content-addressable.
  std::vector<core::PassStat> Passes = Run.PassStats;
  for (core::PassStat &P : Passes)
    P.WallMs = 0.0;
  Result.set("passes", stats::passStatsToJson(Passes));

  if (!Run.Alloc.AllocatorName.empty()) {
    stats::RegAllocSummary RA = stats::RegAllocSummary::of(Run.Alloc);
    RA.WallMs = 0.0; // Volatile; keeps the body content-addressable.
    Result.set("regalloc", stats::regAllocSummaryToJson(RA));
  }

  if (Sim) {
    timing::SimStats S = *Sim;
    S.SimWallMs = 0.0; // Volatile; zeroing also zeroes cycles/sec.
    Result.set("stats", stats::simStatsToJson(S));
  }

  Value Body = Value::object();
  Body.set("status", "ok");
  Body.set("result", std::move(Result));
  return Body;
}

json::Value serve::errorBody(const std::string &Kind,
                             const std::string &Detail) {
  Value E = Value::object();
  E.set("kind", Kind);
  E.set("detail", Detail);
  Value Body = Value::object();
  Body.set("status", "error");
  Body.set("error", std::move(E));
  return Body;
}

bool serve::isDeterministicErrorKind(const std::string &Kind) {
  return Kind == "parse_error" || Kind == "compile_error" ||
         Kind == "overrun";
}
