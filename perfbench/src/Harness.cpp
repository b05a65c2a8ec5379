//===- perfbench/src/Harness.cpp - Benchmark harness plumbing -------------===//

#include "Harness.h"

#include "support/Json.h"
#include "support/Rng.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <thread>

#include <sys/resource.h>

using namespace perfbench;

namespace {

const std::chrono::steady_clock::time_point Epoch =
    std::chrono::steady_clock::now();

thread_local ScopedSpan *InnermostSpan = nullptr;

} // namespace

double perfbench::nowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

int64_t perfbench::steadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<size_t> perfbench::permutation(size_t N, uint64_t Seed) {
  std::vector<size_t> P(N);
  for (size_t I = 0; I < N; ++I)
    P[I] = I;
  fpint::Rng G(Seed);
  for (size_t I = N; I > 1; --I)
    std::swap(P[I - 1], P[G.nextBelow(I)]);
  return P;
}

//===----------------------------------------------------------------------===//
// Spans.
//===----------------------------------------------------------------------===//

ScopedSpan::ScopedSpan(Tracer *T, const char *Name, uint64_t Op)
    : T(T && T->on() ? T : nullptr), Name(Name), Outer(nullptr) {
  if (!this->T)
    return;
  S.Id = this->T->NextId.fetch_add(1, std::memory_order_relaxed);
  S.Op = Op;
  Outer = InnermostSpan;
  S.Parent = Outer ? Outer->S.Id : 0;
  InnermostSpan = this;
  S.StartMs = nowMs();
}

ScopedSpan::~ScopedSpan() {
  if (!T)
    return;
  S.EndMs = nowMs();
  S.Name = Name;
  InnermostSpan = Outer;
  std::lock_guard<std::mutex> Lock(T->Mu);
  T->Spans.push_back(std::move(S));
}

std::map<std::string, Tracer::Layer> Tracer::layers() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::map<uint64_t, std::vector<std::pair<double, double>>> Children;
  for (const Span &S : Spans)
    if (S.Parent)
      Children[S.Parent].push_back({S.StartMs, S.EndMs});

  std::map<std::string, Layer> Out;
  for (const Span &S : Spans) {
    double Covered = 0;
    auto It = Children.find(S.Id);
    if (It != Children.end()) {
      std::vector<std::pair<double, double>> Iv = It->second;
      std::sort(Iv.begin(), Iv.end());
      double Lo = Iv[0].first, Hi = Iv[0].second;
      for (size_t I = 1; I < Iv.size(); ++I) {
        if (Iv[I].first > Hi) {
          Covered += Hi - Lo;
          Lo = Iv[I].first;
        }
        Hi = std::max(Hi, Iv[I].second);
      }
      Covered += Hi - Lo;
    }
    Layer &L = Out[S.Name];
    ++L.Calls;
    L.TotalMs += S.EndMs - S.StartMs;
    L.SelfMs += std::max(0.0, S.EndMs - S.StartMs - Covered);
  }
  return Out;
}

void Tracer::record(const char *Name, int64_t StartNs, int64_t EndNs,
                    uint64_t Op) {
  if (!On)
    return;
  const double EpochNs = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Epoch.time_since_epoch())
          .count());
  Span S;
  S.Id = NextId.fetch_add(1, std::memory_order_relaxed);
  S.Op = Op;
  S.Name = Name;
  S.StartMs = (static_cast<double>(StartNs) - EpochNs) / 1e6;
  S.EndMs = (static_cast<double>(EndNs) - EpochNs) / 1e6;
  std::lock_guard<std::mutex> Lock(Mu);
  Spans.push_back(std::move(S));
}

bool Tracer::write(const std::string &Path, std::string &Err) const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  for (const Span &S : Spans) {
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf),
                  ", \"start_ms\": %.6f, \"end_ms\": %.6f, \"parent\": %llu, "
                  "\"op\": %llu}\n",
                  S.StartMs, S.EndMs,
                  static_cast<unsigned long long>(S.Parent),
                  static_cast<unsigned long long>(S.Op));
    Out << "{\"id\": " << S.Id << ", \"name\": \"" << S.Name << "\"" << Buf;
  }
  Out.flush();
  if (!Out) {
    Err = "cannot write " + Path;
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Phases.
//===----------------------------------------------------------------------===//

PhaseStats perfbench::runPhase(unsigned Threads, double Seconds,
                               uint64_t Quantum, Tracer *T,
                               const std::function<bool(uint64_t, unsigned)>
                                   &Op) {
  std::mutex Mu;
  uint64_t Next = 0;
  bool Closed = false;
  const double Start = nowMs();
  const double Deadline = Start + Seconds * 1000.0;
  std::vector<PhaseStats> PerWorker(std::max(1u, Threads));

  auto Take = [&](uint64_t &Idx) {
    std::lock_guard<std::mutex> Lock(Mu);
    if (!Closed && Next > 0 && Next % Quantum == 0 && nowMs() >= Deadline)
      Closed = true;
    if (Closed)
      return false;
    Idx = Next++;
    return true;
  };

  auto Worker = [&](unsigned W) {
    PhaseStats &Mine = PerWorker[W];
    uint64_t Idx = 0;
    while (Take(Idx)) {
      ++Mine.Attempted;
      bool Ok = false;
      const double T0 = nowMs();
      try {
        ScopedSpan S(T, "op", Idx);
        Ok = Op(Idx, W);
      } catch (const std::exception &E) {
        complain("op " + std::to_string(Idx) + " threw: " + E.what());
      }
      Mine.LatencyMs.push_back(nowMs() - T0);
      if (!Ok)
        ++Mine.Failed;
    }
  };

  std::vector<std::thread> Pool;
  for (unsigned W = 0; W < PerWorker.size(); ++W)
    Pool.emplace_back(Worker, W);
  for (std::thread &Th : Pool)
    Th.join();

  PhaseStats P;
  P.WallS = (nowMs() - Start) / 1000.0;
  for (const PhaseStats &W : PerWorker) {
    P.Attempted += W.Attempted;
    P.Failed += W.Failed;
    P.LatencyMs.insert(P.LatencyMs.end(), W.LatencyMs.begin(),
                       W.LatencyMs.end());
  }
  return P;
}

double perfbench::percentile(std::vector<double> Samples, double Q) {
  if (Samples.empty())
    return 0.0;
  std::sort(Samples.begin(), Samples.end());
  size_t Rank = static_cast<size_t>(
      std::ceil(Q * static_cast<double>(Samples.size())));
  return Samples[std::clamp<size_t>(Rank, 1, Samples.size()) - 1];
}

double perfbench::median(std::vector<double> Samples) {
  if (Samples.empty())
    return 0.0;
  std::sort(Samples.begin(), Samples.end());
  size_t N = Samples.size();
  return N % 2 ? Samples[N / 2] : (Samples[N / 2 - 1] + Samples[N / 2]) / 2;
}

double perfbench::selfPeakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

double perfbench::pidPeakRssMb(int Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atof(Line.c_str() + 6) / 1024.0;
  return 0.0;
}

std::vector<double>
perfbench::timeSetups(unsigned Times, const std::function<void()> &Setup) {
  std::vector<double> Out;
  for (unsigned I = 0; I < Times; ++I) {
    const double T0 = nowMs();
    Setup();
    Out.push_back((nowMs() - T0) / 1000.0);
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Results.
//===----------------------------------------------------------------------===//

void perfbench::complain(const std::string &What) {
  static std::mutex Mu;
  static unsigned Printed = 0;
  std::lock_guard<std::mutex> Lock(Mu);
  if (++Printed <= 20)
    std::fprintf(stderr, "perfbench: WRONG: %s\n", What.c_str());
}

void Report::metric(const std::string &Name, const std::string &Unit,
                    double Value) {
  Metrics.push_back({Name, Unit, Value});
}

void Report::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (!Ok) {
    ++Failed;
    complain(What);
  }
}

void Report::addPhase(const PhaseStats &P) {
  Attempted += P.Attempted;
  Failed += P.Failed;
}

int Report::finish(const Options &Opts) const {
  std::printf("workload %s, seed %llu, %s run, %.0f s, %u threads\n",
              Opts.Workload.c_str(),
              static_cast<unsigned long long>(Opts.Seed),
              Opts.Trace ? "traced" : "untraced", Opts.Seconds, Opts.Threads);
  for (const std::string &N : Notes)
    std::printf("%s\n", N.c_str());
  const double ErrorRate =
      Attempted ? static_cast<double>(Failed) / Attempted : 1.0;
  std::printf("  %-28s %16.6g %s  (%llu failed of %llu attempted)\n",
              "error_rate",
              ErrorRate, "ratio", static_cast<unsigned long long>(Failed),
              static_cast<unsigned long long>(Attempted));
  for (const Entry &E : Metrics)
    std::printf("  %-28s %16.6g %s\n", E.Name.c_str(), E.Value,
                E.Unit.c_str());

  const bool Correct = Failed == 0 && Attempted > 0;
  std::string Line = "{\"correct\": ";
  Line += Correct ? "true" : "false";
  Line += ", \"attempted\": " + std::to_string(Attempted);
  Line += ", \"failed\": " + std::to_string(Failed);
  Line += ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    const Entry &E = Metrics[I];
    // Non-finite values are not JSON.
    double V = std::isfinite(E.Value) ? E.Value : 0.0;
    Line += (I ? ", \"" : "\"") + E.Name + "\": {\"value\": " +
            fpint::json::Value::formatDouble(V) + ", \"unit\": \"" + E.Unit +
            "\"}";
  }
  Line += "}}";
  std::printf("%s\n", Line.c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}

void perfbench::reportEndToEnd(Report &R, const std::vector<double> &SetupS,
                               const PhaseStats &P, double PeakRssMb) {
  R.metric("setup_s", "s", median(SetupS));
  R.metric("ops_per_s", "1/s", P.opsPerSec());
  R.metric("op_p50_ms", "ms", percentile(P.LatencyMs, 0.50));
  R.metric("op_p90_ms", "ms", percentile(P.LatencyMs, 0.90));
  R.metric("op_p99_ms", "ms", percentile(P.LatencyMs, 0.99));
  R.metric("peak_rss_mb", "MB", PeakRssMb);
  R.note("  " + std::to_string(P.LatencyMs.size()) + " ops in " +
         std::to_string(P.WallS) + " s; " + std::to_string(SetupS.size()) +
         " set-ups");
}
