//===- tests/SupportTest.cpp - RNG, table and sandbox-knob utilities ------===//

#include "bench/BenchCommon.h"
#include "campaign/Campaign.h"
#include "serve/Server.h"
#include "support/Rng.h"
#include "support/Subprocess.h"
#include "support/Table.h"
#include "testgen/Oracle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>

using namespace fpint;

namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng A(42), B(42);
  for (int I = 0; I < 1000; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, SeedsDecorrelate) {
  Rng A(1), B(2);
  unsigned Same = 0;
  for (int I = 0; I < 1000; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 5u);
}

TEST(Rng, NextBelowStaysInBounds) {
  Rng R(7);
  for (uint64_t Bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int I = 0; I < 200; ++I)
      EXPECT_LT(R.nextBelow(Bound), Bound);
  }
}

TEST(Rng, NextBelowCoversSmallRange) {
  Rng R(11);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 200; ++I)
    Seen.insert(R.nextBelow(4));
  EXPECT_EQ(Seen.size(), 4u);
}

TEST(Rng, NextInRangeInclusive) {
  Rng R(13);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 2000; ++I) {
    int64_t V = R.nextInRange(-3, 3);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 3);
    SawLo |= V == -3;
    SawHi |= V == 3;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng R(17);
  unsigned Hits = 0;
  for (int I = 0; I < 10000; ++I)
    Hits += R.chance(1, 4);
  EXPECT_GT(Hits, 2200u);
  EXPECT_LT(Hits, 2800u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng R(19);
  for (int I = 0; I < 1000; ++I) {
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(Rng, ReseedRestartsStream) {
  Rng R(23);
  uint64_t First = R.next();
  R.next();
  R.reseed(23);
  EXPECT_EQ(R.next(), First);
}

TEST(Table, FormatsCells) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::pct(0.1234), "12.3%");
  EXPECT_EQ(Table::pct(0.5, 0), "50%");
  EXPECT_EQ(Table::num(1234567), "1234567");
}

TEST(Table, AlignsColumns) {
  Table T({"name", "value"});
  T.addRow({"a", "1"});
  T.addRow({"longer-name", "22"});
  // Render to a memstream and check alignment survived.
  char *Buf = nullptr;
  size_t Size = 0;
  FILE *Mem = open_memstream(&Buf, &Size);
  ASSERT_NE(Mem, nullptr);
  T.print(Mem);
  std::fclose(Mem);
  std::string Out(Buf, Size);
  free(Buf);
  EXPECT_NE(Out.find("name"), std::string::npos);
  EXPECT_NE(Out.find("longer-name"), std::string::npos);
  EXPECT_NE(Out.find("---"), std::string::npos);
  // Both data rows start their second column at the same offset.
  size_t Row1 = Out.find("\na ");
  size_t V1 = Out.find('1', Row1);
  size_t Row2 = Out.find("\nlonger-name");
  size_t V2 = Out.find("22", Row2);
  ASSERT_NE(Row1, std::string::npos);
  ASSERT_NE(Row2, std::string::npos);
  EXPECT_EQ(V1 - Row1, V2 - Row2);
}

TEST(Table, ToleratesShortRows) {
  Table T({"a", "b", "c"});
  T.addRow({"only-one"});
  char *Buf = nullptr;
  size_t Size = 0;
  FILE *Mem = open_memstream(&Buf, &Size);
  T.print(Mem);
  std::fclose(Mem);
  std::string Out(Buf, Size);
  free(Buf);
  EXPECT_NE(Out.find("only-one"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Strict decimal parsing and the FPINT_SANDBOX_* policy reader.
//===----------------------------------------------------------------------===//

using support::Supervised;
using support::parseDecimal;

TEST(ParseDecimal, AcceptsWholeNumbersInRange) {
  EXPECT_EQ(parseDecimal("0", 0, 10), std::optional<uint64_t>(0));
  EXPECT_EQ(parseDecimal("10", 0, 10), std::optional<uint64_t>(10));
  EXPECT_EQ(parseDecimal("007", 1, 10), std::optional<uint64_t>(7));
  EXPECT_EQ(parseDecimal("18446744073709551615", 0, UINT64_MAX),
            std::optional<uint64_t>(UINT64_MAX));
}

TEST(ParseDecimal, RejectsEverythingElse) {
  for (const char *Bad : {"", "abc", "2s", "-1", "+1", " 1", "1 ", "1.5",
                          "0x10", "18446744073709551616",
                          "99999999999999999999999"})
    EXPECT_EQ(parseDecimal(Bad, 0, UINT64_MAX), std::nullopt) << Bad;
  EXPECT_EQ(parseDecimal("11", 0, 10), std::nullopt);
  EXPECT_EQ(parseDecimal("0", 1, 10), std::nullopt);
}

TEST(ParseSeed, AcceptsDecimalAndHex) {
  using support::parseSeed;
  EXPECT_EQ(parseSeed("0"), std::optional<uint64_t>(0));
  EXPECT_EQ(parseSeed("7"), std::optional<uint64_t>(7));
  EXPECT_EQ(parseSeed("010"), std::optional<uint64_t>(10)); // Not octal.
  EXPECT_EQ(parseSeed("0x7"), std::optional<uint64_t>(7));
  EXPECT_EQ(parseSeed("0XdeadBEEF"), std::optional<uint64_t>(0xdeadbeef));
  // The form every repro line prints.
  EXPECT_EQ(parseSeed("0xd0bad0da572baaf1"),
            std::optional<uint64_t>(0xd0bad0da572baaf1ull));
  EXPECT_EQ(parseSeed("0xffffffffffffffff"),
            std::optional<uint64_t>(UINT64_MAX));
  EXPECT_EQ(parseSeed("18446744073709551615"),
            std::optional<uint64_t>(UINT64_MAX));
}

TEST(ParseSeed, RejectsEverythingElse) {
  for (const char *Bad :
       {"", "x", "0x", "2x", "1 ", " 1", "-1", "+1", "0x-1", "0x+1", "0x 1",
        "0xg", "0x1g", "1.0", "0b1", "0x10000000000000000",
        "18446744073709551616"})
    EXPECT_EQ(support::parseSeed(Bad), std::nullopt) << Bad;
}

/// Sets (or, with null, unsets) one environment variable for a scope
/// and restores the previous state afterwards.
class ScopedEnv {
public:
  ScopedEnv(const char *Name, const char *Value) : Name(Name) {
    if (const char *Old = std::getenv(Name))
      Saved = Old;
    if (Value)
      setenv(Name, Value, 1);
    else
      unsetenv(Name);
  }
  ~ScopedEnv() {
    if (Saved)
      setenv(Name, Saved->c_str(), 1);
    else
      unsetenv(Name);
  }

private:
  const char *Name;
  std::optional<std::string> Saved;
};

/// Unsets the four sandbox knobs for a scope.
struct NoSandboxEnv {
  ScopedEnv Timeout{"FPINT_SANDBOX_TIMEOUT_MS", nullptr};
  ScopedEnv Grace{"FPINT_SANDBOX_KILL_GRACE_MS", nullptr};
  ScopedEnv As{"FPINT_SANDBOX_AS_MB", nullptr};
  ScopedEnv Retries{"FPINT_SANDBOX_RETRIES", nullptr};
};

void expectPolicy(const Supervised::Policy &P, int WallMs, int GraceMs,
                  uint64_t AsMb, int Retries, int BackoffMs,
                  const char *FaultSite) {
  EXPECT_EQ(P.Limits.WallMs, WallMs);
  EXPECT_EQ(P.Limits.KillGraceMs, GraceMs);
  EXPECT_EQ(P.Limits.AddressSpaceMb, AsMb);
  EXPECT_EQ(P.Retries, Retries);
  EXPECT_EQ(P.BackoffMs, BackoffMs);
  EXPECT_EQ(std::string(P.FaultSite ? P.FaultSite : ""), FaultSite);
  EXPECT_FALSE(P.InProcess);
}

TEST(SandboxPolicy, CallerDefaultsWithoutOverrides) {
  NoSandboxEnv Clean;
  {
    SCOPED_TRACE("bench cell");
    expectPolicy(bench::detail::cellPolicy(true), 120000, 500, 4096, 2, 50,
                 "cell");
  }
  {
    SCOPED_TRACE("campaign cell");
    expectPolicy(campaign::CellPolicy.withEnv(), 120000, 500, 4096, 2, 50,
                 "campaign:cell");
    expectPolicy(campaign::Options().Policy, 120000, 500, 4096, 2, 50,
                 "campaign:cell");
  }
  {
    SCOPED_TRACE("serve miss");
    expectPolicy(serve::ServerOptions().Policy.withEnv(), 30000, 500, 4096, 0,
                 0, "serve");
  }
  {
    SCOPED_TRACE("fpint-fuzz");
    expectPolicy(testgen::fuzzPolicy(std::nullopt), 10000, 300, 4096, 0, 0,
                 "");
  }
  // Without the sandbox a bench cell runs in-process, once.
  Supervised::Policy InProcess = bench::detail::cellPolicy(false);
  EXPECT_TRUE(InProcess.InProcess);
  EXPECT_EQ(InProcess.Retries, 0);
  EXPECT_EQ(InProcess.FaultSite, nullptr);
}

TEST(SandboxPolicy, ValidOverridesApply) {
  ScopedEnv Timeout("FPINT_SANDBOX_TIMEOUT_MS", "2000");
  ScopedEnv Grace("FPINT_SANDBOX_KILL_GRACE_MS", "0");
  ScopedEnv As("FPINT_SANDBOX_AS_MB", "512");
  ScopedEnv Retries("FPINT_SANDBOX_RETRIES", "0");
  testing::internal::CaptureStderr();
  Supervised::Policy P = bench::detail::cellPolicy(true);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  // Only the four limits move; backoff and fault site stay the caller's.
  expectPolicy(P, 2000, 0, 512, 0, 50, "cell");
}

TEST(SandboxPolicy, MalformedValueKeepsDefaultAndWarnsOnce) {
  NoSandboxEnv Clean;
  for (const char *Bad :
       {"", "abc", "2s", "-1", "0", "99999999999999999999999"}) {
    SCOPED_TRACE(std::string("FPINT_SANDBOX_TIMEOUT_MS='") + Bad + "'");
    ScopedEnv Timeout("FPINT_SANDBOX_TIMEOUT_MS", Bad);
    testing::internal::CaptureStderr();
    Supervised::Policy P = bench::detail::cellPolicy(true);
    std::string Err = testing::internal::GetCapturedStderr();
    // The watchdog stays armed at the default; atoi would have made
    // "abc" a 0 ms (disabled) watchdog and "2s" a 2 ms one.
    EXPECT_EQ(P.Limits.WallMs, 120000);
    EXPECT_EQ(std::count(Err.begin(), Err.end(), '\n'), 1);
    EXPECT_NE(Err.find("FPINT_SANDBOX_TIMEOUT_MS"), std::string::npos);
  }
  for (const char *Name : {"FPINT_SANDBOX_KILL_GRACE_MS", "FPINT_SANDBOX_AS_MB",
                           "FPINT_SANDBOX_RETRIES"}) {
    SCOPED_TRACE(Name);
    ScopedEnv Knob(Name, "abc");
    testing::internal::CaptureStderr();
    Supervised::Policy P = serve::MissPolicy.withEnv();
    std::string Err = testing::internal::GetCapturedStderr();
    expectPolicy(P, 30000, 500, 4096, 0, 0, "serve");
    EXPECT_EQ(std::count(Err.begin(), Err.end(), '\n'), 1);
    EXPECT_NE(Err.find(Name), std::string::npos);
  }
}

TEST(SandboxPolicy, FlagBeatsEnvironment) {
  NoSandboxEnv Clean;
  ScopedEnv Timeout("FPINT_SANDBOX_TIMEOUT_MS", "5000");
  EXPECT_EQ(testgen::fuzzPolicy(std::nullopt).Limits.WallMs, 5000);
  EXPECT_EQ(testgen::fuzzPolicy(2000).Limits.WallMs, 2000);
}

} // namespace
