//===- tests/ParserFuzzTest.cpp - Parser robustness -----------------------===//

#include "sir/Parser.h"
#include "sir/Printer.h"
#include "sir/Verifier.h"
#include "support/Rng.h"
#include "support/Subprocess.h"

#include "PaperExamples.h"

#include <cstdlib>

#include <gtest/gtest.h>

using namespace fpint;
using namespace fpint::sir;

namespace {

/// Base seed for the randomized cases; FPINT_FUZZ_SEED reruns the whole
/// suite over a different stream (useful for widening coverage in
/// nightly CI without editing the test). Read like fpint-fuzz reads it.
uint64_t baseSeed() {
  if (const char *Env = std::getenv("FPINT_FUZZ_SEED"))
    return support::parseSeed(Env).value_or(1);
  return 1;
}

/// Mixes the base seed with the gtest iteration parameter and records
/// both on the failure trace, so a red run reports exactly which
/// (seed, iteration) pair to replay.
uint64_t caseSeed(int Iteration, uint64_t Salt) {
  uint64_t Seed = baseSeed() * 0x9e3779b97f4a7c15ull +
                  static_cast<uint64_t>(Iteration) * Salt;
  return Seed;
}

#define FPINT_TRACE_SEED(Iteration, Seed)                                      \
  SCOPED_TRACE(::testing::Message()                                            \
               << "FPINT_FUZZ_SEED=" << baseSeed() << " iteration="            \
               << (Iteration) << " case seed=" << (Seed))

// The parser must never crash: any byte soup either parses into a
// verifiable module or produces a diagnostic with a line number.
class ParserFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ParserFuzz, RandomBytesNeverCrash) {
  uint64_t Seed = caseSeed(GetParam(), 2654435761u);
  FPINT_TRACE_SEED(GetParam(), Seed);
  Rng R(Seed);
  const char Alphabet[] =
      "abcdefghijklmnopqrstuvwxyz0123456789%,()+-:#{}[]. \n\tfunc global";
  std::string Soup;
  size_t Len = 1 + R.nextBelow(400);
  for (size_t I = 0; I < Len; ++I)
    Soup += Alphabet[R.nextBelow(sizeof(Alphabet) - 1)];
  ParseResult PR = parseModule(Soup);
  if (PR.ok()) {
    // Anything accepted must print without crashing.
    (void)toString(*PR.M);
  } else {
    EXPECT_FALSE(PR.Error.empty());
    EXPECT_GE(PR.Line, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Soup, ParserFuzz, ::testing::Range(0, 50));

// Mutations of a valid program: delete/duplicate/garble single lines.
class MutationFuzz : public ::testing::TestWithParam<int> {};

TEST_P(MutationFuzz, MutatedProgramsFailCleanly) {
  uint64_t Seed = caseSeed(GetParam(), 40503u) + 7;
  FPINT_TRACE_SEED(GetParam(), Seed);
  Rng R(Seed);
  std::string Src = fixtures::InvalidateForCall;

  // Split into lines.
  std::vector<std::string> Lines;
  size_t Start = 0;
  while (Start <= Src.size()) {
    size_t End = Src.find('\n', Start);
    if (End == std::string::npos) {
      Lines.push_back(Src.substr(Start));
      break;
    }
    Lines.push_back(Src.substr(Start, End - Start));
    Start = End + 1;
  }

  unsigned Mutations = 1 + R.nextBelow(3);
  for (unsigned M = 0; M < Mutations && !Lines.empty(); ++M) {
    size_t Pick = R.nextBelow(Lines.size());
    switch (R.nextBelow(4)) {
    case 0:
      Lines.erase(Lines.begin() + Pick);
      break;
    case 1:
      Lines.insert(Lines.begin() + Pick, Lines[Pick]);
      break;
    case 2:
      if (!Lines[Pick].empty())
        Lines[Pick][R.nextBelow(Lines[Pick].size())] =
            static_cast<char>('a' + R.nextBelow(26));
      break;
    case 3:
      Lines[Pick] += " %x";
      break;
    }
  }

  std::string Mutated;
  for (const std::string &L : Lines)
    Mutated += L + "\n";

  ParseResult PR = parseModule(Mutated);
  if (!PR.ok()) {
    EXPECT_FALSE(PR.Error.empty());
    return;
  }
  // If it still parses, printing and verifying must not crash; the
  // verifier may legitimately report diagnostics.
  (void)toString(*PR.M);
  (void)verify(*PR.M);
}

INSTANTIATE_TEST_SUITE_P(Mutations, MutationFuzz, ::testing::Range(0, 60));

TEST(ParserEdge, EmptyAndWhitespaceOnly) {
  EXPECT_TRUE(parseModule("").ok());
  EXPECT_TRUE(parseModule("\n\n  \n# only a comment\n").ok());
}

TEST(ParserEdge, HugeImmediates) {
  ParseResult PR = parseModule(R"(
func main() {
entry:
  li %a, 2147483647
  li %b, -2147483648
  li %c, 0x7fffffff
  out %a
  out %b
  out %c
  ret
}
)");
  ASSERT_TRUE(PR.ok()) << PR.Error;
}

TEST(ParserEdge, DeeplyNestedLabelsAndBranches) {
  std::string Src = "func main() {\nentry:\n  li %x, 0\n";
  for (int I = 0; I < 200; ++I) {
    Src += "  addi %x, %x, 1\n  blez %x, l" + std::to_string(I) + "\nl" +
           std::to_string(I) + ":\n";
  }
  Src += "  out %x\n  ret\n}\n";
  ParseResult PR = parseModule(Src);
  ASSERT_TRUE(PR.ok()) << PR.Error;
  EXPECT_EQ(PR.M->functionByName("main")->blocks().size(), 201u);
}

} // namespace
