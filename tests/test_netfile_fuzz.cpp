// Fuzz-style robustness tests of the .net parser: seeded generators feed
// truncated, garbled and oversized inputs and assert the parser either
// returns a valid net or throws std::runtime_error — it must never crash,
// hang, or hand back a net carrying non-finite physics.
//
// The finiteness checks in src/io/netfile.cpp exist because this harness
// surfaced that streams happily parse "nan"/"inf" into loads, required
// times, RC parameters and driver coefficients.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

#include "io/netfile.h"
#include "net/rng.h"

namespace merlin {
namespace {

const char* kValid =
    "net fuzz\n"
    "wire 0.08 0.2\n"
    "driver DRV 50 0.5 100 0.1\n"
    "source 10 20\n"
    "sink 100 200 12.5 1500\n"
    "sink 300 50 8.0 1200\n"
    "sink 40 400 20.0 1800\n";

// Feeds `text` to the parser; returns true iff a net came back.  Any
// std::runtime_error is the accepted failure mode; anything else escapes to
// the test harness as a failure (and a crash kills the process outright).
bool parse(const std::string& text) {
  std::istringstream in(text);
  try {
    const Net net = read_net(in);
    // Whatever parses must be internally sane.
    EXPECT_FALSE(net.sinks.empty());
    for (const Sink& s : net.sinks) {
      EXPECT_TRUE(std::isfinite(s.load));
      EXPECT_TRUE(std::isfinite(s.req_time));
      EXPECT_GE(s.load, 0.0);
    }
    EXPECT_TRUE(std::isfinite(net.wire.res_per_um));
    EXPECT_TRUE(std::isfinite(net.wire.cap_per_um));
    return true;
  } catch (const std::runtime_error&) {
    return false;
  }
}

TEST(NetfileFuzz, ValidBaselineParses) { EXPECT_TRUE(parse(kValid)); }

TEST(NetfileFuzz, TruncationsNeverCrash) {
  const std::string valid = kValid;
  for (std::size_t cut = 0; cut <= valid.size(); ++cut)
    parse(valid.substr(0, cut));  // every prefix: parse or throw, nothing else
}

TEST(NetfileFuzz, RandomByteMutationsNeverCrash) {
  Rng rng(0xF00DULL);
  const std::string valid = kValid;
  for (int round = 0; round < 400; ++round) {
    std::string s = valid;
    const int edits = 1 + static_cast<int>(rng.uniform_int(0, 5));
    for (int e = 0; e < edits; ++e) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(s.size()) - 1));
      switch (rng.uniform_int(0, 2)) {
        case 0:  // overwrite with a random byte (printable-ish and not)
          s[pos] = static_cast<char>(rng.uniform_int(1, 255));
          break;
        case 1:  // delete
          s.erase(pos, 1);
          break;
        default:  // insert
          s.insert(pos, 1, static_cast<char>(rng.uniform_int(1, 255)));
          break;
      }
      if (s.empty()) s.push_back('x');  // GCC 12 -O3 misflags s = "x" (-Wrestrict)
    }
    parse(s);
  }
}

TEST(NetfileFuzz, RandomGarbageNeverCrashes) {
  Rng rng(0xBEEFULL);
  for (int round = 0; round < 200; ++round) {
    std::string s;
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 512));
    s.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
      // Mostly token-ish characters so some lines reach the directive
      // dispatch, with raw bytes mixed in.
      if (rng.next_double() < 0.8) {
        const char* alphabet = "news ir dk-+.0123456789\n\t#";
        s.push_back(alphabet[rng.uniform_int(0, 25)]);
      } else {
        s.push_back(static_cast<char>(rng.uniform_int(1, 255)));
      }
    }
    EXPECT_FALSE(parse(s)) << "garbage should not satisfy source+sink";
  }
}

TEST(NetfileFuzz, OversizedInputsAreHandled) {
  // A very long comment line, a huge token, and thousands of sinks.
  std::string big = "net big\nsource 0 0\n# ";
  big.append(200000, 'x');
  big += "\n";
  for (int i = 0; i < 5000; ++i)
    big += "sink " + std::to_string(i) + " " + std::to_string(i) + " 1.0 100\n";
  EXPECT_TRUE(parse(big));

  std::string huge_token = "net ";
  huge_token.append(100000, 'n');
  huge_token += "\nsource 0 0\nsink 1 1 1 1\n";
  EXPECT_TRUE(parse(huge_token));
}

TEST(NetfileFuzz, NumericOverflowThrowsCleanly) {
  EXPECT_FALSE(parse("source 99999999999999999999 0\nsink 1 1 1 1\n"));
  EXPECT_FALSE(parse("source 0 0\nsink 1e500 1 1 1\n"));
}

// Regression tests for the bug this fuzzer surfaced: iostreams accept
// "nan"/"inf" as doubles, and the pre-fix parser passed them through.
TEST(NetfileFuzz, NonFiniteValuesAreRejected) {
  EXPECT_FALSE(parse("source 0 0\nsink 1 1 nan 100\n"));
  EXPECT_FALSE(parse("source 0 0\nsink 1 1 1.0 inf\n"));
  EXPECT_FALSE(parse("source 0 0\nsink 1 1 -nan 100\n"));
  EXPECT_FALSE(parse("wire nan 0.2\nsource 0 0\nsink 1 1 1 1\n"));
  EXPECT_FALSE(parse("wire 0.08 inf\nsource 0 0\nsink 1 1 1 1\n"));
  EXPECT_FALSE(parse("driver D nan 1 1 1\nsource 0 0\nsink 1 1 1 1\n"));
  EXPECT_FALSE(parse("driver D 1 1 1 -inf\nsource 0 0\nsink 1 1 1 1\n"));
}

TEST(NetfileFuzz, NegativeWireParametersAreRejected) {
  EXPECT_FALSE(parse("wire -0.08 0.2\nsource 0 0\nsink 1 1 1 1\n"));
  EXPECT_FALSE(parse("wire 0.08 -0.2\nsource 0 0\nsink 1 1 1 1\n"));
}

TEST(NetfileFuzz, RoundTripSurvivesMutationRounds) {
  // Anything that parses must re-serialize and re-parse to the same net.
  Rng rng(0xCAFEULL);
  const std::string valid = kValid;
  for (int round = 0; round < 100; ++round) {
    std::string s = valid;
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(s.size()) - 1));
    s[pos] = static_cast<char>(rng.uniform_int(32, 126));
    std::istringstream in(s);
    Net net;
    try {
      net = read_net(in);
    } catch (const std::runtime_error&) {
      continue;
    }
    std::ostringstream out;
    write_net(out, net);
    std::istringstream in2(out.str());
    const Net again = read_net(in2);
    EXPECT_EQ(again.sinks.size(), net.sinks.size());
    EXPECT_EQ(again.source, net.source);
  }
}

}  // namespace
}  // namespace merlin
