// Minimized regression tests for parser defects surfaced by
// tools/hispar_fuzz (ISSUE 9). Every input here once crashed, hit
// sanitizer-flagged UB, or silently mis-parsed; the fixed parsers must
// now reject each one with the contract exception (std::runtime_error
// for checkpoint/JSON readers, std::invalid_argument for the spec
// grammars) — never anything else.
//
// New fuzzer finds land here: minimize with testkit::minimize_bytes
// (the fuzzer does it automatically and writes fuzz-finding-*.bin),
// add one TEST per find, and keep the input inline so the file is the
// complete history of what the fuzzer has caught.
#include "core/serialization.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "net/faults.h"
#include "net/outage.h"
#include "net/vantage_profile.h"
#include "obs/json.h"
#include "util/literal_set.h"
#include "util/strings.h"

namespace {

using hispar::core::read_checkpoint;

// Find: a stack of 5000 unclosed arrays recursed once per '[' and
// overflowed the stack (crash, no exception). parse_json now bounds
// nesting at kMaxDepth = 200 and fails cleanly.
TEST(FuzzRegressionTest, DeeplyNestedJsonRejectsInsteadOfOverflowing) {
  const std::string bomb(5000, '[');
  try {
    hispar::obs::parse_json(bomb);
    FAIL() << "deep nesting parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("nesting too deep"),
              std::string::npos);
  }
  // Deep but legal nesting still parses.
  std::string legal;
  for (int i = 0; i < 100; ++i) legal += '[';
  legal += '1';
  for (int i = 0; i < 100; ++i) legal += ']';
  EXPECT_NO_THROW(hispar::obs::parse_json(legal));
}

// Find: "provider=1e18" passed the finite-number check and then hit a
// double->int float-cast overflow (UBSan). The chaos grammar now
// bounds provider before the cast.
TEST(FuzzRegressionTest, ChaosProviderOverflowRejects) {
  const char* hostile[] = {
      "cdn:provider=1e18,kind=stall,sev=0.5,start_s=0,dur_s=1",
      "cdn:provider=-1,kind=stall,sev=0.5,start_s=0,dur_s=1",
      "cdn:provider=0.5,kind=stall,sev=0.5,start_s=0,dur_s=1",
  };
  for (const char* spec : hostile)
    EXPECT_THROW(hispar::net::OutageSchedule::parse(spec),
                 std::invalid_argument)
        << spec;
  EXPECT_NO_THROW(hispar::net::OutageSchedule::parse(
      "cdn:provider=3,kind=stall,sev=0.5,start_s=0,dur_s=1"));
}

// Find: "access_ms=nan" flowed a NaN into every derived RTT; the
// vantage grammar now requires finite numbers.
TEST(FuzzRegressionTest, VantageNonFiniteNumbersReject) {
  const char* hostile[] = {"v0:access_ms=nan", "v0:access_ms=inf",
                           "v0:bandwidth=-inf", "v0:faults=nan"};
  for (const char* spec : hostile)
    EXPECT_THROW(hispar::net::VantageProfile::parse(spec),
                 std::invalid_argument)
        << spec;
}

// Find: strtoull stops at the first NUL, so a count field "2\0junk"
// parsed as 2 and the trailing bytes silently shifted the record
// stream. Fields must now be consumed to their full length.
TEST(FuzzRegressionTest, CheckpointEmbeddedNulInCountRejects) {
  std::string text = "hispar-checkpoint,v1,42\nshard,0,2";
  text += '\0';
  text += "9\nendshard,0\n";
  std::istringstream in(text);
  EXPECT_THROW(read_checkpoint(in), std::runtime_error);
}

// Find: an adversarial site count like 2^64-1 reached
// std::vector::reserve and died as std::length_error (or worse, an
// OOM) instead of a parse error. Counts are now bounded by the line
// count of the file that promises them.
TEST(FuzzRegressionTest, CheckpointOversizeCountRejects) {
  for (const char* count : {"18446744073709551615", "99999999999999999999",
                            "1000000000000000000"}) {
    std::istringstream in("hispar-checkpoint,v1,42\nshard,0," +
                          std::string(count) + "\nendshard,0\n");
    try {
      read_checkpoint(in);
      FAIL() << "count " << count << " accepted";
    } catch (const std::runtime_error& e) {
      // Specifically the bounded-count error, not an allocator throw.
      EXPECT_NE(std::string(e.what()).find("checkpoint:"), std::string::npos);
    } catch (...) {
      FAIL() << "count " << count << " escaped as a non-contract exception";
    }
  }
}

// Find: "uniform:0.5\0garbage" parsed as rate 0.5 under a bare
// *end == '\0' check. Rates must consume the full field, so embedded
// NUL bytes reject.
TEST(FuzzRegressionTest, FaultSpecEmbeddedNulRejects) {
  std::string spec = "uniform:0.5";
  spec += '\0';
  spec += "garbage";
  EXPECT_THROW(hispar::net::FaultProfile::parse(spec), std::invalid_argument);

  std::string keyed = "stall=0.1";
  keyed += '\0';
  EXPECT_THROW(hispar::net::FaultProfile::parse(keyed), std::invalid_argument);

  std::string chaos = "resolver:kind=dns_timeout,sev=0.5";
  chaos += '\0';
  chaos += ",start_s=0,dur_s=1";
  EXPECT_THROW(hispar::net::OutageSchedule::parse(chaos),
               std::invalid_argument);
}

// Torn-tail contract stays intact after the hardening: an unterminated
// trailing block is silently discarded (resume depends on it), while a
// malformed *complete* record still throws.
TEST(FuzzRegressionTest, TornTailStillDiscardsSilently) {
  std::istringstream torn(
      "hispar-checkpoint,v1,42\nshard,0,1\nsite,0,torn-partial");
  const auto checkpoint = read_checkpoint(torn);
  EXPECT_EQ(checkpoint.config_digest, 42u);
  EXPECT_TRUE(checkpoint.completed_shards.empty());
}

// Find (`literals` target, minimized to "*m*\n**m"): the reference
// glob_match took a pattern '*' facing a literal '*' in the text as a
// one-character literal match and then failed, so "*m*" did not match
// "**m" although the text contains "m". The compiled LiteralSet was
// right; glob_match now tries the wildcard first.
TEST(FuzzRegressionTest, GlobStarAgainstLiteralStarInText) {
  EXPECT_TRUE(hispar::util::glob_match("*m*", "**m"));
  EXPECT_TRUE(hispar::util::LiteralSet({"*m*"}).any("**m"));
  EXPECT_TRUE(hispar::util::glob_match(
      "*ib.adnxs.com*", "*c.amazon-adsystem.cttps://ib.adnxs.com/ut"));
}

}  // namespace
