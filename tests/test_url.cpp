#include "util/url.h"

#include <gtest/gtest.h>

namespace {

using namespace hispar::util;

TEST(ParseUrl, HttpsWithPath) {
  const auto url = parse_url("https://www.Example.com/a/b?q=1");
  ASSERT_TRUE(url.has_value());
  EXPECT_EQ(url->scheme, Scheme::kHttps);
  EXPECT_EQ(url->host, "www.example.com");  // lower-cased
  EXPECT_EQ(url->path, "/a/b?q=1");
}

TEST(ParseUrl, HttpWithoutPathGetsRoot) {
  const auto url = parse_url("http://example.com");
  ASSERT_TRUE(url.has_value());
  EXPECT_EQ(url->scheme, Scheme::kHttp);
  EXPECT_EQ(url->path, "/");
  EXPECT_TRUE(url->is_landing());
}

TEST(ParseUrl, RoundTripsThroughStr) {
  const std::string raw = "https://site.com/page/1";
  const auto url = parse_url(raw);
  ASSERT_TRUE(url.has_value());
  EXPECT_EQ(url->str(), raw);
  EXPECT_EQ(parse_url(url->str()), url);
}

class BadUrl : public ::testing::TestWithParam<const char*> {};

TEST_P(BadUrl, IsRejected) {
  EXPECT_FALSE(parse_url(GetParam()).has_value()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Malformed, BadUrl,
                         ::testing::Values("ftp://example.com", "example.com",
                                           "https://", "http:///path",
                                           "https://bad host/x",
                                           "https://host:443/x",
                                           "https://host/pa th"));

TEST(IsLanding, OnlyRootPath) {
  EXPECT_TRUE(parse_url("https://a.com/")->is_landing());
  EXPECT_FALSE(parse_url("https://a.com/x")->is_landing());
}

struct DomainCase {
  const char* host;
  const char* expected;
};

// Print by value: the default printer dumps the object's bytes, pointers
// included, so discovered test names would change from run to run.
void PrintTo(const DomainCase& c, std::ostream* os) {
  *os << c.host << " -> " << c.expected;
}

class RegistrableDomain : public ::testing::TestWithParam<DomainCase> {};

TEST_P(RegistrableDomain, ExtractsSld) {
  EXPECT_EQ(registrable_domain(GetParam().host), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Hosts, RegistrableDomain,
    ::testing::Values(DomainCase{"www.example.com", "example.com"},
                      DomainCase{"example.com", "example.com"},
                      DomainCase{"static01.nyt.com", "nyt.com"},
                      DomainCase{"a.b.c.deep.org", "deep.org"},
                      DomainCase{"www.bbc.co.uk", "bbc.co.uk"},
                      DomainCase{"tesco.co.uk", "tesco.co.uk"},
                      DomainCase{"shop.example.com.au", "example.com.au"},
                      DomainCase{"WWW.UPPER.COM", "upper.com"},
                      DomainCase{"localhost", "localhost"},
                      DomainCase{"co.uk", "co.uk"},
                      // Fully-qualified (trailing root dot) spellings
                      // canonicalize to the same registrable domain.
                      DomainCase{"example.com.", "example.com"},
                      DomainCase{"www.example.com.", "example.com"},
                      DomainCase{"www.bbc.co.uk.", "bbc.co.uk"},
                      DomainCase{"localhost.", "localhost"},
                      // IP literals have no registrable domain; the
                      // whole address is the identity.
                      DomainCase{"192.168.0.1", "192.168.0.1"},
                      DomainCase{"10.0.0.1.", "10.0.0.1"},
                      DomainCase{"2001:db8::1", "2001:db8::1"},
                      DomainCase{"[2001:db8::1]", "[2001:db8::1]"}));

TEST(ThirdParty, SameSldIsFirstParty) {
  // The paper's example: images.guardian.com is first-party to
  // www.guardian.com; cdn.akamai.com is third-party (§6.2).
  EXPECT_FALSE(is_third_party("www.guardian.com", "images.guardian.com"));
  EXPECT_TRUE(is_third_party("www.guardian.com", "cdn.akamai.com"));
}

TEST(ThirdParty, PublicSuffixAware) {
  // tesco.co.uk must be third-party to bbc.co.uk (§6.2).
  EXPECT_TRUE(is_third_party("www.bbc.co.uk", "tesco.co.uk"));
  EXPECT_FALSE(is_third_party("www.bbc.co.uk", "static.bbc.co.uk"));
}

TEST(ThirdParty, TrailingDotIsFirstParty) {
  // Regression: an object served from the fully-qualified spelling of
  // the page's own host used to count as third-party.
  EXPECT_FALSE(is_third_party("www.example.com", "example.com."));
  EXPECT_FALSE(is_third_party("example.com.", "cdn.example.com"));
  EXPECT_TRUE(is_third_party("www.example.com", "cdn.akamai.com."));
}

TEST(ThirdParty, IpLiteralsCompareWhole) {
  // Regression: both used to "register" as "0.1" and compare equal.
  EXPECT_TRUE(is_third_party("192.168.0.1", "10.99.0.1"));
  EXPECT_FALSE(is_third_party("192.168.0.1", "192.168.0.1"));
}

}  // namespace
