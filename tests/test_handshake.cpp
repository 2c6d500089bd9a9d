#include "net/handshake.h"

#include <gtest/gtest.h>

namespace {

using namespace hispar::net;

struct HandshakeCase {
  TransportProtocol protocol;
  bool resumed;
  int expected_rtts;
};

// Print by value: the default printer dumps the object's bytes, and the
// two padding bytes after `resumed` hold whatever the stack held, so
// discovered test names changed from build to build.
void PrintTo(const HandshakeCase& c, std::ostream* os) {
  *os << to_string(c.protocol) << (c.resumed ? " resumed" : " fresh")
      << " -> " << c.expected_rtts;
}

class HandshakeRtts : public ::testing::TestWithParam<HandshakeCase> {};

TEST_P(HandshakeRtts, RoundTripsMatchSpec) {
  const auto& c = GetParam();
  EXPECT_EQ(handshake_cost(c.protocol, c.resumed).round_trips,
            c.expected_rtts)
      << to_string(c.protocol) << " resumed=" << c.resumed;
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, HandshakeRtts,
    ::testing::Values(
        // TCP (1) + TLS 1.2 (2) = 3; resumption saves one TLS RTT.
        HandshakeCase{TransportProtocol::kTcpTls12, false, 3},
        HandshakeCase{TransportProtocol::kTcpTls12, true, 2},
        // TCP (1) + TLS 1.3 (1) = 2.
        HandshakeCase{TransportProtocol::kTcpTls13, false, 2},
        HandshakeCase{TransportProtocol::kTcpTls13, true, 2},
        // TFO + TLS 1.3: resumption enables true 1-RTT.
        HandshakeCase{TransportProtocol::kTfoTls13, false, 2},
        HandshakeCase{TransportProtocol::kTfoTls13, true, 1},
        HandshakeCase{TransportProtocol::kQuic, false, 1},
        HandshakeCase{TransportProtocol::kQuic0Rtt, false, 0},
        HandshakeCase{TransportProtocol::kCleartextHttp, false, 1}));

TEST(HandshakeCostTest, RoundTripSavingProtocolsAreOrdered) {
  // §5.6: QUIC / TFO / TLS 1.3 reduce handshake round trips.
  EXPECT_LT(handshake_cost(TransportProtocol::kTcpTls13).round_trips,
            handshake_cost(TransportProtocol::kTcpTls12).round_trips);
  EXPECT_LT(handshake_cost(TransportProtocol::kQuic).round_trips,
            handshake_cost(TransportProtocol::kTcpTls13).round_trips);
  EXPECT_LT(handshake_cost(TransportProtocol::kQuic0Rtt).round_trips,
            handshake_cost(TransportProtocol::kQuic).round_trips);
}

TEST(HandshakeCostTest, CryptoCostsArePositiveForTls) {
  EXPECT_GT(handshake_cost(TransportProtocol::kTcpTls12).cpu_ms, 0.0);
  EXPECT_GT(handshake_cost(TransportProtocol::kTcpTls13).cpu_ms, 0.0);
  EXPECT_LT(handshake_cost(TransportProtocol::kCleartextHttp).cpu_ms,
            handshake_cost(TransportProtocol::kTcpTls13).cpu_ms);
}

TEST(HandshakeCostTest, NamesAreDistinct) {
  EXPECT_NE(to_string(TransportProtocol::kQuic),
            to_string(TransportProtocol::kQuic0Rtt));
  EXPECT_EQ(to_string(TransportProtocol::kTcpTls12), "tcp+tls1.2");
}

}  // namespace
