// Single-router microtests: wire one router's ports to raw channels and
// observe the pipeline cycle by cycle.
#include "noc/router.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

namespace hybridnoc {
namespace {

class NullHolder : public VcHolder {
 public:
  bool holds_vc_allocation(Port, int) const override { return held; }
  bool held = false;
};

PacketPtr make_packet(PacketId id, NodeId src, NodeId dst, int flits) {
  auto p = std::make_shared<Packet>();
  p->id = id;
  p->src = src;
  p->dst = dst;
  p->final_dst = dst;
  p->num_flits = flits;
  return p;
}

Flit make_flit(const PacketPtr& pkt, int seq, int vc) {
  Flit f;
  f.pkt = pkt.get();  // tests keep the PacketPtr alive for the run
  f.seq = seq;
  f.vc = static_cast<std::int8_t>(vc);
  if (pkt->num_flits == 1) {
    f.type = FlitType::HeadTail;
  } else if (seq == 0) {
    f.type = FlitType::Head;
  } else if (seq == pkt->num_flits - 1) {
    f.type = FlitType::Tail;
  } else {
    f.type = FlitType::Body;
  }
  return f;
}

/// One router in the middle of a 3x3 mesh (node 4), with all five ports wired
/// to loose channels the test drives directly.
struct RouterBench {
  explicit RouterBench(NocConfig cfg = NocConfig::packet_vc4(3))
      : mesh(cfg.k), router(cfg, mesh.node({1, 1}), mesh) {
    for (int p = 0; p < kNumPorts; ++p) {
      in[p] = std::make_unique<FlitChannel>(kDataChannelLatency);
      in_credit[p] = std::make_unique<CreditChannel>(kCreditChannelLatency);
      out[p] = std::make_unique<FlitChannel>(kDataChannelLatency);
      out_credit[p] = std::make_unique<CreditChannel>(kCreditChannelLatency);
      router.connect_input(static_cast<Port>(p), in[p].get(), in_credit[p].get(),
                           &upstream, opposite(static_cast<Port>(p)));
      router.connect_output(static_cast<Port>(p), out[p].get(), out_credit[p].get());
    }
  }

  void run_to(Cycle target) {
    while (now < target) router.tick(now++);
  }

  Mesh mesh;
  NullHolder upstream;
  Router router;
  std::unique_ptr<FlitChannel> in[kNumPorts], out[kNumPorts];
  std::unique_ptr<CreditChannel> in_credit[kNumPorts], out_credit[kNumPorts];
  Cycle now = 0;
};

TEST(Router, SingleFlitPipelineIsFourCyclesPlusLink) {
  RouterBench b;
  // Packet headed east: inject on the west input, readable at cycle 10.
  const NodeId east = b.mesh.node({2, 1});
  auto pkt = make_packet(1, b.mesh.node({0, 1}), east, 1);
  b.in[static_cast<int>(Port::West)]->send(make_flit(pkt, 0, 0), 8);
  b.run_to(16);
  // BW@10, VA@11, SA@12, ST@13, written end of 13 -> readable 15.
  auto& east_out = *b.out[static_cast<int>(Port::East)];
  EXPECT_TRUE(east_out.arrival_at(15));
}

TEST(Router, XyRouteSelectsOutputPort) {
  RouterBench b;
  auto north = make_packet(1, 0, b.mesh.node({1, 0}), 1);
  auto local = make_packet(2, 0, b.mesh.node({1, 1}), 1);
  b.in[static_cast<int>(Port::South)]->send(make_flit(north, 0, 0), 0);
  b.in[static_cast<int>(Port::West)]->send(make_flit(local, 0, 1), 0);
  b.run_to(10);
  EXPECT_TRUE(b.out[static_cast<int>(Port::North)]->arrival_at(7));
  EXPECT_TRUE(b.out[static_cast<int>(Port::Local)]->arrival_at(7));
}

TEST(Router, CreditReturnedAtSwitchAllocation) {
  RouterBench b;
  auto pkt = make_packet(1, 0, b.mesh.node({2, 1}), 1);
  b.in[static_cast<int>(Port::West)]->send(make_flit(pkt, 0, 2), 8);
  b.run_to(14);
  // SA at 12 sends the credit; latency-1 wire -> readable at 13.
  auto c = b.in_credit[static_cast<int>(Port::West)]->receive(13);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->vc, 2);
}

TEST(Router, WormholeFlitsStayOrderedAndContiguous) {
  RouterBench b;
  auto pkt = make_packet(1, 0, b.mesh.node({2, 1}), 5);
  for (int s = 0; s < 5; ++s)
    b.in[static_cast<int>(Port::West)]->send(make_flit(pkt, s, 0),
                                             static_cast<Cycle>(8 + s));
  b.run_to(30);
  auto& east_out = *b.out[static_cast<int>(Port::East)];
  int expected_seq = 0;
  for (Cycle t = 10; t < 30; ++t) {
    while (auto f = east_out.receive(t)) {
      EXPECT_EQ(f->seq, expected_seq++);
    }
  }
  EXPECT_EQ(expected_seq, 5);
}

TEST(Router, BodyFlitsStreamOnePerCycle) {
  RouterBench b;
  auto pkt = make_packet(1, 0, b.mesh.node({2, 1}), 5);
  for (int s = 0; s < 5; ++s)
    b.in[static_cast<int>(Port::West)]->send(make_flit(pkt, s, 0),
                                             static_cast<Cycle>(8 + s));
  b.run_to(30);
  // Head readable out at 15, then one flit per cycle.
  auto& east_out = *b.out[static_cast<int>(Port::East)];
  for (Cycle t = 15; t < 20; ++t) {
    auto f = east_out.receive(t);
    ASSERT_TRUE(f.has_value()) << t;
    EXPECT_EQ(f->seq, static_cast<int>(t - 15));
  }
}

TEST(Router, TwoInputsSameOutputArbitrated) {
  RouterBench b;
  auto a = make_packet(1, 0, b.mesh.node({2, 1}), 1);
  auto c = make_packet(2, 0, b.mesh.node({2, 1}), 1);
  b.in[static_cast<int>(Port::West)]->send(make_flit(a, 0, 0), 8);
  b.in[static_cast<int>(Port::North)]->send(make_flit(c, 0, 0), 8);
  b.run_to(20);
  // Both must come out of East, on different cycles.
  int got = 0;
  Cycle first = 0, second = 0;
  for (Cycle t = 10; t < 20; ++t) {
    while (b.out[static_cast<int>(Port::East)]->receive(t)) {
      if (++got == 1) first = t;
      else second = t;
    }
  }
  EXPECT_EQ(got, 2);
  EXPECT_NE(first, second);
}

TEST(Router, RoundRobinGrantSequenceIsExact) {
  // North, South and West each stream three 2-flit packets (VCs 0..2) toward
  // East. The test plays the downstream router: it drains East every cycle
  // and returns each credit at once, so downstream VCs recycle as soon as
  // their tails drain. The sequence was recorded with the dense 5x5 output
  // arbiter: (cycle the flit is readable at East, packet id = 10 * input
  // port + k, flit seq).
  RouterBench b;
  const NodeId east = b.mesh.node({2, 1});
  const Port inputs[] = {Port::North, Port::South, Port::West};
  std::vector<PacketPtr> pkts;  // outlive the run: flits hold raw pointers
  for (const Port p : inputs) {
    for (int k = 0; k < 3; ++k) {
      auto pkt = make_packet(static_cast<PacketId>(static_cast<int>(p) * 10 + k),
                             0, east, 2);
      for (int s = 0; s < 2; ++s)
        b.in[static_cast<int>(p)]->send(make_flit(pkt, s, k),
                                        static_cast<Cycle>(8 + 2 * k + s));
      pkts.push_back(std::move(pkt));
    }
  }
  std::vector<std::tuple<Cycle, int, int>> seen;
  auto& east_out = *b.out[static_cast<int>(Port::East)];
  auto& east_credit = *b.out_credit[static_cast<int>(Port::East)];
  for (; b.now < 40; ++b.now) {
    b.router.tick(b.now);
    while (auto f = east_out.receive(b.now)) {
      seen.emplace_back(b.now, static_cast<int>(f->pkt->id), f->seq);
      east_credit.send({f->vc}, b.now);
    }
  }
  const std::vector<std::tuple<Cycle, int, int>> expected = {
      {15, 10, 0}, {16, 30, 0}, {17, 40, 0}, {18, 11, 0}, {19, 30, 1},
      {20, 40, 1}, {21, 10, 1}, {22, 11, 1}, {24, 12, 0}, {25, 31, 0},
      {26, 12, 1}, {27, 32, 0}, {28, 41, 0}, {29, 31, 1}, {30, 41, 1},
      {31, 32, 1}, {32, 42, 0}, {33, 42, 1}};
  EXPECT_EQ(seen, expected);
  EXPECT_TRUE(b.router.idle());
}

TEST(RouterDeathTest, FlitLeftOnInputStillAborts) {
  // A router that is not ticked in the cycle a flit matures must not skip
  // it silently on a later tick: the missed item still trips the channel's
  // in-order consumption check.
  RouterBench b;
  auto pkt = make_packet(1, 0, b.mesh.node({2, 1}), 1);
  b.in[static_cast<int>(Port::West)]->send(make_flit(pkt, 0, 0), 8);  // ready 10
  b.run_to(10);
  EXPECT_DEATH(b.router.tick(11), "unconsumed channel item");
}

TEST(Router, DistinctVcsForConcurrentPackets) {
  // Two packets from the same input port on different VCs toward different
  // outputs proceed concurrently.
  RouterBench b;
  auto north = make_packet(1, 0, b.mesh.node({1, 0}), 1);
  auto east = make_packet(2, 0, b.mesh.node({2, 1}), 1);
  b.in[static_cast<int>(Port::West)]->send(make_flit(north, 0, 0), 8);
  b.in[static_cast<int>(Port::West)]->send(make_flit(east, 0, 1), 8);
  b.run_to(20);
  bool got_north = false, got_east = false;
  for (Cycle t = 10; t < 20; ++t) {
    while (b.out[static_cast<int>(Port::North)]->receive(t)) got_north = true;
    while (b.out[static_cast<int>(Port::East)]->receive(t)) got_east = true;
  }
  EXPECT_TRUE(got_north);
  EXPECT_TRUE(got_east);
}

TEST(Router, StallsWithoutDownstreamCredits) {
  RouterBench b;
  // Two 5-flit packets to the same output VC pool: with 4 VCs both can be
  // VA'd, but with zero... instead exhaust credits by never returning any:
  // send 5 flits (fills one downstream VC), then a second packet must use
  // another VC; send 4 more packets to occupy all 4 VCs, and a 5th packet
  // must wait until credits return.
  std::vector<PacketPtr> pkts;  // outlive the run: flits hold raw pointers
  for (int i = 0; i < 5; ++i) {
    auto pkt = make_packet(static_cast<PacketId>(i + 1), 0, b.mesh.node({2, 1}), 5);
    for (int s = 0; s < 5; ++s)
      b.in[static_cast<int>(Port::West)]->send(
          make_flit(pkt, s, i % 4), static_cast<Cycle>(8 + i * 5 + s));
    pkts.push_back(std::move(pkt));
  }
  b.run_to(120);
  // Only 4 packets' flits (20) can come out; packet 5 needs vc0 which still
  // holds packet 1's allocation downstream (no credits ever returned).
  int flits_out = 0;
  for (Cycle t = 10; t < 120; ++t)
    while (b.out[static_cast<int>(Port::East)]->receive(t)) ++flits_out;
  EXPECT_EQ(flits_out, 20);
  EXPECT_FALSE(b.router.idle());
}

TEST(Router, EnergyEventsAreCounted) {
  RouterBench b;
  auto pkt = make_packet(1, 0, b.mesh.node({2, 1}), 5);
  for (int s = 0; s < 5; ++s)
    b.in[static_cast<int>(Port::West)]->send(make_flit(pkt, s, 0),
                                             static_cast<Cycle>(8 + s));
  b.run_to(30);
  const auto& e = b.router.energy();
  EXPECT_EQ(e.buffer_writes, 5u);
  EXPECT_EQ(e.buffer_reads, 5u);
  EXPECT_EQ(e.xbar_flits, 5u);
  EXPECT_EQ(e.link_flits, 5u);  // East is a real link
  EXPECT_EQ(e.vc_arbs, 1u);     // one packet, one VC allocation
  EXPECT_EQ(e.sw_arbs, 5u);
  EXPECT_EQ(e.cycles, 30u);
}

TEST(Router, IdleReflectsBufferedFlits) {
  RouterBench b;
  EXPECT_TRUE(b.router.idle());
  auto pkt = make_packet(1, 0, b.mesh.node({2, 1}), 1);
  b.in[static_cast<int>(Port::West)]->send(make_flit(pkt, 0, 0), 8);
  b.run_to(11);
  EXPECT_FALSE(b.router.idle());
  b.run_to(20);
  EXPECT_TRUE(b.router.idle());
}

TEST(Router, AdaptiveRoutePrefersCreditRichPort) {
  RouterBench b;
  // Config packet from (1,1) to (2,2): candidates East and South.
  auto cfgpkt = make_packet(1, 0, b.mesh.node({2, 2}), 1);
  cfgpkt->type = MsgType::AckSuccess;  // any config type routes adaptively
  // Drain credits from East by occupying it: simulate by a long packet.
  auto hog = make_packet(2, 0, b.mesh.node({2, 1}), 5);
  for (int s = 0; s < 5; ++s)
    b.in[static_cast<int>(Port::North)]->send(make_flit(hog, s, 0),
                                              static_cast<Cycle>(4 + s));
  b.in[static_cast<int>(Port::West)]->send(make_flit(cfgpkt, 0, 0), 9);
  b.run_to(25);
  bool south = false;
  for (Cycle t = 10; t < 25; ++t)
    while (b.out[static_cast<int>(Port::South)]->receive(t)) south = true;
  EXPECT_TRUE(south);
}

}  // namespace
}  // namespace hybridnoc
