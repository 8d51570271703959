// The allocation layer shares nothing between threads: each thread owns its
// block pool and its AllocStats counters. Two properties follow and are
// pinned here. A network's tick_profile() counts only its own packets, even
// while another network runs on another thread. And pooled blocks may be
// freed on any thread, including one that is exiting or has already torn
// its pool down. The suites keep "Thread" in their names, so the tsan leg
// (ctest -R Thread) runs them.
#include <gtest/gtest.h>

#include <barrier>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/pool.hpp"
#include "common/rng.hpp"
#include "tdm/hybrid_network.hpp"

namespace hybridnoc {
namespace {

struct Counts {
  std::uint64_t packets_minted = 0;
  std::uint64_t flight_acquires = 0;
};

/// One seeded TDM run: uniform 5-flit packets minted through make_packet.
/// `sync` is crossed twice, after construction and after the last tick, so
/// two concurrent runs overlap for their whole lifetime.
Counts run_network(std::uint64_t seed, double rate, Cycle cycles,
                   std::barrier<>* sync) {
  HybridNetwork net(NocConfig::hybrid_tdm_vc4(4));
  if (sync) sync->arrive_and_wait();
  Rng rng(seed);
  PacketId id = 1;
  while (net.now() < cycles) {
    for (NodeId s = 0; s < net.num_nodes(); ++s) {
      if (net.ni(s).inject_queue_depth() < 4 && rng.bernoulli(rate)) {
        const auto dst = static_cast<NodeId>(rng.uniform_int(net.num_nodes()));
        if (dst == s) continue;
        auto p = make_packet();
        p->id = id++;
        p->src = s;
        p->dst = dst;
        p->num_flits = 5;
        net.ni(s).send(std::move(p), net.now());
      }
    }
    net.tick();
  }
  if (sync) sync->arrive_and_wait();
  const TickProfile p = net.tick_profile();
  return {p.packets_minted, p.flight_acquires};
}

TEST(AllocStatsThread, ConcurrentNetworksCountOnlyTheirOwnPackets) {
  const Counts a_alone = run_network(1, 0.20, 3000, nullptr);
  const Counts b_alone = run_network(2, 0.10, 4000, nullptr);
  ASSERT_GT(a_alone.packets_minted, 0u);
  ASSERT_GT(b_alone.flight_acquires, 0u);
  ASSERT_NE(a_alone.packets_minted, b_alone.packets_minted);

  std::barrier<> sync(2);
  Counts a, b;
  std::thread ta([&] { a = run_network(1, 0.20, 3000, &sync); });
  std::thread tb([&] { b = run_network(2, 0.10, 4000, &sync); });
  ta.join();
  tb.join();
  EXPECT_EQ(a.packets_minted, a_alone.packets_minted);
  EXPECT_EQ(a.flight_acquires, a_alone.flight_acquires);
  EXPECT_EQ(b.packets_minted, b_alone.packets_minted);
  EXPECT_EQ(b.flight_acquires, b_alone.flight_acquires);
}

std::vector<PacketPtr> mint(int n) {
  std::vector<PacketPtr> v;
  for (int i = 0; i < n; ++i) v.push_back(make_packet());
  return v;
}

TEST(BlockPoolThread, PacketsFreedOnAnExitingThreadThenOnTheMainThread) {
  constexpr int kPackets = 64;
  // Minted here, freed on a thread that then exits: the blocks join that
  // thread's pool and are returned to the system when it exits.
  std::vector<PacketPtr> batch = mint(kPackets);
  std::size_t cached_on_worker = 0;
  std::thread([&] {
    batch.clear();
    cached_on_worker = BlockPool::instance().cached_blocks();
  }).join();
  // Minted on a thread that has exited, freed here.
  std::thread([&] { batch = mint(kPackets); }).join();
  BlockPool::instance().trim();
  batch.clear();
  const std::size_t cached_on_main = BlockPool::instance().cached_blocks();
#if HN_POOL_DISABLED
  // Sanitizer builds: make_packet bypasses the pool.
  EXPECT_EQ(cached_on_worker, 0u);
  EXPECT_EQ(cached_on_main, 0u);
#else
  EXPECT_EQ(cached_on_worker, static_cast<std::size_t>(kPackets));
  EXPECT_EQ(cached_on_main, static_cast<std::size_t>(kPackets));
#endif
  BlockPool::instance().trim();
}

/// Holds raw pool blocks until thread exit. Constructed before the pool's
/// exit hook registers, so it is destroyed after the hook has run.
struct LateHolder {
  std::vector<void*> blocks;
  std::size_t* cached_after = nullptr;
  ~LateHolder() {
    for (void* b : blocks) BlockPool::instance().deallocate(b, 64);
    if (cached_after) *cached_after = BlockPool::instance().cached_blocks();
  }
};

TEST(BlockPoolThread, DeallocationAfterThePoolsTeardownBypassesIt) {
  // BlockPool is used directly, so this runs with recycling in every build
  // flavour; under asan a block cached by a torn-down pool would leak.
  std::size_t cached_after_teardown = 99;
  std::thread([&] {
    thread_local LateHolder holder;
    holder.cached_after = &cached_after_teardown;
    BlockPool& pool = BlockPool::instance();
    pool.deallocate(pool.allocate(64), 64);  // arms the exit hook
    ASSERT_EQ(pool.cached_blocks(), 1u);
    for (int i = 0; i < 8; ++i) holder.blocks.push_back(pool.allocate(64));
  }).join();
  EXPECT_EQ(cached_after_teardown, 0u);
}

}  // namespace
}  // namespace hybridnoc
