// Host-speed reference for the host-time metrics.
//
// The hosts the benchmark runs on are shared: identical runs drift by up to
// 1.5x in phases of a minute or so, and that drift swamps any change a
// commit makes. A run therefore times this fixed kernel (a pointer chase
// over 4 MiB, an integer hash loop and random reads in 512 KiB) between its
// windows, and reports its host times scaled to a host on which the kernel
// takes kNominalMs: time * kNominalMs / median kernel time. The kernel lives
// here, outside the simulator, so no simulator change can move it.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

class HostReference {
 public:
  /// The kernel's time on the 4-core 2.1 GHz Xeon VM that recorded
  /// perfbench/baseline.json, in a quiet phase.
  static constexpr double kNominalMs = 15.0;

  HostReference() : chase_(1u << 20) {
    std::uint64_t x = 88172645463325252ull;
    for (std::uint32_t i = 0; i < chase_.size(); ++i) chase_[i] = i;
    for (std::uint32_t i = static_cast<std::uint32_t>(chase_.size()) - 1;
         i > 0; --i) {
      x = next(x);
      std::swap(chase_[i], chase_[x % (i + 1)]);
    }
  }

  /// Time the kernel once and keep the sample.
  void sample() {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint32_t p = 0;
    std::uint64_t acc = 0;
    for (int i = 0; i < 100000; ++i) {
      p = chase_[p];
      acc += p;
    }
    std::uint64_t x = acc | 1;
    for (int i = 0; i < 2000000; ++i) x = next(x) + static_cast<std::uint64_t>(i);
    std::uint32_t r = static_cast<std::uint32_t>(x);
    for (int i = 0; i < 400000; ++i) {
      r = r * 1664525u + 1013904223u;
      acc += chase_[(r >> 8) & 0x1ffff];
    }
    sink_ = acc + x;
    samples_.push_back(std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
  }

  const std::vector<double>& samples() const { return samples_; }

 private:
  static std::uint64_t next(std::uint64_t x) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }

  std::vector<std::uint32_t> chase_;
  std::vector<double> samples_;
  volatile std::uint64_t sink_ = 0;
};

}  // namespace perfbench
