// Transfer-level fast engine. One event per packet *transfer* instead of one
// event per flit per cycle: injections are drawn per node with geometric
// skip-sampling (statistically identical to the cycle core's per-cycle
// Bernoulli process), each transfer is walked analytically over its XY route
// against per-server busy-until clocks (source NI serializer, every directed
// link, destination ejection port), and TDM circuits replay the cycle core's
// policy state machine (per-epoch pair frequencies, real SlotTable
// reservations with the slot+2-per-hop walk, window alignment, the
// cs_latency_advantage switching decision and the EWMA congestion signal)
// without simulating the flits that carry it.
//
// Everything observable — latency constants, energy event counts, per-cycle
// leakage integrals, the warmup/measurement-window methodology — mirrors the
// cycle core's definitions; see fast_model.hpp for the calibration contract
// and the list of accepted approximations.
#include "fastmodel/fast_model.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "common/geometry.hpp"
#include "tdm/slot_table.hpp"

namespace hybridnoc {
namespace {

/// One reservation window of a source-destination pair, mirroring
/// HybridNi::Connection::slots plus the fast model's usage clock.
struct Window {
  int slot = 0;        ///< slot at the source router's Local input
  Cycle ready = 0;     ///< ack arrival: the window exists from here on
  Cycle next_free = 0; ///< earliest next start (one packet per table rotation)
  PacketId owner = 0;  ///< setup id tagging the SlotTable entries
};

struct Conn {
  std::vector<Window> windows;
  Cycle last_used = 0;
};

/// Per-node NI policy state (the fast-model shadow of HybridNi). Its
/// per-destination fields live in the pair's record (Pair): `epoch` counts
/// the NI's policy epochs so a pair's freq count from an earlier epoch reads
/// as zero without clearing anything.
struct NiState {
  std::map<NodeId, Conn> conns;  ///< ordered: deterministic idle sweeps
  std::uint32_t epoch = 0;
  Cycle epoch_start = 0;
  Cycle cs_busy_until = 0;  ///< shadow of cs_plan_: next admissible CS start
  double ewma = 0.0;        ///< ewma_inject_delay of the base NI
};

/// Everything the model keeps per source-destination pair, created the
/// first time a circuit-eligible packet or a setup uses the pair: the source
/// NI's policy state towards the destination. Only the pairs a run's policy
/// touches get one, so nothing n²-sized is allocated or cleared up front.
struct Pair {
  std::uint32_t freq_epoch = 0;  ///< NiState::epoch that `freq` counts in
  int freq = 0;                  ///< packets this epoch (stale epoch: 0)
  Cycle cooldown_until = 0;      ///< no setup before this (setup gave up)
  Cycle pending_until = 0;       ///< setup in flight until its ack arrives
};

/// One slot of the pair index (FastModel::pair): the pair's key
/// src * n + dst stored inline, and where its record lives.
constexpr std::uint32_t kNoPair = 0xffffffffU;
struct PairSlot {
  std::uint32_t key = 0;
  std::uint32_t idx = kNoPair;  ///< into the pair records; kNoPair = empty
};

/// A position on an XY route: the directed link about to be crossed
/// (id = node*4 + out-1), how many links are left including it, how many
/// links the route runs along y, and its direction bits (kWest, kNorth).
/// Nothing per route is stored: FastModel::route builds the first position
/// from the endpoints' coordinates and FastModel::advance steps to the next
/// link by a constant (±4 along x, the turn, ±4k along y).
struct XyLeg {
  std::uint32_t link = 0;
  std::uint16_t remaining = 0;
  std::uint8_t y_hops = 0;  ///< |dy| <= 255 because k <= 256
  std::uint8_t dir = 0;
};
constexpr std::uint8_t kWest = 1, kNorth = 2;

/// A data packet's head arriving at a router input — the next link claim
/// happens at this event's time, so every link serves heads in true arrival
/// order (a single-pass whole-route walk would claim capacity in injection
/// order and systematically overstate queueing on long routes). The event
/// carries its route position, so a hop reads nothing but its own link's
/// clock. The 16-bit fields bound the mesh to 65536 nodes and a packet to
/// 65535 flits, both checked before a run starts.
struct HopEvent {
  XyLeg at;                    ///< current link and the rest of the route
  std::uint32_t created = 0;   ///< creation cycle; 32 bits keeps the event
                               ///< small (the model checks max_cycles fits
                               ///< at startup)
  std::uint16_t dst = 0;       ///< destination node (ejection server)
  std::uint16_t flits = 0;     ///< packet length (trace-driven runs vary it)
};
static_assert(sizeof(HopEvent) == 16, "hop events are copied per hop");

/// A finished transfer awaiting delivery bookkeeping: when it was created
/// (latency) and the payload flits it carried (accepted-rate accounting —
/// the flits the workload injected, not the possibly CS-compressed wire
/// flits, so both fidelities and both switching modes count identically).
struct Delivery {
  std::uint32_t created = 0;
  std::uint32_t flits = 0;
};

/// Bucket-ring ("calendar") event queue for the simulation's two hot event
/// streams (hop arrivals and deliveries). Event times cluster within a few
/// hundred cycles of the present, so a ring of per-cycle buckets makes
/// push/pop O(1) where a binary heap pays log(n) pointer-chasing per event —
/// the heaps dominated the fast model's profile. Times beyond the ring's
/// horizon (deep-backlog schedules) spill into a small overflow heap.
///
/// Buffers follow the live events, not the ring: consume() hands each
/// emptied bucket's buffer to a spare stack and the next bucket that
/// receives a push while holding none takes it. Only the few cycles with
/// pending events keep memory, instead of every bucket its peak capacity.
///
/// The cursor only moves forward: push times must be strictly greater than
/// the last time handed out by next_at(), which the simulation guarantees
/// (every event schedules strictly-future successors). Events at one cycle
/// are handed back in push order; overflow spills are appended after ring
/// entries of the same cycle. That tie order differs from a global FIFO only
/// under multi-thousand-cycle backlogs, and is equally deterministic.
template <typename T>
class Calendar {
 public:
  Calendar() : buckets_(kSize) {}

  bool empty() const { return size_ == 0; }

  void push(Cycle at, const T& v) {
    ++size_;
    if (at - cursor_ >= kSize) {
      over_.push(Far{at, over_seq_++, v});
      return;
    }
    std::vector<T>& b = buckets_[at & kMask];
    if (b.capacity() == 0 && !spare_.empty()) {
      b = std::move(spare_.back());
      spare_.pop_back();
    }
    b.push_back(v);
  }

  /// Earliest event time in [cursor, limit], or kCycleNever when there is
  /// none (the cursor then rests at limit). Amortized O(1) per simulated
  /// cycle: the cursor never revisits a bucket.
  Cycle next_at(Cycle limit) {
    if (size_ == 0) {
      cursor_ = std::max(cursor_, limit);
      return kCycleNever;
    }
    const Cycle oat = over_.empty() ? kCycleNever : over_.top().at;
    while (cursor_ <= limit) {
      if (!buckets_[cursor_ & kMask].empty() || oat == cursor_) return cursor_;
      ++cursor_;
    }
    return kCycleNever;
  }

  /// Earliest event time in the queue, unbounded; kCycleNever when empty.
  /// Live streams keep the ring dense, so the scan is short; when every
  /// pending time sits in the overflow heap the answer is its top.
  Cycle next_any() {
    const Cycle oat = over_.empty() ? kCycleNever : over_.top().at;
    if (size_ - over_.size() > 0) {
      while (cursor_ < oat && buckets_[cursor_ & kMask].empty()) ++cursor_;
      return cursor_;
    }
    if (oat != kCycleNever) cursor_ = oat;
    return oat;
  }

  /// Visit every event at time `t` in place (ring first, then overflow).
  /// The visitor may push into this calendar: pushed times are strictly
  /// future, so they land in other buckets and never grow the one being
  /// walked.
  template <typename F>
  void consume(Cycle t, F&& f) {
    auto& b = buckets_[t & kMask];
    size_ -= b.size();
    for (size_t i = 0; i < b.size(); ++i) f(b[i]);
    if (b.capacity() != 0) {
      b.clear();
      spare_.push_back(std::move(b));  // leaves b empty, holding no buffer
    }
    while (!over_.empty() && over_.top().at == t) {
      const T v = over_.top().v;
      over_.pop();
      --size_;
      f(v);
    }
  }

 private:
  static constexpr Cycle kSize = 4096;  ///< ring horizon, cycles
  static constexpr Cycle kMask = kSize - 1;
  struct Far {
    Cycle at;
    std::uint64_t seq;
    T v;
    bool operator<(const Far& o) const {  // inverted: min-heap under std::pq
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };
  std::vector<std::vector<T>> buckets_;
  std::vector<std::vector<T>> spare_;  ///< emptied buffers, see push()
  std::priority_queue<Far> over_;
  std::uint64_t over_seq_ = 0;
  Cycle cursor_ = 0;
  std::uint64_t size_ = 0;
};

class FastModel {
 public:
  FastModel(const NocConfig& cfg, const RunParams& params)
      : cfg_(cfg),
        params_(params),
        mesh_(cfg.k),
        n_(mesh_.num_nodes()),
        tdm_(cfg.arch == RouterArch::HybridTdm),
        fps_(cfg.ps_data_flits),
        fcs_(cfg.cs_data_flits),
        dur_(cfg.reservation_duration()),
        slots_(cfg.slot_table_size),
        p_(params.injection_rate / static_cast<double>(cfg.ps_data_flits)) {
    HN_CHECK_MSG(p_ <= 1.0,
                 "injection rate must be <= flits_per_packet (one packet "
                 "per node per cycle at most)");
    HN_CHECK_MSG(params.max_cycles <= 0xffffffffULL,
                 "fast model packs creation cycles into 32 bits");
    HN_CHECK_MSG(n_ <= 65536,
                 "fast model packs node ids into 16 bits (k <= 256)");
    HN_CHECK_MSG(fps_ <= 0xffff,
                 "fast model packs packet lengths into 16 bits");
    coords_.resize(static_cast<size_t>(n_));
    for (NodeId v = 0; v < n_; ++v) {
      const Coord c = mesh_.coord(v);
      coords_[static_cast<size_t>(v)] = {static_cast<std::uint8_t>(c.x),
                                         static_cast<std::uint8_t>(c.y)};
    }
    // advance()'s steps, indexed [dir][step_index]: the next link leaves
    // the router the current one enters, by the same port along a leg and
    // by the y port at the turn.
    for (std::uint8_t dir = 0; dir < 4; ++dir) {
      const int dx = dir & kWest ? -1 : 1;
      const int dy = dir & kNorth ? -cfg.k : cfg.k;
      const int turn = 4 * dx + y_port_offset(dir) - x_port_offset(dir);
      step_[dir] = {static_cast<std::uint32_t>(4 * dy),
                    static_cast<std::uint32_t>(turn),
                    static_cast<std::uint32_t>(4 * dx)};
    }
    ni_free_.assign(static_cast<size_t>(n_), 0);
    eject_free_.assign(static_cast<size_t>(n_), 0);
    link_free_.assign(static_cast<size_t>(n_) * 4, 0);
    reserved_on_link_.assign(static_cast<size_t>(n_) * 4, 0);
    Rng master(params.seed);
    inj_rng_.reserve(static_cast<size_t>(n_));
    dst_rng_.reserve(static_cast<size_t>(n_));
    slot_rng_.reserve(static_cast<size_t>(n_));
    for (int v = 0; v < n_; ++v) {
      inj_rng_.push_back(master.split());
      dst_rng_.push_back(master.split());
      slot_rng_.push_back(master.split());
    }
    if (tdm_) {
      ni_.resize(static_cast<size_t>(n_));
      tables_.resize(static_cast<size_t>(n_));
    }
    if (p_ > 0.0 && p_ < 1.0) inv_log1m_p_ = 1.0 / std::log1p(-p_);
    nodes_u64_ = static_cast<std::uint64_t>(n_);
    nodes_threshold_ = (0 - nodes_u64_) % nodes_u64_;
    nodes_pow2_ = (nodes_u64_ & (nodes_u64_ - 1)) == 0;
    switch (params.pattern) {
      case TrafficPattern::UniformRandom:
        dst_mode_ = DstMode::Uniform;
        break;
      case TrafficPattern::Tornado:
        // Degenerate tornado (k <= 3) falls back to uniform draws, exactly
        // like pattern_destination.
        dst_mode_ = cfg.k / 2 - 1 <= 0 ? DstMode::Uniform : DstMode::Table;
        break;
      case TrafficPattern::Hotspot: {
        dst_mode_ = DstMode::Hotspot;
        const int lo = cfg.k / 2 - 1 > 0 ? cfg.k / 2 - 1 : 0;
        const Coord hot[4] = {{cfg.k / 2, cfg.k / 2},
                              {lo, cfg.k / 2},
                              {cfg.k / 2, lo},
                              {lo, lo}};
        for (int h = 0; h < 4; ++h) hotspots_[h] = mesh_.node(hot[h]);
        break;
      }
      default:
        dst_mode_ = DstMode::Table;
        break;
    }
    if (dst_mode_ == DstMode::Table) {
      // Deterministic patterns never consume random numbers, so the whole
      // map can be precomputed; -1 marks self-destinations (no packet).
      dst_table_.resize(static_cast<size_t>(n_));
      Rng scratch(0x5eed);
      for (NodeId v = 0; v < n_; ++v) {
        const auto d = pattern_destination(params.pattern, mesh_, v, scratch);
        dst_table_[static_cast<size_t>(v)] = d ? *d : -1;
      }
    }
    if (params.warmup_packets == 0) {
      armed_ = true;
      measure_start_ = params.warmup_min_cycles;
    }
  }

  /// Synthetic run: every node injects by its own geometric process.
  RunResult run() {
    if (p_ > 0.0) {
      for (NodeId v = 0; v < n_; ++v) inj_.push(inject_gap(v), v);
    }
    return run_events([this] { return inj_.next_any(); },
                      [this](Cycle t) {
                        inj_.consume(t, [this, t](NodeId v) {
                          if (admit(v, t, fps_))
                            inject(v, draw_destination(v), fps_,
                                   /*cs_eligible=*/true, t);
                          inj_.push(t + 1 + inject_gap(v), v);
                        });
                      });
  }

  /// Trace-driven run: replay `trace` (looped) instead of drawing
  /// injections. Entry cycles strictly increase across loop passes (the
  /// offset advances by the span), which is what the calendars'
  /// forward-only cursors require. Messages shorter than the fixed CS
  /// transfer size are circuit-ineligible (they would be padded out by it),
  /// mirroring run_trace's rule and HybridNi's cs_eligible gate.
  RunResult run(const std::vector<TraceEntry>& trace) {
    const Cycle span = trace.back().cycle + 1;  // TraceTraffic's loop period
    size_t pos = 0;
    Cycle offset = 0;
    return run_events(
        [&] { return trace[pos].cycle + offset; },
        [&](Cycle t) {
          while (pos < trace.size() && trace[pos].cycle + offset == t) {
            const TraceEntry& e = trace[pos];
            if (admit(e.src, t, e.flits))
              inject(e.src, e.dst, e.flits, e.flits >= fcs_, t);
            if (++pos == trace.size()) {
              pos = 0;
              offset += span;
            }
          }
        });
  }

 private:
  /// The event loop of both run modes: next_injection() is the next
  /// injection time (kCycleNever when there is none) and inject_at(t)
  /// performs every injection due at t.
  template <typename NextInjection, typename InjectAt>
  RunResult run_events(NextInjection next_injection, InjectAt inject_at) {
    while (!done_) {
      const Cycle t_inj = next_injection();
      // Move every in-flight head that precedes (or ties with) the next
      // injection, mirroring the cycle core's router-before-NI update order
      // within a tick. Heads only touch link/ejection clocks and push
      // strictly-future events, so the whole stretch runs as one batch;
      // delivery bookkeeping is time-ordered by its own calendar and can
      // drain afterwards.
      const Cycle hop_bound = std::min(t_inj, params_.max_cycles - 1);
      Cycle t_hop;
      while ((t_hop = hops_.next_at(hop_bound)) != kCycleNever) {
        hops_.consume(t_hop, [this, t_hop](const HopEvent& h) {
          process_hop(t_hop, h);
        });
      }
      if (t_inj >= params_.max_cycles) {
        drain_deliveries(params_.max_cycles);
        if (!done_) end_cycle_ = params_.max_cycles;
        break;
      }
      drain_deliveries(t_inj);
      if (done_) break;
      if (armed_ && !measuring_ && t_inj >= measure_start_) begin_window();
      inject_at(t_inj);
    }
    return finalize();
  }

  // --- topology helpers ---------------------------------------------------

  /// The router a link leaves and the port it leaves by.
  static NodeId link_router(std::uint32_t link) {
    return static_cast<NodeId>(link >> 2);
  }
  static Port link_port(std::uint32_t link) {
    return static_cast<Port>((link & 3) + 1);
  }

  /// out-1 of a route's x port (East or West) and y port (South or North).
  static int x_port_offset(std::uint8_t dir) {
    return (dir & kWest ? static_cast<int>(Port::West)
                        : static_cast<int>(Port::East)) - 1;
  }
  static int y_port_offset(std::uint8_t dir) {
    return (dir & kNorth ? static_cast<int>(Port::North)
                         : static_cast<int>(Port::South)) - 1;
  }

  /// The XY route from src to dst, positioned on its first link (route_xy's
  /// path: x first, then y). A self-route has no links.
  XyLeg route(NodeId src, NodeId dst) const {
    const NodeXy s = coords_[static_cast<size_t>(src)];
    const NodeXy d = coords_[static_cast<size_t>(dst)];
    const int dx = d.x - s.x, dy = d.y - s.y;
    const int ax = std::abs(dx), ay = std::abs(dy);
    const auto dir = static_cast<std::uint8_t>((dx < 0 ? kWest : 0) |
                                               (dy < 0 ? kNorth : 0));
    const int first = ax != 0 ? x_port_offset(dir) : y_port_offset(dir);
    return XyLeg{static_cast<std::uint32_t>(src) * 4 +
                     static_cast<std::uint32_t>(first),
                 static_cast<std::uint16_t>(ax + ay),
                 static_cast<std::uint8_t>(ay), dir};
  }

  /// Step `leg` onto its next link. The step index is 2 along x, 1 at the
  /// turn (the next link is the first of the y_hops) and 0 along y; steps
  /// are unsigned so a step past the last link wraps instead of overflowing.
  void advance(XyLeg& leg) const {
    const int r = leg.remaining, y = leg.y_hops;
    leg.link += step_[leg.dir][static_cast<size_t>((r > y) + (r - 1 > y))];
    --leg.remaining;
  }

  // --- per-pair records ---------------------------------------------------

  /// The record of pair (src, dst), created on first use. The reference is
  /// valid only until the next call that may create a pair: never hold it
  /// across one.
  Pair& pair(NodeId src, NodeId dst) {
    const std::uint32_t key = static_cast<std::uint32_t>(src) *
                                  static_cast<std::uint32_t>(n_) +
                              static_cast<std::uint32_t>(dst);
    const size_t mask = pair_slots_.size() - 1;
    for (size_t i = pair_hash(key);; i = (i + 1) & mask) {
      const PairSlot& s = pair_slots_[i];
      if (s.idx == kNoPair) return new_pair(key);
      if (s.key == key) return pairs_[s.idx];
    }
  }

  size_t pair_hash(std::uint32_t key) const {
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >> pair_shift_);
  }

  /// Append a fresh record under `key`; the index doubles before it passes
  /// half load.
  Pair& new_pair(std::uint32_t key) {
    if (2 * (pairs_.size() + 1) > pair_slots_.size()) {
      const std::vector<PairSlot> old = std::exchange(
          pair_slots_, std::vector<PairSlot>(2 * pair_slots_.size()));
      --pair_shift_;
      for (const PairSlot& s : old)
        if (s.idx != kNoPair) place_pair(s);
    }
    place_pair(PairSlot{key, static_cast<std::uint32_t>(pairs_.size())});
    return pairs_.emplace_back();
  }

  void place_pair(PairSlot s) {
    const size_t mask = pair_slots_.size() - 1;
    size_t i = pair_hash(s.key);
    while (pair_slots_[i].idx != kNoPair) i = (i + 1) & mask;
    pair_slots_[i] = s;
  }

  /// Node v's slot table, created empty the first time anything touches it.
  /// Nothing expires the model's reservations, so the tables keep no expiry
  /// index.
  SlotTable& table(NodeId v) {
    std::unique_ptr<SlotTable>& t = tables_[static_cast<size_t>(v)];
    if (!t) {
      t = std::make_unique<SlotTable>(slots_, slots_);
      t->set_expiry_tracking(false);
    }
    return *t;
  }

  /// Router i of a route (0 = source, hops = destination) with the input
  /// and output ports the cycle core's setup walk passes to
  /// SlotTable::reserve, decoded from the link ids: link i leaves router i,
  /// and router i is entered opposite to where link i-1 left.
  struct RouteHop {
    NodeId router;
    Port in, out;
  };

  /// Call f(i, hop) for routers i = 0, 1, ... of the route src -> dst, at
  /// most `count` of them, until f returns false. Returns the index f
  /// stopped at, or -1 when it never did.
  template <typename F>
  int walk_routers(NodeId src, NodeId dst, int count, F&& f) const {
    XyLeg leg = route(src, dst);
    const int hops = leg.remaining;
    Port in = Port::Local;
    for (int i = 0; i < count; ++i) {
      RouteHop hop{dst, in, Port::Local};
      if (i < hops) {
        hop = {link_router(leg.link), in, link_port(leg.link)};
        in = opposite(hop.out);
        advance(leg);
      }
      if (!f(i, hop)) return i;
    }
    return -1;
  }

  /// Rng::geometric with the 1/log1p(-p) factor hoisted out of the loop —
  /// p is constant for the whole run and the log per draw was hot.
  Cycle inject_gap(NodeId v) {
    if (p_ >= 1.0) return 0;
    const double u = inj_rng_[static_cast<size_t>(v)].uniform();
    return static_cast<Cycle>(std::log1p(-u) * inv_log1m_p_);
  }

  // --- measurement window -------------------------------------------------

  void begin_window() {
    measuring_ = true;
    dyn_snap_ = dyn_;
    ps_snap_ = ps_flits_;
    cs_snap_ = cs_flits_;
    cfg_snap_ = config_flits_;
  }

  void drain_deliveries(Cycle upto) {
    while (upto > 0) {
      const Cycle t = deliveries_.next_at(upto - 1);
      if (t == kCycleNever) return;
      // Once the measurement target is hit, the rest of the finishing
      // cycle's deliveries still co-count (the cycle core tallies every
      // delivery of that cycle before its loop breaks) — they fall through
      // the same bookkeeping with only the gate check disabled.
      deliveries_.consume(t, [this, t](const Delivery& d) {
        ++delivered_total_;
        if (!armed_ && delivered_total_ >= params_.warmup_packets) {
          armed_ = true;
          measure_start_ = std::max(t + 1, params_.warmup_min_cycles);
        }
        if (!armed_ || t < measure_start_) return;
        window_delivered_flits_ += d.flits;
        if (d.created < measure_start_) return;
        record_latency(t - d.created);
        ++measured_;
        if (!done_ &&
            (measured_ >= params_.measure_packets ||
             (lat_count_ > 500 &&
              lat_sum_ >
                  params_.latency_cap * static_cast<double>(lat_count_)))) {
          if (measured_ < params_.measure_packets) saturated_ = true;
          end_cycle_ = t + 1;
          done_ = true;
        }
      });
      if (done_) return;
    }
  }

  void push_delivery(Cycle at, Cycle created, int payload_flits) {
    deliveries_.push(at, Delivery{static_cast<std::uint32_t>(created),
                                  static_cast<std::uint32_t>(payload_flits)});
  }

  // Latency statistics, kept as flat local state instead of the shared
  // StatAccumulator/Histogram classes: this runs once per measured packet in
  // the hottest loop, and the integer-latency specialisation (integer bucket
  // index, sum instead of streaming mean) is measurably cheaper while
  // reporting the same mean/p99 the cycle driver's Histogram(5.0, 400) does.
  void record_latency(Cycle d) {
    ++lat_count_;
    lat_sum_ += static_cast<double>(d);
    if (d > lat_max_) lat_max_ = d;
    const size_t idx = static_cast<size_t>(d) / kHistWidth;
    if (idx < kHistBuckets) {
      ++hist_buckets_[idx];
    } else {
      ++hist_overflow_;
    }
  }

  double latency_quantile(double q) const {
    // Mirrors Histogram::quantile: linear interpolation within the bucket,
    // overflow mass reported as the largest sample seen.
    if (lat_count_ == 0) return 0.0;
    const double target = q * static_cast<double>(lat_count_);
    double cum = 0.0;
    for (size_t i = 0; i < kHistBuckets; ++i) {
      const double next = cum + static_cast<double>(hist_buckets_[i]);
      if (next >= target && hist_buckets_[i] > 0) {
        const double frac = (target - cum) / static_cast<double>(hist_buckets_[i]);
        return (static_cast<double>(i) + frac) * static_cast<double>(kHistWidth);
      }
      cum = next;
    }
    return static_cast<double>(lat_max_);
  }

  // --- packet-switched transfers ------------------------------------------

  Cycle link_service(std::uint32_t link, int flits) const {
    if (!tdm_ || cfg_.time_slot_stealing) return static_cast<Cycle>(flits);
    // Without time-slot stealing, reserved slots are lost to packet-switched
    // traffic even when idle: the link serves PS flits at (S - reserved)/S
    // of its bandwidth.
    const int res =
        std::min(reserved_on_link_[link], slots_ - 1);
    const double scale =
        static_cast<double>(slots_) / static_cast<double>(slots_ - res);
    return static_cast<Cycle>(
        static_cast<double>(flits) * scale + 0.9999);
  }

  /// Charge the cycle core's per-flit packet-switched energy events for one
  /// packet of `flits` over a route of `hops` links.
  void ps_energy(int hops, int flits, bool is_data) {
    const auto f = static_cast<std::uint64_t>(flits);
    const auto r = static_cast<std::uint64_t>(hops + 1);
    dyn_.buffer_writes += r * f;
    dyn_.buffer_reads += r * f;
    dyn_.sw_arbs += r * f;
    dyn_.xbar_flits += r * f;
    dyn_.vc_arbs += r;  // one VC allocation per packet per router
    dyn_.link_flits += static_cast<std::uint64_t>(hops) * f;
    if (is_data) {
      ps_flits_ += f;
    } else {
      config_flits_ += f;
    }
  }

  /// Synchronous whole-route walk for one config message (setup, ack,
  /// teardown) from src to dst: returns the delivery cycle. Config traffic
  /// is a fraction of a percent of flits, so the injection-order capacity
  /// claims are a harmless simplification here; data packets go hop by hop
  /// instead.
  Cycle send_config(NodeId src, NodeId dst, Cycle t) {
    XyLeg leg = route(src, dst);
    const int hops = leg.remaining;
    const int flits = cfg_.config_flits;
    const Cycle head = std::max(t, ni_free_[static_cast<size_t>(src)]);
    ni_free_[static_cast<size_t>(src)] = head + static_cast<Cycle>(flits);
    Cycle arr = head + 2;  // injection channel
    for (int i = 0; i < hops; ++i, advance(leg)) {
      const std::uint32_t l = leg.link;
      const Cycle depart = std::max(arr + 3, link_free_[l]);
      link_free_[l] = depart + link_service(l, flits);
      arr = depart + 2;
    }
    const Cycle ej = std::max(arr + 3, eject_free_[static_cast<size_t>(dst)]);
    eject_free_[static_cast<size_t>(dst)] = ej + static_cast<Cycle>(flits);
    ps_energy(hops, flits, /*is_data=*/false);
    return ej + 2 + static_cast<Cycle>(flits - 1);
  }

  /// Launch one data packet from src to dst: serialize at the source NI,
  /// then walk the route hop by hop via HopEvents so links serve heads in
  /// arrival order.
  void ps_launch(NodeId src, NodeId dst, Cycle t, int flits) {
    const Cycle head = std::max(t, ni_free_[static_cast<size_t>(src)]);
    ni_free_[static_cast<size_t>(src)] = head + static_cast<Cycle>(flits);
    if (tdm_) {
      // ewma_inject_delay: the base NI smooths (injection - creation) of
      // every non-config head flit with a 0.9/0.1 EWMA.
      NiState& st = ni_[static_cast<size_t>(src)];
      st.ewma = 0.9 * st.ewma + 0.1 * static_cast<double>(head - t);
    }
    const HopEvent ev{route(src, dst), static_cast<std::uint32_t>(t),
                      static_cast<std::uint16_t>(dst),
                      static_cast<std::uint16_t>(flits)};
    ps_energy(ev.at.remaining, flits, /*is_data=*/true);
    if (head == t) {
      // NI idle: the head reaches its first router two cycles from now with
      // nothing able to overtake it in between — claim in place and save the
      // event. A backlogged NI goes through the queue so that heads from
      // other sources arriving during the serialization delay keep their
      // true arrival order on shared links.
      process_hop(t + 2, ev);
    } else {
      hops_.push(head + 2, ev);
    }
  }

  void process_hop(Cycle at, const HopEvent& h) {
    const std::uint32_t l = h.at.link;
    const Cycle ready = at + 3;
    const Cycle free = link_free_[l];
    const Cycle depart = ready < free ? free : ready;
    // The +1 is a switch-turnaround bubble: the cycle core's allocator
    // leaves at least one idle cycle between consecutive packets on a link
    // (the next head re-arbitrates after the previous tail). It only delays
    // followers, so zero-load latency is untouched, and it supplies the
    // congestion spread a pure serialisation model otherwise understates.
    link_free_[l] = depart + link_service(l, h.flits) + 1;
    if (h.at.remaining > 1) {
      HopEvent next = h;
      advance(next.at);
      hops_.push(depart + 2, next);
      return;
    }
    // Arrived at the destination router: pipeline, ejection channel, tail.
    const Cycle ej =
        std::max(depart + 2 + 3, eject_free_[static_cast<size_t>(h.dst)]);
    eject_free_[static_cast<size_t>(h.dst)] =
        ej + static_cast<Cycle>(h.flits);
    push_delivery(ej + 2 + static_cast<Cycle>(h.flits - 1), h.created,
                  h.flits);
  }

  // --- TDM policy shadow --------------------------------------------------

  void epoch_tick(NodeId v, Cycle t) {
    NiState& st = ni_[static_cast<size_t>(v)];
    if (t < st.epoch_start + static_cast<Cycle>(cfg_.policy_epoch_cycles))
      return;
    st.epoch_start = t;
    ++st.epoch;  // every pair's freq count restarts from zero
    // Retire connections idle beyond the timeout (HybridNi::epoch_tick),
    // in destination order.
    for (auto it = st.conns.begin(); it != st.conns.end();) {
      const Cycle last = it->second.last_used;
      if (t > last && t - last > cfg_.path_idle_timeout) {
        it = teardown_connection(v, it, t);
      } else {
        ++it;
      }
    }
  }

  /// Without time-slot stealing a circuit's reserved slots are lost to
  /// packet-switched traffic on every link it crosses (see link_service).
  void reserve_links(NodeId src, NodeId dst, int slots) {
    if (cfg_.time_slot_stealing) return;
    for (XyLeg leg = route(src, dst); leg.remaining > 0; advance(leg))
      reserved_on_link_[leg.link] += slots;
  }

  /// Release the slot-table entries of the first `routers` routers of one
  /// window's (or a failed setup's) walk, starting at `slot`.
  void release_prefix(NodeId src, NodeId dst, int routers, int slot,
                      PacketId owner) {
    const int mask = slots_ - 1;
    walk_routers(src, dst, routers, [&](int i, const RouteHop& hop) {
      table(hop.router).release((slot + 2 * i) & mask, dur_, hop.in, owner);
      dyn_.slot_table_writes += static_cast<std::uint64_t>(dur_);
      return true;
    });
  }

  void release_window(NodeId src, NodeId dst, const Window& w) {
    release_prefix(src, dst, route(src, dst).remaining + 1, w.slot, w.owner);
    reserve_links(src, dst, -dur_);
  }

  /// Tear down src's connection `it` (one teardown message per window) and
  /// return the connection after it.
  std::map<NodeId, Conn>::iterator teardown_connection(
      NodeId src, std::map<NodeId, Conn>::iterator it, Cycle t) {
    const NodeId dst = it->first;
    for (const Window& w : it->second.windows) {
      release_window(src, dst, w);
      send_config(src, dst, t);
    }
    return ni_[static_cast<size_t>(src)].conns.erase(it);
  }

  /// HybridNi::choose_setup_slot: a fallback draw, then up to 8 candidates
  /// preferring a free Local-input slot; a retry must avoid the failed slot.
  int choose_slot(NodeId src, int avoid) {
    Rng& rng = slot_rng_[static_cast<size_t>(src)];
    const auto S = static_cast<std::uint64_t>(slots_);
    int slot = static_cast<int>(rng.uniform_int(S));
    if (slot == avoid) slot = -1;
    for (int attempt = 0; attempt < 8; ++attempt) {
      const int cand = static_cast<int>(rng.uniform_int(S));
      if (cand == avoid) continue;
      if (slot < 0) slot = cand;
      if (table(src).input_free(cand, dur_, Port::Local))
        return cand;
    }
    if (slot < 0)
      slot = (avoid + 1 +
              static_cast<int>(rng.uniform_int(S - 1))) % slots_;
    return slot;
  }

  /// The path-setup protocol, retried synchronously: walk the route's real
  /// SlotTables with the slot+2-per-hop increment; on the first conflicting
  /// (or occupancy-capped) router, release the reserved prefix, charge the
  /// setup/nack/teardown config messages, and retry with a different slot.
  void do_setup(NodeId src, NodeId dst, Cycle t) {
    NiState& st = ni_[static_cast<size_t>(src)];
    const int routers = route(src, dst).remaining + 1;
    const int mask = slots_ - 1;
    int avoid = -1;
    for (int retry = 0; retry <= cfg_.max_setup_retries; ++retry) {
      const int slot0 = choose_slot(src, avoid);
      const PacketId owner = next_owner_id_++;
      NodeId fail_node = src;
      const int fail_at = walk_routers(
          src, dst, routers, [&](int i, const RouteHop& hop) {
            SlotTable& tab = table(hop.router);
            const int s = (slot0 + 2 * i) & mask;
            if (tab.occupancy() >= cfg_.reservation_threshold ||
                !tab.reserve(s, dur_, hop.in, hop.out, owner, t)) {
              fail_node = hop.router;
              return false;
            }
            dyn_.slot_table_writes += static_cast<std::uint64_t>(dur_);
            return true;
          });
      if (fail_at < 0) {
        reserve_links(src, dst, dur_);
        // Setup rides to the destination, the ack rides back; the window
        // exists once the ack arrives.
        const Cycle d2 = send_config(dst, src, send_config(src, dst, t));
        Conn& conn = st.conns[dst];
        conn.windows.push_back(Window{slot0, d2, 0, owner});
        if (conn.last_used < d2) conn.last_used = d2;
        pair(src, dst).pending_until = d2;
        return;
      }
      // Release the reserved prefix and account the partial setup, the
      // failure ack, and the prefix teardown (three config messages; none
      // when the source's own table refused).
      release_prefix(src, dst, fail_at, slot0, owner);
      if (fail_at > 0) {
        send_config(src, fail_node, t);
        send_config(fail_node, src, t);
        send_config(src, fail_node, t);
      }
      avoid = slot0;
    }
    pair(src, dst).cooldown_until =
        t + 4 * static_cast<Cycle>(cfg_.policy_epoch_cycles);
  }

  /// A setup for (src, dst) if the policy allows one now: a first circuit
  /// (the caller checked the pair's frequency), or with `supplement` an
  /// extra window for an existing one.
  void maybe_setup(NodeId src, NodeId dst, Cycle t, bool supplement) {
    NiState& st = ni_[static_cast<size_t>(src)];
    if (dst == src) return;
    const Pair& p = pair(src, dst);
    if (t < p.pending_until) return;
    const auto cit = st.conns.find(dst);
    if (supplement) {
      if (cit == st.conns.end() ||
          static_cast<int>(cit->second.windows.size()) >=
              cfg_.max_windows_per_pair)
        return;
      // Breadth before depth: a crowded local table serves new pairs first.
      if (table(src).occupancy() > 0.5) return;
    } else if (cit != st.conns.end()) {
      return;
    }
    if (t < p.cooldown_until) return;
    // Retire the idlest connection when the local table is crowded.
    if (table(src).occupancy() > 0.5 &&
        !st.conns.empty()) {
      auto idlest = st.conns.begin();
      for (auto it = st.conns.begin(); it != st.conns.end(); ++it)
        if (it->second.last_used < idlest->second.last_used) idlest = it;
      if (t > idlest->second.last_used &&
          t - idlest->second.last_used >
              static_cast<Cycle>(cfg_.policy_epoch_cycles))
        teardown_connection(src, idlest, t);
    }
    do_setup(src, dst, t);
  }

  enum class CsAttempt { Scheduled, NoWindow, NotWorth };

  CsAttempt try_circuit(NodeId src, NodeId dst, Cycle t, int payload_flits) {
    NiState& st = ni_[static_cast<size_t>(src)];
    Conn& conn = st.conns[dst];
    XyLeg leg = route(src, dst);
    const int h = leg.remaining;
    const auto S = static_cast<Cycle>(slots_);
    Cycle best = kCycleNever;
    size_t best_w = 0;
    bool any_ready = false;
    for (size_t i = 0; i < conn.windows.size(); ++i) {
      const Window& w = conn.windows[i];
      if (w.ready > t) continue;
      any_ready = true;
      const Cycle base = std::max({t + 3, st.cs_busy_until, w.next_free});
      const Cycle cand =
          base + ((static_cast<Cycle>(w.slot) - base) & (S - 1));
      // find_start probes two table rotations from now+3 and gives up.
      if (cand - (t + 3) >= 2 * S) continue;
      if (cand < best) {
        best = cand;
        best_w = i;
      }
    }
    if (!any_ready || best == kCycleNever) return CsAttempt::NoWindow;
    const double cs_latency = static_cast<double>(best - t) + 2.0 * h + 2.0 +
                              static_cast<double>(fcs_ - 1);
    const double ps_estimate = 5.0 * h + 6.0 + cfg_.ps_data_flits +
                               cfg_.congestion_gain * st.ewma;
    if (cs_latency > cfg_.cs_latency_advantage * ps_estimate)
      return CsAttempt::NotWorth;

    Window& w = conn.windows[best_w];
    w.next_free = best + 1;  // alignment makes the next start >= best + S
    st.cs_busy_until = best + static_cast<Cycle>(fcs_);
    conn.last_used = t;

    const auto f = static_cast<std::uint64_t>(fcs_);
    const auto r = static_cast<std::uint64_t>(h + 1);
    dyn_.cs_latch_flits += r * f;
    dyn_.xbar_flits += r * f;
    dyn_.link_flits += static_cast<std::uint64_t>(h) * f;
    cs_flits_ += f;
    // Circuit flits occupy their reserved link cycles; packet-switched
    // backlogs behind them slip by the circuit's footprint.
    for (; leg.remaining > 0; advance(leg)) {
      Cycle& free = link_free_[leg.link];
      if (free > t) free += static_cast<Cycle>(fcs_);
    }
    push_delivery(best + 2 * static_cast<Cycle>(h) + 2 +
                      static_cast<Cycle>(fcs_ - 1),
                  t, payload_flits);
    return CsAttempt::Scheduled;
  }

  // --- injection ----------------------------------------------------------

  /// Source queues diverging: the cycle core drops the packet and flags
  /// deep saturation. The serializer backlog, counted in packets of this
  /// size, is our queue depth. False when the injection is dropped.
  bool admit(NodeId v, Cycle t, int flits) {
    const Cycle free = ni_free_[static_cast<size_t>(v)];
    if (free > t &&
        (free - t) / static_cast<Cycle>(std::max(flits, 1)) > 2000) {
      saturated_ = true;
      return false;
    }
    return true;
  }

  /// One admitted injection at NI v; dst < 0 is a synthetic draw that
  /// produced no packet (the NI's epoch still advances). Circuit-ineligible
  /// messages skip the whole policy block, including the pair-frequency
  /// count, and so never create a pair record. The record is read only
  /// before a setup may create pairs and move it.
  void inject(NodeId v, NodeId dst, int flits, bool cs_eligible, Cycle t) {
    if (tdm_) epoch_tick(v, t);
    if (dst < 0) return;
    if (measuring_)
      window_generated_flits_ += static_cast<std::uint64_t>(flits);

    if (tdm_ && cs_eligible) {
      Pair& p = pair(v, dst);
      NiState& st = ni_[static_cast<size_t>(v)];
      if (p.freq_epoch != st.epoch) {
        p.freq_epoch = st.epoch;
        p.freq = 0;
      }
      const int freq = ++p.freq;
      if (!st.conns.empty() && st.conns.find(dst) != st.conns.end()) {
        const CsAttempt r = try_circuit(v, dst, t, flits);
        if (r == CsAttempt::Scheduled) return;
        if (r == CsAttempt::NoWindow)
          maybe_setup(v, dst, t, /*supplement=*/true);
      }
      if (freq >= cfg_.path_freq_threshold)
        maybe_setup(v, dst, t, /*supplement=*/false);
    }
    ps_launch(v, dst, t, flits);
  }

  /// pattern_destination, specialised at construction time: deterministic
  /// patterns collapse to a table lookup (they never touch the rng, so the
  /// draw sequence is unchanged), and the stochastic ones issue the exact
  /// same rng calls in the same order — results stay bit-identical to
  /// calling pattern_destination per packet, minus the per-call switch,
  /// coordinate math, and cross-library call. Returns -1 for "no packet"
  /// (the self-destination case pattern_destination reports as nullopt).
  NodeId draw_destination(NodeId src) {
    if (dst_mode_ == DstMode::Table)
      return dst_table_[static_cast<size_t>(src)];
    Rng& rng = dst_rng_[static_cast<size_t>(src)];
    const NodeId dst = dst_mode_ == DstMode::Hotspot && rng.bernoulli(0.25)
                           ? hotspots_[rng.uniform_int(4)]
                           : draw_uniform_node(rng);
    return dst == src ? -1 : dst;
  }

  /// Rng::uniform_int(num_nodes) with the rejection threshold hoisted to a
  /// member and the modulo strength-reduced to a mask on power-of-two
  /// meshes; draw-for-draw identical to the generic version (for such
  /// meshes the threshold is zero and r % n == r & (n-1)).
  NodeId draw_uniform_node(Rng& rng) const {
    for (;;) {
      const std::uint64_t r = rng.next_u64();
      if (r < nodes_threshold_) continue;
      return static_cast<NodeId>(nodes_pow2_ ? (r & (nodes_u64_ - 1))
                                             : (r % nodes_u64_));
    }
  }

  // --- results ------------------------------------------------------------

  RunResult finalize() {
    RunResult r;
    r.offered_rate = params_.injection_rate;
    r.measured_packets = measured_;
    r.avg_latency =
        lat_count_ > 0 ? lat_sum_ / static_cast<double>(lat_count_) : 0.0;
    r.p99_latency = latency_quantile(0.99);
    r.cycles = measuring_ ? end_cycle_ - measure_start_ : 0;
    r.saturated = saturated_ || measured_ < params_.measure_packets;
    if (r.cycles > 0) {
      const auto window = static_cast<double>(r.cycles);
      r.accepted_rate = static_cast<double>(window_delivered_flits_) /
                        (static_cast<double>(n_) * window);
      const double offered_actual =
          static_cast<double>(window_generated_flits_) /
          (static_cast<double>(n_) * window);
      if (r.accepted_rate < 0.85 * offered_actual) r.saturated = true;

      EnergyCounters e = dyn_ - dyn_snap_;
      // Per-cycle constants the cycle core accrues in accounting_tick /
      // leakage_tick, integrated over the window analytically.
      const auto W = static_cast<std::uint64_t>(r.cycles);
      const auto R = static_cast<std::uint64_t>(n_);
      e.cycles += R * W;
      e.vc_active_cycles += R * W *
                            static_cast<std::uint64_t>(cfg_.num_vcs) *
                            static_cast<std::uint64_t>(kNumPorts);
      // Sum of router out-degrees of a k x k mesh: 4k(k-1) directed links.
      e.link_active_cycles +=
          W * static_cast<std::uint64_t>(4 * cfg_.k * (cfg_.k - 1));
      if (tdm_) {
        e.slot_table_reads += R * W;
        e.slot_entry_active_cycles +=
            R * W * static_cast<std::uint64_t>(slots_);
        e.cs_misc_active_cycles += R * W;
      }
      r.energy = e;

      const double ps = static_cast<double>(ps_flits_ - ps_snap_);
      const double cs = static_cast<double>(cs_flits_ - cs_snap_);
      const double cf = static_cast<double>(config_flits_ - cfg_snap_);
      r.cs_flit_fraction = safe_ratio(cs, ps + cs);
      r.config_flit_fraction = safe_ratio(cf, ps + cs + cf);
    }
    return r;
  }

  // --- state --------------------------------------------------------------

  const NocConfig cfg_;
  const RunParams params_;
  const Mesh mesh_;
  const int n_;
  const bool tdm_;
  const int fps_, fcs_, dur_, slots_;
  const double p_;  ///< packet probability per node per cycle

  std::vector<Cycle> ni_free_, eject_free_, link_free_;
  std::vector<int> reserved_on_link_;
  std::vector<Rng> inj_rng_, dst_rng_, slot_rng_;
  enum class DstMode { Table, Uniform, Hotspot };
  DstMode dst_mode_ = DstMode::Uniform;
  std::vector<NodeId> dst_table_;  ///< Table mode; -1 = self, no packet
  NodeId hotspots_[4] = {0, 0, 0, 0};
  std::uint64_t nodes_u64_ = 1;       ///< num_nodes, for the uniform draw
  std::uint64_t nodes_threshold_ = 0; ///< 2^64 mod num_nodes (rejection)
  bool nodes_pow2_ = false;
  std::vector<NiState> ni_;
  std::vector<std::unique_ptr<SlotTable>> tables_;  ///< see table()
  PacketId next_owner_id_ = 1;

  double inv_log1m_p_ = 0.0;  ///< 1 / log1p(-p), hoisted for inject_gap

  Calendar<NodeId> inj_;           ///< next injection time per node
  Calendar<Delivery> deliveries_;  ///< finished transfers awaiting tallying
  Calendar<HopEvent> hops_;
  /// Node coordinates for route(); k <= 256 fits them in a byte each.
  struct NodeXy {
    std::uint8_t x, y;
  };
  std::vector<NodeXy> coords_;
  /// advance()'s link-id steps per direction: {along y, turn, along x}.
  std::array<std::array<std::uint32_t, 3>, 4> step_{};
  /// Open-addressing (linear probing) index of pairs_, keyed by
  /// src * n + dst; slots store the key, so probing never touches a record.
  static constexpr unsigned kInitialPairBits = 10;
  std::vector<PairSlot> pair_slots_ =
      std::vector<PairSlot>(size_t{1} << kInitialPairBits);
  unsigned pair_shift_ = 64 - kInitialPairBits;  ///< 64 - log2(slots)
  std::vector<Pair> pairs_;

  // measurement
  bool armed_ = false, measuring_ = false, saturated_ = false, done_ = false;
  Cycle measure_start_ = 0, end_cycle_ = 0;
  std::uint64_t delivered_total_ = 0, window_delivered_flits_ = 0;
  std::uint64_t window_generated_flits_ = 0, measured_ = 0;
  static constexpr size_t kHistBuckets = 400;  ///< Histogram(5.0, 400) twin
  static constexpr size_t kHistWidth = 5;
  std::uint64_t lat_count_ = 0;
  double lat_sum_ = 0.0;
  Cycle lat_max_ = 0;
  std::array<std::uint64_t, kHistBuckets> hist_buckets_{};
  std::uint64_t hist_overflow_ = 0;

  // cumulative event counters, snapshotted at window start
  EnergyCounters dyn_, dyn_snap_;
  std::uint64_t ps_flits_ = 0, cs_flits_ = 0, config_flits_ = 0;
  std::uint64_t ps_snap_ = 0, cs_snap_ = 0, cfg_snap_ = 0;
};

}  // namespace

bool fast_model_supports(const NocConfig& cfg, std::string* why) {
  const auto fail = [why](const char* reason) {
    if (why) *why = reason;
    return false;
  };
  if (cfg.arch == RouterArch::HybridSdm)
    return fail("the SDM baseline has no transfer-level model");
  if (cfg.vc_power_gating)
    return fail("VC power gating needs per-cycle utilization integrals");
  if (cfg.hitchhiker_sharing || cfg.vicinity_sharing)
    return fail("path sharing (hitchhiker/vicinity) is cycle-core only");
  if (cfg.dynamic_slot_sizing)
    return fail("dynamic slot sizing is cycle-core only");
  if (cfg.link_ber > 0.0 || cfg.e2e_recovery)
    return fail("fault injection / e2e recovery are cycle-core only");
  return true;
}

RunResult run_synthetic_fast(const NocConfig& cfg, const RunParams& params) {
  cfg.validate();
  std::string why;
  HN_CHECK_MSG(fast_model_supports(cfg, &why), why.c_str());
  return FastModel(cfg, params).run();
}

RunResult run_trace_fast(const NocConfig& cfg,
                         const std::vector<TraceEntry>& entries,
                         const RunParams& params) {
  cfg.validate();
  std::string why;
  HN_CHECK_MSG(fast_model_supports(cfg, &why), why.c_str());
  check_replayable(entries, cfg.k * cfg.k);
  for (const TraceEntry& e : entries)
    HN_CHECK_MSG(e.flits <= 0xffff,
                 "fast model packs packet lengths into 16 bits");
  return FastModel(cfg, params).run(entries);
}

}  // namespace hybridnoc
