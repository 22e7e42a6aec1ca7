// Workload `forward`: the paper's Fig. 10 path. Node 0 (SISCI/SCI) talks
// to node 2 (BIP/Myrinet) through gateway node 1 over one virtual channel
// with 16 kB packets and pipeline depth 2.
//
// Phase A: closed-loop request/response through the gateway, one
// outstanding, seeded 4-1024 B log-uniform messages (stratified, in a
// seeded order: see stratified_log_uniform); one latency sample
// per round trip is RTT/2 (paper Section 5.1). Phase B: 8 messages of
// 1 MiB streamed one way, then a 1-byte ack; its bandwidth is bw_mbs (the
// fig10 harness does the same with 4 messages). The stream length is the
// same for every seed, because each 1 MiB message costs as much host time
// as about 60 small ones and a seeded length moved host_ops_per_s by a
// fifth between seeds. Every message carries a pattern seeded per (flow,
// message) and is checked on receipt; an op is one one-way message. Phase
// A's patterns are made before the timed phase. The stream's are filled
// into one buffer in the run and checked by verify_pattern (about 2% of
// the run): kept in the PatternBook, their 8 MiB made peak_rss_mb move by
// 5% between seeds.
#include <algorithm>
#include <string>

#include "fwd/virtual_channel.hpp"
#include "util/bytes.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kSrc = 0;
constexpr std::uint32_t kGateway = 1;
constexpr std::uint32_t kDst = 2;
constexpr std::size_t kRoundTrips = 1000;
constexpr std::size_t kStreamBytes = 1024 * 1024;
constexpr std::size_t kStreamMessages = 8;

}  // namespace

RoundResult run_forward(const RoundConfig& config) {
  RoundResult result;
  const std::uint64_t seed = config.seed;
  Rng rng(seed * 7919ULL + 11);
  std::vector<std::size_t> sizes =
      stratified_log_uniform(rng, kRoundTrips, 4, 1024);
  shuffle(rng, sizes);
  for (std::size_t size : sizes) {
    result.draw_digest = digest_mix(result.draw_digest, size);
  }
  result.small_sizes = sizes;
  result.attempted = 2 * kRoundTrips + kStreamMessages;
  PatternBook patterns;
  for (std::size_t i = 0; i < kRoundTrips; ++i) {
    patterns.make(flow_seed(seed, kSrc, i), sizes[i]);
    patterns.make(flow_seed(seed, kDst, i), sizes[i]);
  }
  patterns.make(flow_seed(seed, kDst, kRoundTrips), 1);

  RoundTimer timer(&result);
  mad::SessionConfig session_config;
  session_config.node_count = 3;
  mad::NetworkDef sci;
  sci.name = "sci";
  sci.kind = mad::NetworkKind::kSisci;
  sci.nodes = {kSrc, kGateway};
  mad::NetworkDef myrinet;
  myrinet.name = "myrinet";
  myrinet.kind = mad::NetworkKind::kBip;
  myrinet.nodes = {kGateway, kDst};
  session_config.networks = {sci, myrinet};
  session_config.channels = {mad::ChannelDef{"hop_sci", "sci"},
                             mad::ChannelDef{"hop_myri", "myrinet"}};
  mad::Session session(std::move(session_config));
  timer.session_built();
  fwd::VirtualChannelDef def;
  def.name = "vc";
  def.hops = {"hop_sci", "hop_myri"};
  def.mtu = 16 * 1024;
  def.pipeline_depth = 2;
  fwd::VirtualChannel vc(session, def);
  timer.vchannels_built();

  if (config.traced) {
    result.tracer = std::make_unique<Tracer>();
    result.tracer->attach(&session.simulator(), "forward");
  }
  Tracer* tracer = result.tracer.get();
  FailureLog failures;
  const std::uint64_t planted = config.plant_corruption ? 7 : ~0ULL;
  std::uint64_t ops_done = 0;
  std::uint64_t allocs_warm = 0;
  sim::Time end = 0;
  std::unique_ptr<Sampler> sampler;
  double live_fibers_max = 0.0;
  double queue_depth_max = 0.0;
  if (config.traced) {
    sampler = std::make_unique<Sampler>(session, sim::microseconds(100), [&] {
      live_fibers_max = std::max(
          live_fibers_max,
          static_cast<double>(session.simulator().live_fiber_count()));
      for (std::size_t depth : vc.gateway_queue_depths()) {
        queue_depth_max = std::max(queue_depth_max, static_cast<double>(depth));
      }
    });
  }
  auto send = [&](std::uint32_t from, std::uint32_t to,
                  std::span<const std::byte> payload, std::uint64_t op,
                  bool op_root = false) {
    ScopedSpan span(tracer, "fwd.send", op, op_root);
    auto& conn = vc.endpoint(from).begin_packing(to);
    conn.pack(payload);
    conn.end_packing();
  };
  // Receive one message of `bytes` from `from` and check it is message
  // `k` of that flow (op id `op`).
  auto receive = [&](std::uint32_t at, std::uint32_t from,
                     std::vector<std::byte>& buffer, std::size_t bytes,
                     std::uint64_t k, std::uint64_t op) {
    buffer.resize(bytes);
    {
      ScopedSpan span(tracer, "fwd.receive", op);
      auto& conn = vc.endpoint(at).begin_unpacking();
      if (conn.remote() != from) failures.fail(op, "message from wrong node");
      conn.unpack(buffer);
      conn.end_unpacking();
    }
    const std::uint64_t expect = flow_seed(seed, from, k) ^ (op == planted);
    if (!patterns.check(buffer, expect)) {
      failures.fail(op, "node " + std::to_string(at) + ": message " +
                            std::to_string(k) + " from " +
                            std::to_string(from) +
                            " lost, duplicated, reordered or corrupt");
    }
    if (++ops_done == result.attempted / 10) allocs_warm = total_allocs(session);
  };

  session.spawn(kSrc, "client", [&](mad::NodeRuntime& rt) {
    std::vector<std::byte> in;
    for (std::size_t i = 0; i < kRoundTrips; ++i) {
      const auto out = patterns.get(flow_seed(seed, kSrc, i), sizes[i]);
      const sim::Time t0 = rt.simulator().now();
      {
        ScopedSpan span(tracer, "forward.round_trip", 2 * i, /*op_root=*/true);
        send(kSrc, kDst, out, 2 * i);
        receive(kSrc, kDst, in, sizes[i], i, 2 * i + 1);
      }
      result.latency_us.add(sim::to_us(rt.simulator().now() - t0) / 2.0);
    }
    // Phase B: stream, then wait for the terminal ack.
    std::vector<std::byte> big(kStreamBytes);
    const sim::Time start = rt.simulator().now();
    for (std::size_t j = 0; j < kStreamMessages; ++j) {
      fill_pattern(big, flow_seed(seed, kSrc, kRoundTrips + j));
      send(kSrc, kDst, big, 2 * kRoundTrips + j, /*op_root=*/true);
    }
    std::vector<std::byte> ack;
    receive(kSrc, kDst, ack, 1, kRoundTrips, 2 * kRoundTrips + kStreamMessages);
    --ops_done;  // the ack is not an op of its own
    end = rt.simulator().now();
    result.bulk_bytes = static_cast<double>(kStreamMessages * kStreamBytes);
    result.bulk_virtual_s = sim::to_seconds(end - start);
    if (sampler) sampler->stop();
  });
  session.spawn(kDst, "server", [&](mad::NodeRuntime&) {
    std::vector<std::byte> in;
    for (std::size_t i = 0; i < kRoundTrips; ++i) {
      receive(kDst, kSrc, in, sizes[i], i, 2 * i);
      send(kDst, kSrc, patterns.get(flow_seed(seed, kDst, i), sizes[i]),
           2 * i + 1);
    }
    for (std::size_t j = 0; j < kStreamMessages; ++j) {
      receive(kDst, kSrc, in, kStreamBytes, kRoundTrips + j,
              2 * kRoundTrips + j);
    }
    send(kDst, kSrc, patterns.get(flow_seed(seed, kDst, kRoundTrips), 1),
         2 * kRoundTrips + kStreamMessages);
  });

  const Status status = timer.run(session);
  result.ops_completed = ops_done;
  result.virtual_s = sim::to_seconds(end);
  result.failed = status.is_ok()
                      ? failures.count()
                      : std::min<std::uint64_t>(
                            result.attempted,
                            result.attempted - ops_done + failures.count());
  result.first_failure = status.is_ok() ? failures.first() : status.to_string();

  add_library_counters(session, &result);
  auto& layer = result.layer;
  layer["sim.live_fibers_max"] = live_fibers_max;
  layer["fwd.gw_queue_depth_max"] = queue_depth_max;
  layer["hw.allocs_steady"] =
      static_cast<double>(total_allocs(session) - allocs_warm);
  layer["hw.pci_busy_frac.gw"] =
      sim::to_seconds(session.node(kGateway).pci_bus().busy_time()) /
      result.virtual_s;
  double payload = static_cast<double>(kStreamMessages * kStreamBytes + 1);
  for (std::size_t size : sizes) payload += 2.0 * static_cast<double>(size);
  const char* roles[] = {"src", "gw", "dst"};
  for (std::uint32_t n = 0; n < 3; ++n) {
    layer[std::string("hw.copies_per_byte.") + roles[n]] =
        static_cast<double>(session.node(n).mem().memcpy_bytes) / payload;
  }
  layer["fwd.pool_buffers"] = static_cast<double>(vc.pool().total_buffers());
  double recycles = 0.0;
  for (std::uint32_t n = 0; n < 3; ++n) {
    recycles += static_cast<double>(session.node(n).mem().pool_recycle_count);
  }
  const double forwarded = static_cast<double>(vc.gateway_forwarded(kGateway));
  layer["fwd.pool_recycles_per_pkt"] = forwarded > 0 ? recycles / forwarded : 0;
  layer["fwd.gw_spread"] = 1.0;  // a single gateway
  const auto& routing = vc.routing_counters();
  layer["fwd.replays"] = static_cast<double>(routing.replayed_packets);
  layer["fwd.dup_drops"] = static_cast<double>(routing.dup_drops);
  layer["fwd.discarded"] = static_cast<double>(routing.discarded);
  if (tracer != nullptr) {
    layer["fwd.send_vus.p50"] = tracer->virtual_us("fwd.send").median();
  }
  return result;
}

}  // namespace perfbench
