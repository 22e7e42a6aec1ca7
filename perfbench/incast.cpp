// Workload `incast`: a 64-node fat tree, 2 clusters x (30 leaves + 2
// gateways), every network gigabit TCP (abl_msgrate's 125 MB/s wire) with
// the reliable shim under it (an empty fault plan: lossless, but every
// frame is sequenced and acked). The topology, congestion and fastpath
// stanzas are on.
//
// 28 bulk flows of 16 KiB messages run closed-loop (each sender packs its
// next message as soon as the transport takes the last one) from cluster-0
// leaves into one cluster-1 sink. One probe flow sends 1 KiB messages to
// the same sink on an open-loop schedule, one every kProbeInterval; probe
// latency is timed from each probe's due time, so generator stalls count.
// The seed sets the order in which the bulk flows start. An op is one
// delivered message.
#include <algorithm>
#include <string>

#include "fwd/virtual_channel.hpp"
#include "net/fault.hpp"
#include "net/tcp.hpp"
#include "util/bytes.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kClusters = 2;
constexpr std::size_t kLeaves = 30;
constexpr std::size_t kGateways = 2;
constexpr std::size_t kBulkFlows = 28;
constexpr std::size_t kBulkMessages = 30;
constexpr std::size_t kBulkBytes = 16 * 1024;
constexpr std::size_t kProbes = 1000;
constexpr std::size_t kProbeBytes = 1024;
constexpr sim::Duration kProbeInterval = sim::microseconds(100);
constexpr sim::Duration kProbeStart = sim::milliseconds(2);
constexpr sim::Duration kStagger = sim::microseconds(5);
constexpr std::uint64_t kReceiveOps = std::uint64_t{1} << 63;

std::uint32_t leaf(std::size_t cluster, std::size_t i) {
  return static_cast<std::uint32_t>(cluster * (kLeaves + kGateways) + i);
}
std::uint32_t gateway(std::size_t cluster, std::size_t g) {
  return static_cast<std::uint32_t>(cluster * (kLeaves + kGateways) + kLeaves +
                                    g);
}
std::string cluster_channel(std::size_t cluster) {
  return "ft_c" + std::to_string(cluster);
}

}  // namespace

RoundResult run_incast(const RoundConfig& config) {
  RoundResult result;
  const std::uint64_t seed = config.seed;
  const std::uint32_t probe_src = leaf(0, kBulkFlows);
  const std::uint32_t sink = leaf(1, 0);
  Rng rng(seed * 104729ULL + 5);
  // Bulk flows start kStagger apart, in a seeded order.
  std::vector<sim::Duration> start_offset(kBulkFlows);
  for (std::size_t f = 0; f < kBulkFlows; ++f) {
    start_offset[f] = static_cast<sim::Duration>(f) * kStagger;
  }
  shuffle(rng, start_offset);
  for (sim::Duration offset : start_offset) {
    result.draw_digest =
        digest_mix(result.draw_digest, static_cast<std::uint64_t>(offset));
  }
  result.small_sizes.assign(kProbes, kProbeBytes);
  result.attempted = kBulkFlows * kBulkMessages + kProbes;

  // The plan must outlive the session; with no faults configured it only
  // routes every TCP frame through the reliable shim.
  net::FaultPlan plan(seed);
  RoundTimer timer(&result);
  mad::SessionConfig session_config;
  session_config.node_count = kClusters * (kLeaves + kGateways);
  net::TcpParams tcp = net::TcpParams::fast_ethernet();
  tcp.fabric.wire_mbs = 125.0;
  tcp.fabric.faults = &plan;
  mad::NetworkDef core;
  core.name = "ft_core_net";
  core.kind = mad::NetworkKind::kTcp;
  core.tcp_params = tcp;
  for (std::size_t c = 0; c < kClusters; ++c) {
    mad::NetworkDef net;
    net.name = "ft_c" + std::to_string(c) + "_net";
    net.kind = mad::NetworkKind::kTcp;
    net.tcp_params = tcp;
    for (std::size_t i = 0; i < kLeaves; ++i) net.nodes.push_back(leaf(c, i));
    for (std::size_t g = 0; g < kGateways; ++g) {
      net.nodes.push_back(gateway(c, g));
      core.nodes.push_back(gateway(c, g));
    }
    session_config.networks.push_back(net);
    session_config.channels.emplace_back(cluster_channel(c), net.name);
  }
  session_config.networks.push_back(core);
  session_config.channels.emplace_back("ft_core", core.name);
  mad::TopologyConfig topology;
  topology.enabled = true;
  session_config.topology = topology;
  mad::CongestionConfig cc;
  cc.enabled = true;
  cc.init_window = 1;
  cc.max_window = 8;
  cc.gateway_queue = 1024;
  cc.quantum = 4096;
  session_config.congestion = cc;
  session_config.fastpath = mad::FastPathConfig{};
  mad::Session session(std::move(session_config));
  timer.session_built();
  fwd::VirtualChannelDef def;
  def.name = "vc";
  def.hops = {cluster_channel(0), "ft_core", cluster_channel(1)};
  def.mtu = 4 * 1024;
  fwd::VirtualChannel vc(session, def);
  vc.set_flow_weight(probe_src, sink, 8.0);
  timer.vchannels_built();

  if (config.traced) {
    result.tracer = std::make_unique<Tracer>();
    result.tracer->attach(&session.simulator(), "incast");
  }
  Tracer* tracer = result.tracer.get();
  FailureLog failures;
  const std::uint64_t planted =
      config.plant_corruption ? (std::uint64_t{leaf(0, 3)} << 32) | 5 : ~0ULL;
  std::uint64_t delivered = 0;
  std::uint64_t allocs_warm = 0;
  std::vector<sim::Time> due(kProbes);
  for (std::size_t i = 0; i < kProbes; ++i) {
    due[i] = kProbeStart + static_cast<sim::Duration>(i) * kProbeInterval;
  }
  SampleSet late_us;
  sim::Time first_send = sim::kNever;
  sim::Time last_delivery = 0;
  sim::Time last_probe = 0;
  std::vector<double> window_bytes(kBulkFlows, 0.0);

  std::unique_ptr<Sampler> sampler;
  double live_fibers_max = 0.0;
  double queue_depth_max = 0.0;
  if (config.traced) {
    sampler = std::make_unique<Sampler>(session, sim::microseconds(200), [&] {
      live_fibers_max = std::max(
          live_fibers_max,
          static_cast<double>(session.simulator().live_fiber_count()));
      for (std::size_t depth : vc.gateway_queue_depths()) {
        queue_depth_max = std::max(queue_depth_max, static_cast<double>(depth));
      }
    });
  }

  auto send = [&](std::uint32_t src, std::span<const std::byte> payload,
                  std::uint64_t op) {
    ScopedSpan span(tracer, "fwd.send", op, /*op_root=*/true);
    first_send = std::min(first_send, session.simulator().now());
    auto& conn = vc.endpoint(src).begin_packing(sink);
    conn.pack(payload);
    conn.end_packing();
  };
  for (std::size_t f = 0; f < kBulkFlows; ++f) {
    const std::uint32_t src = leaf(0, f);
    session.spawn(src, "bulk" + std::to_string(f), [&, src, f](mad::NodeRuntime& rt) {
      rt.simulator().advance(start_offset[f]);
      std::vector<std::byte> payload(kBulkBytes);
      for (std::size_t k = 0; k < kBulkMessages; ++k) {
        fill_pattern(payload, flow_seed(seed, src, k));
        send(src, payload, (std::uint64_t{src} << 32) | k);
      }
    });
  }
  session.spawn(probe_src, "probe", [&](mad::NodeRuntime& rt) {
    std::vector<std::byte> payload(kProbeBytes);
    for (std::size_t i = 0; i < kProbes; ++i) {
      const sim::Time now = rt.simulator().now();
      if (now < due[i]) rt.simulator().advance(due[i] - now);
      late_us.add(sim::to_us(rt.simulator().now() - due[i]));
      fill_pattern(payload, flow_seed(seed, probe_src, i));
      send(probe_src, payload, (std::uint64_t{probe_src} << 32) | i);
    }
  });
  session.spawn(sink, "sink", [&](mad::NodeRuntime& rt) {
    std::map<std::uint32_t, std::size_t> next_k;
    std::vector<std::byte> buffer;
    for (std::uint64_t i = 0; i < result.attempted; ++i) {
      std::uint32_t src = 0;
      {
        // The sender is known only once the message arrives: the span gets
        // an op id of its own instead of nesting under the send.
        ScopedSpan span(tracer, "fwd.receive", kReceiveOps | i);
        auto& conn = vc.endpoint(sink).begin_unpacking();
        src = conn.remote();
        const bool probe = src == probe_src;
        buffer.resize(probe ? kProbeBytes : kBulkBytes);
        conn.unpack(buffer);
        conn.end_unpacking();
      }
      const sim::Time now = rt.simulator().now();
      const std::size_t k = next_k[src]++;
      const std::uint64_t op = (std::uint64_t{src} << 32) | k;
      const bool probe = src == probe_src;
      const bool known = probe || (src < leaf(0, kBulkFlows));
      const std::size_t limit = probe ? kProbes : kBulkMessages;
      if (!known || k >= limit) {
        failures.fail(op, "sink: unexpected or duplicated message from " +
                              std::to_string(src));
        continue;
      }
      if (!verify_pattern(buffer, flow_seed(seed, src, k) ^ (op == planted))) {
        failures.fail(op, "sink: message " + std::to_string(k) + " from " +
                              std::to_string(src) +
                              " lost, reordered or corrupt");
      }
      if (probe) {
        result.latency_us.add(sim::to_us(now - due[k]));
        last_probe = now;
      } else if (now >= due.front() && last_probe < due.back()) {
        window_bytes[src - leaf(0, 0)] += static_cast<double>(kBulkBytes);
      }
      result.bulk_bytes += static_cast<double>(buffer.size());
      last_delivery = now;
      if (++delivered == result.attempted / 10) {
        allocs_warm = total_allocs(session);
      }
    }
    if (sampler) sampler->stop();
  });

  const Status status = timer.run(session);
  result.ops_completed = delivered;
  result.virtual_s = sim::to_seconds(last_delivery);
  result.bulk_virtual_s = sim::to_seconds(last_delivery - first_send);
  std::uint64_t missing = result.attempted - delivered;
  result.failed = std::min<std::uint64_t>(result.attempted,
                                          failures.count() + missing);
  result.first_failure = !status.is_ok()  ? status.to_string()
                         : missing != 0   ? "sink: messages missing"
                                          : failures.first();

  add_library_counters(session, &result);
  auto& layer = result.layer;
  layer["sim.live_fibers_max"] = live_fibers_max;
  layer["fwd.gw_queue_depth_max"] = queue_depth_max;
  layer["incast.gen_late_us.max"] =
      late_us.count() > 0 ? late_us.quantile(1.0) : 0.0;
  layer["hw.allocs_steady"] =
      static_cast<double>(total_allocs(session) - allocs_warm);
  double pci_max = 0.0;
  double gw_copies = 0.0;
  double recycles = 0.0;
  double forwarded = 0.0;
  for (std::size_t c = 0; c < kClusters; ++c) {
    for (std::size_t g = 0; g < kGateways; ++g) {
      hw::Node& node = session.node(gateway(c, g));
      pci_max = std::max(pci_max, sim::to_seconds(node.pci_bus().busy_time()));
      gw_copies += static_cast<double>(node.mem().memcpy_bytes);
      forwarded += static_cast<double>(vc.gateway_forwarded(gateway(c, g)));
    }
  }
  for (std::uint32_t n = 0; n < session.node_count(); ++n) {
    recycles += static_cast<double>(session.node(n).mem().pool_recycle_count);
  }
  layer["hw.pci_busy_frac.gw"] = pci_max / result.virtual_s;
  double src_copies = 0.0;
  for (std::size_t i = 0; i <= kBulkFlows; ++i) {
    src_copies += static_cast<double>(session.node(leaf(0, i)).mem().memcpy_bytes);
  }
  layer["hw.copies_per_byte.src"] = src_copies / result.bulk_bytes;
  layer["hw.copies_per_byte.gw"] = gw_copies / result.bulk_bytes;
  layer["hw.copies_per_byte.dst"] =
      static_cast<double>(session.node(sink).mem().memcpy_bytes) /
      result.bulk_bytes;
  layer["fwd.pool_buffers"] = static_cast<double>(vc.pool().total_buffers());
  layer["fwd.pool_recycles_per_pkt"] = forwarded > 0 ? recycles / forwarded : 0;
  double spread = 0.0;
  for (std::size_t b = 0; b < vc.boundary_count(); ++b) {
    double max = 0.0;
    double sum = 0.0;
    for (std::uint32_t g : vc.boundary_gateways(b)) {
      const auto n = static_cast<double>(vc.gateway_forwarded(g));
      max = std::max(max, n);
      sum += n;
    }
    const double mean = sum / static_cast<double>(vc.boundary_gateways(b).size());
    if (mean > 0) spread = std::max(spread, max / mean);
  }
  layer["fwd.gw_spread"] = spread;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double bytes : window_bytes) {
    sum += bytes;
    sum_sq += bytes * bytes;
  }
  layer["fwd.jain_fairness"] =
      sum_sq > 0 ? sum * sum / (static_cast<double>(kBulkFlows) * sum_sq) : 0;
  const mad::TrafficStats stats = vc.stats();
  double cwnd = 0.0;
  double srtt = 0.0;
  double hwm = 0.0;
  for (const auto& [name, flow] : stats.flows) {
    cwnd += flow.cwnd;
    srtt += flow.srtt_us;
    hwm = std::max(hwm, static_cast<double>(flow.queue_depth_hwm));
  }
  const double flows = static_cast<double>(std::max<std::size_t>(1, stats.flows.size()));
  layer["mad.cwnd_mean"] = cwnd / flows;
  layer["mad.srtt_us_mean"] = srtt / flows;
  layer["fwd.flow_queue_hwm_max"] = hwm;
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
