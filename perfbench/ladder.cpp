// The layer ladder: one small-message round trip measured three times
// over BIP/Myrinet, each rung one layer lower — a pm2 echo call, a bare
// Madeleine ping-pong, a raw BIP port ping-pong — at the same sizes. The
// difference between rungs is the cost of the layer in between: pm2 over
// mad, and mad over raw BIP (the paper's Fig. 5 "+2 us").
#include <numeric>
#include <string>

#include "mad/madeleine.hpp"
#include "net/bip.hpp"
#include "pm2/pm2.hpp"
#include "util/bytes.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

mad::SessionConfig two_node_bip() {
  mad::SessionConfig config;
  config.node_count = 2;
  mad::NetworkDef net;
  net.name = "myrinet";
  net.kind = mad::NetworkKind::kBip;
  net.nodes = {0, 1};
  config.networks.push_back(net);
  config.channels.emplace_back("ch", "myrinet");
  return config;
}

/// pm2 rung: node 1 calls an echo service on node 0; RTT per call.
SampleSet pm2_rung(const std::vector<std::size_t>& sizes, std::uint64_t seed,
                   Tracer* tracer) {
  mad::Session session(two_node_bip());
  pm2::Pm2World world(session, "ch");
  if (tracer != nullptr) tracer->attach(&session.simulator(), "ladder.pm2");
  world.node(0).register_service(
      1, [](std::uint32_t, std::span<const std::byte> request) {
        return std::vector<std::byte>(request.begin(), request.end());
      });
  SampleSet rtt;
  bool intact = true;
  session.spawn(1, "client", [&](mad::NodeRuntime& rt) {
    std::vector<std::byte> request;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      request.resize(sizes[i]);
      fill_pattern(request, flow_seed(seed, 1, i));
      const sim::Time t0 = rt.simulator().now();
      std::vector<std::byte> reply;
      {
        ScopedSpan span(tracer, "ladder.pm2.rpc", i, /*op_root=*/true);
        reply = world.node(1).rpc(0, 1, request);
      }
      rtt.add(sim::to_us(rt.simulator().now() - t0));
      intact = intact && reply == request;
    }
  });
  MAD2_CHECK(session.run().is_ok() && intact, "ladder pm2 rung failed");
  return rtt;
}

struct MadRung {
  SampleSet one_way;
  SampleSet pack;
  SampleSet unpack_wait;
};

/// mad rung: ping-pong of one CHEAPER block per message (the Fig. 5
/// harness's shape); one-way = RTT / 2.
MadRung mad_rung(const std::vector<std::size_t>& sizes, std::uint64_t seed,
                 Tracer* tracer) {
  mad::Session session(two_node_bip());
  if (tracer != nullptr) tracer->attach(&session.simulator(), "ladder.mad");
  MadRung out;
  bool intact = true;
  auto send = [&](mad::NodeRuntime& rt, std::uint32_t to,
                  std::span<const std::byte> data, std::uint64_t op) {
    const sim::Time t0 = rt.simulator().now();
    ScopedSpan span(tracer, "ladder.mad.pack", op);
    auto& conn = rt.channel("ch").begin_packing(to);
    conn.pack(data);
    conn.end_packing();
    out.pack.add(sim::to_us(rt.simulator().now() - t0));
  };
  auto receive = [&](mad::NodeRuntime& rt, std::span<std::byte> data,
                     std::uint64_t op) {
    const sim::Time t0 = rt.simulator().now();
    mad::Connection* conn = nullptr;
    {
      ScopedSpan span(tracer, "ladder.mad.unpack_wait", op);
      conn = &rt.channel("ch").begin_unpacking();
    }
    out.unpack_wait.add(sim::to_us(rt.simulator().now() - t0));
    ScopedSpan span(tracer, "ladder.mad.unpack", op);
    conn->unpack(data);
    conn->end_unpacking();
  };
  session.spawn(0, "ping", [&](mad::NodeRuntime& rt) {
    std::vector<std::byte> payload;
    std::vector<std::byte> back;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      payload.resize(sizes[i]);
      back.resize(sizes[i]);
      fill_pattern(payload, flow_seed(seed, 0, i));
      const sim::Time t0 = rt.simulator().now();
      {
        ScopedSpan span(tracer, "ladder.mad.round_trip", i, /*op_root=*/true);
        send(rt, 1, payload, i);
        receive(rt, back, i);
      }
      out.one_way.add(sim::to_us(rt.simulator().now() - t0) / 2.0);
      intact = intact && back == payload;
    }
  });
  session.spawn(1, "pong", [&](mad::NodeRuntime& rt) {
    std::vector<std::byte> data;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      data.resize(sizes[i]);
      receive(rt, data, i);
      send(rt, 0, data, i);
    }
  });
  MAD2_CHECK(session.run().is_ok() && intact, "ladder mad rung failed");
  return out;
}

/// raw rung: BIP port ping-pong, short path up to short_max, else the
/// long path with a ready handshake (bench::raw_bip_sweep's protocol).
SampleSet raw_rung(const std::vector<std::size_t>& sizes, Tracer* tracer) {
  sim::Simulator simulator;
  if (tracer != nullptr) tracer->attach(&simulator, "ladder.raw");
  std::vector<std::unique_ptr<hw::Node>> nodes;
  for (const char* name : {"n0", "n1"}) {
    nodes.push_back(std::make_unique<hw::Node>(
        &simulator, nodes.size(), name, hw::HostParams::pentium_ii_450()));
  }
  net::BipNetwork network(&simulator, {nodes[0].get(), nodes[1].get()},
                          net::BipParams::myrinet_lanai43());
  const std::uint32_t short_max = network.params().short_max_bytes;
  SampleSet one_way;
  for (std::uint32_t me = 0; me < 2; ++me) {
    simulator.spawn(me == 0 ? "ping" : "pong", [&, me] {
      const std::uint32_t other = 1 - me;
      net::BipPort& port = network.port(me);
      std::vector<std::byte> payload;
      std::vector<std::byte> incoming;
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        const std::size_t size = sizes[i];
        payload.assign(size, std::byte{1});
        incoming.resize(size);
        auto do_send = [&] {
          ScopedSpan span(tracer, "ladder.raw.send", i);
          if (size <= short_max) {
            port.send_short(other, 0, payload);
          } else {
            std::vector<std::byte> ready(1);
            port.recv_short_copy(1, ready);
            port.send_long(other, 0, payload);
          }
        };
        auto do_recv = [&] {
          ScopedSpan span(tracer, "ladder.raw.recv", i);
          if (size <= short_max) {
            port.recv_short_copy(0, incoming);
          } else {
            port.post_recv_long(other, 0, incoming);
            std::vector<std::byte> ready{std::byte{1}};
            port.send_short(other, 1, ready);
            port.wait_recv_long(other, 0);
          }
        };
        if (me == 0) {
          const sim::Time t0 = simulator.now();
          ScopedSpan span(tracer, "ladder.raw.round_trip", i, /*op_root=*/true);
          do_send();
          do_recv();
          one_way.add(sim::to_us(simulator.now() - t0) / 2.0);
        } else {
          do_recv();
          do_send();
        }
      }
    });
  }
  MAD2_CHECK(simulator.run().is_ok(), "ladder raw rung failed");
  return one_way;
}

double mean(const SampleSet& samples) {
  const auto& v = samples.samples();
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

}  // namespace

LadderResult run_ladder(const std::vector<std::size_t>& sizes,
                        std::uint64_t seed, Tracer* tracer) {
  LadderResult result;
  result.pm2_rtt_p50_us = pm2_rung(sizes, seed, tracer).median();
  const MadRung mad = mad_rung(sizes, seed, tracer);
  result.mad_one_way_p50_us = mad.one_way.median();
  result.mad_pack_p50_us = mad.pack.median();
  result.mad_unpack_wait_p50_us = mad.unpack_wait.median();
  result.raw_one_way_p50_us = raw_rung(sizes, tracer).median();
  constexpr std::size_t kBulk = 256 * 1024;
  result.raw_bw_mbs =
      static_cast<double>(kBulk) / raw_rung({kBulk, kBulk, kBulk, kBulk}, nullptr)
                                       .median();
  // The Fig. 5 harness's 4 B point: 20 round trips, mean one-way time.
  const std::vector<std::size_t> four(20, 4);
  result.mad_4b_us = mean(mad_rung(four, seed, nullptr).one_way);
  result.raw_4b_us = mean(raw_rung(four, nullptr));
  return result;
}

}  // namespace perfbench
