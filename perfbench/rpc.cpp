// Workload `rpc`: PM2 LRPC over BIP/Myrinet. Node 0 serves; nodes 1-3
// each make synchronous Pm2Node::rpc calls in a closed loop with a fixed
// think time, one call outstanding per client. The seeded mix is 90% echo
// (16-512 B log-uniform, same-size reply), 5% get (16 B request, 256 KiB
// reply) and 5% put (256 KiB request, 16 B reply).
//
// Every payload is a pattern seeded per (client, call): the server checks
// each request against the next call it expects from that client (so a
// lost, duplicated or reordered request fails), the client checks each
// reply. Payloads come from a PatternBook made before the timed phase.
// An op is one call, timed from call to reply.
#include <algorithm>
#include <string>

#include "pm2/pm2.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kServer = 0;
constexpr std::uint32_t kClients = 3;
constexpr std::size_t kCallsPerClient = 400;
constexpr std::size_t kBulkBytes = 256 * 1024;
constexpr std::size_t kSmallBytes = 16;
// Think time before each call. Without it the three clients keep the
// server saturated, about half the calls queue behind another client's,
// and the median lands on the step between served-at-once and queued
// calls, where it moves by a third from one seed to the next; at 5 ms
// the p99 still sits on the step between bulk calls that did and did not
// meet another client's 256 KiB transfer. At 20 ms a few calls per run
// still meet one, above the p99.
constexpr sim::Duration kThinkTime = sim::milliseconds(20);

enum Service : pm2::ServiceId { kEcho = 1, kGet = 2, kPut = 3 };

struct Call {
  Service service;
  std::size_t request_bytes;
  std::size_t reply_bytes;
};

/// The seeded call sequence of one client: 5% get, 5% put and 90% echo
/// calls in a seeded order. Echo sizes are drawn log-uniform in 16-512 B,
/// one from each of equal strata of the distribution, so the size mix is
/// the same for every seed and the seed moves the order and the jitter.
std::vector<Call> draw_calls(std::uint64_t seed, std::uint32_t client) {
  Rng rng(seed * 1000003ULL + client);
  constexpr std::size_t kBulkEach = kCallsPerClient / 20;
  constexpr std::size_t kEchoes = kCallsPerClient - 2 * kBulkEach;
  std::vector<Call> calls;
  for (std::size_t i = 0; i < kBulkEach; ++i) {
    calls.push_back({kGet, kSmallBytes, kBulkBytes});
    calls.push_back({kPut, kBulkBytes, kSmallBytes});
  }
  for (std::size_t size : stratified_log_uniform(rng, kEchoes, 16, 512)) {
    calls.push_back({kEcho, size, size});
  }
  shuffle(rng, calls);
  return calls;
}

std::uint64_t op_id(std::uint32_t client, std::size_t k) {
  return (std::uint64_t{client} << 32) | k;
}

/// Reply patterns use a seed of their own, distinct from the request's.
std::uint64_t reply_seed(std::uint64_t seed, std::uint32_t client,
                         std::size_t k) {
  return flow_seed(seed, client, k) ^ 0x5eedULL;
}

}  // namespace

RoundResult run_rpc(const RoundConfig& config) {
  RoundResult result;
  const std::uint64_t seed = config.seed;
  std::vector<std::vector<Call>> calls(kClients + 1);
  for (std::uint32_t c = 1; c <= kClients; ++c) {
    calls[c] = draw_calls(seed, c);
    for (const Call& call : calls[c]) {
      result.draw_digest = digest_mix(result.draw_digest,
                                      call.service * 100000 + call.request_bytes);
      if (call.service == kEcho) result.small_sizes.push_back(call.request_bytes);
    }
  }
  result.attempted = kClients * kCallsPerClient;
  PatternBook patterns;
  for (std::uint32_t c = 1; c <= kClients; ++c) {
    for (std::size_t k = 0; k < kCallsPerClient; ++k) {
      const Call& call = calls[c][k];
      patterns.make(flow_seed(seed, c, k), call.request_bytes);
      if (call.service != kEcho) {
        patterns.make(reply_seed(seed, c, k), call.reply_bytes);
      }
    }
  }

  RoundTimer timer(&result);
  mad::SessionConfig session_config;
  session_config.node_count = kClients + 1;
  mad::NetworkDef myrinet;
  myrinet.name = "myrinet";
  myrinet.kind = mad::NetworkKind::kBip;
  for (std::uint32_t n = 0; n <= kClients; ++n) myrinet.nodes.push_back(n);
  session_config.networks.push_back(myrinet);
  session_config.channels.emplace_back("pm2", "myrinet");
  mad::Session session(std::move(session_config));
  timer.session_built();
  pm2::Pm2World world(session, "pm2");
  timer.vchannels_built();

  if (config.traced) {
    result.tracer = std::make_unique<Tracer>();
    result.tracer->attach(&session.simulator(), "rpc");
  }
  Tracer* tracer = result.tracer.get();

  FailureLog failures;
  std::vector<std::size_t> next_expected(kClients + 1, 0);
  std::uint64_t service_fibers = 0;
  // The planted self-test corruption: client 1's 8th reply is checked
  // against the wrong pattern.
  const std::uint64_t planted = config.plant_corruption ? op_id(1, 7) : ~0ULL;

  // Server-side request check: the request must be the pattern of the
  // next call this client has not been served yet.
  auto accept = [&](std::uint32_t client, std::span<const std::byte> request,
                    Service service) -> std::size_t {
    ++service_fibers;
    if (client == kServer || client > kClients) {
      failures.fail(~0ULL, "request from unknown node");
      return 0;
    }
    const std::size_t k = next_expected[client]++;
    const bool in_range = k < kCallsPerClient;
    if (!in_range || calls[client][k].service != service ||
        !patterns.check(request, flow_seed(seed, client, k))) {
      failures.fail(op_id(client, k),
                    "server: request " + std::to_string(k) + " of client " +
                        std::to_string(client) +
                        " lost, duplicated, reordered or corrupt");
    }
    return k;
  };
  pm2::Pm2Node& server = world.node(kServer);
  server.register_service(kEcho, [&](std::uint32_t src,
                                     std::span<const std::byte> req) {
    const std::size_t k = accept(src, req, kEcho);
    ScopedSpan span(tracer, "pm2.service.echo", op_id(src, k));
    return std::vector<std::byte>(req.begin(), req.end());
  });
  server.register_service(kGet, [&](std::uint32_t src,
                                    std::span<const std::byte> req) {
    const std::size_t k = accept(src, req, kGet);
    ScopedSpan span(tracer, "pm2.service.get", op_id(src, k));
    return patterns.copy(reply_seed(seed, src, k), kBulkBytes);
  });
  server.register_service(kPut, [&](std::uint32_t src,
                                    std::span<const std::byte> req) {
    const std::size_t k = accept(src, req, kPut);
    ScopedSpan span(tracer, "pm2.service.put", op_id(src, k));
    return patterns.copy(reply_seed(seed, src, k), kSmallBytes);
  });

  std::uint32_t clients_done = 0;
  sim::Time last_reply = 0;
  std::uint64_t allocs_warm = 0;
  std::uint64_t ops_done = 0;
  SampleSet& latency = result.latency_us;
  std::unique_ptr<Sampler> sampler;
  double live_fibers_max = 0.0;
  if (config.traced) {
    sampler = std::make_unique<Sampler>(
        session, sim::microseconds(100), [&] {
          live_fibers_max =
              std::max(live_fibers_max,
                       static_cast<double>(
                           session.simulator().live_fiber_count()));
        });
  }

  for (std::uint32_t c = 1; c <= kClients; ++c) {
    session.spawn(c, "client" + std::to_string(c), [&, c](mad::NodeRuntime& rt) {
      pm2::Pm2Node& self = world.node(c);
      for (std::size_t k = 0; k < kCallsPerClient; ++k) {
        const Call& call = calls[c][k];
        rt.simulator().advance(kThinkTime);
        const std::span<const std::byte> request =
            patterns.get(flow_seed(seed, c, k), call.request_bytes);
        const sim::Time t0 = rt.simulator().now();
        std::vector<std::byte> reply;
        {
          ScopedSpan span(tracer, "pm2.rpc", op_id(c, k), /*op_root=*/true);
          reply = self.rpc(kServer, call.service, request);
        }
        const sim::Time t1 = rt.simulator().now();
        const bool echo = call.service == kEcho;
        const std::uint64_t expect =
            (echo ? flow_seed(seed, c, k) : reply_seed(seed, c, k)) ^
            (op_id(c, k) == planted ? 1 : 0);
        if (reply.size() != call.reply_bytes || !patterns.check(reply, expect)) {
          failures.fail(op_id(c, k), "client " + std::to_string(c) +
                                         ": reply " + std::to_string(k) +
                                         " corrupt");
        }
        latency.add(sim::to_us(t1 - t0));
        if (!echo) {
          result.bulk_bytes += static_cast<double>(kBulkBytes);
          result.bulk_virtual_s += sim::to_seconds(t1 - t0);
        }
        if (++ops_done == result.attempted / 10) {
          allocs_warm = total_allocs(session);
        }
      }
      last_reply = std::max(last_reply, rt.simulator().now());
      if (++clients_done == kClients && sampler) sampler->stop();
    });
  }

  const Status status = timer.run(session);
  result.ops_completed = ops_done;
  result.virtual_s = sim::to_seconds(last_reply);
  result.failed = status.is_ok() ? failures.count()
                                 : result.attempted - ops_done +
                                       failures.count();
  result.first_failure =
      status.is_ok() ? failures.first() : status.to_string();

  // Per-layer values (virtual time and counters).
  add_library_counters(session, &result);
  auto& layer = result.layer;
  layer["pm2.service_fibers"] = static_cast<double>(service_fibers);
  layer["sim.live_fibers_max"] = live_fibers_max;
  layer["hw.allocs_steady"] =
      static_cast<double>(total_allocs(session) - allocs_warm);
  double payload = 0.0;
  for (std::uint32_t c = 1; c <= kClients; ++c) {
    for (const Call& call : calls[c]) {
      payload += static_cast<double>(call.request_bytes + call.reply_bytes);
    }
  }
  double client_copies = 0.0;
  for (std::uint32_t c = 1; c <= kClients; ++c) {
    client_copies += static_cast<double>(session.node(c).mem().memcpy_bytes);
  }
  layer["hw.copies_per_byte.src"] = client_copies / payload;
  layer["hw.copies_per_byte.dst"] =
      static_cast<double>(session.node(kServer).mem().memcpy_bytes) / payload;
  return result;
}

}  // namespace perfbench
