// The benchmark's workloads and the layer ladder. Each workload round
// builds a fresh session from the seed, runs it to completion, checks
// every delivered payload, and reports library (virtual-time) and host
// figures. README.md says what each one stresses and why it was chosen.
#pragma once

#include <cstddef>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// PM2 LRPC over BIP/Myrinet: 1 server, 3 closed-loop clients.
RoundResult run_rpc(const RoundConfig& config);

/// SISCI -> gateway -> BIP over one virtual channel (paper Fig. 10 path):
/// phase A request/response, phase B 1 MiB stream.
RoundResult run_forward(const RoundConfig& config);

/// 64-node fat tree over gigabit TCP: 28 bulk flows plus an open-loop
/// probe into one sink.
RoundResult run_incast(const RoundConfig& config);

/// One rung-by-rung decomposition of a small-message round trip over
/// BIP/Myrinet, at the sizes of a workload's draw.
struct LadderResult {
  double pm2_rtt_p50_us = 0.0;  ///< pm2 echo call, call to reply
  double mad_one_way_p50_us = 0.0;
  double raw_one_way_p50_us = 0.0;
  double raw_bw_mbs = 0.0;       ///< raw BIP at the rpc bulk size
  double mad_pack_p50_us = 0.0;  ///< begin_packing -> end_packing
  double mad_unpack_wait_p50_us = 0.0;  ///< blocked in begin_unpacking
  /// The 4 B points, for the cross-check against the Fig. 5 harness.
  double mad_4b_us = 0.0;
  double raw_4b_us = 0.0;
};

/// Runs the three rungs (pm2, bare mad, raw BIP ports) on `sizes`,
/// recording spans into `tracer` when it is non-null.
LadderResult run_ladder(const std::vector<std::size_t>& sizes,
                        std::uint64_t seed, Tracer* tracer);

}  // namespace perfbench
