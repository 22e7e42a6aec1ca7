// perfbench: the repository benchmark. One invocation runs one workload
// with one seed, in this single-threaded process:
//
//   perfbench --workload rpc|forward|incast --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--commit ID] [--source-digest HEX]
//             [--plant-corruption] [--list-metrics]
//
// --trace 0 repeats fresh rounds of the workload for S host seconds and
// reports the end-to-end metrics: library metrics from virtual time
// (identical in every round, which is checked) and host metrics over the
// rounds (the 10th percentile of the warm rounds' op rates, the median
// set-up time). --trace 1 alternates untraced and traced
// rounds, runs the layer ladder, writes a Perfetto trace and reports the
// per-layer metrics. The last stdout line is the JSON result; a fuller
// record (environment stamp, every metric, checks) goes to --out-dir.
// Exit status 0 iff every op was checked correct and every determinism
// check held. README.md documents the metric catalog.
#include <sys/personality.h>
#include <sys/stat.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics (--trace 0), in BENCHMARK.json order.
const std::vector<MetricDef> kEndToEnd = {
    {"lat_p50_us", "us"},   {"lat_p99_us", "us"},  {"bw_mbs", "MB/s"},
    {"host_ops_per_s", "1/s"}, {"peak_rss_mb", "MB"}, {"setup_s", "s"},
};

// Per-layer metrics (--trace 1), in BENCHMARK.json order.
std::vector<MetricDef> per_layer_catalog() {
  std::vector<MetricDef> defs = {
      {"sim.run_wall_s", "s"},
      {"sim.user_s", "s"},
      {"sim.sys_s", "s"},
      {"sim.minflt", "count"},
      {"sim.live_fibers_max", "count"},
      {"sim.virtual_s", "s"},
      {"sim.host_s_per_virtual_s", "s/s"},
      {"setup.session_s", "s"},
      {"setup.vchannel_s", "s"},
      {"setup.spawn_s", "s"},
      {"pm2.overhead_us", "us"},
      {"pm2.service_fibers", "count"},
      {"mad.overhead_us", "us"},
      {"mad.pack_vus.p50", "us"},
      {"mad.unpack_wait_vus.p50", "us"},
      {"mad.switch_ticks_per_msg", "ticks/msg"},
      {"mad.fast_select_frac", "fraction"},
  };
  static std::vector<std::string> tm_names;
  if (tm_names.empty()) {
    for (const std::string& tm : catalog_tms()) {
      tm_names.push_back("mad.tm." + tm + ".blocks");
      tm_names.push_back("mad.tm." + tm + ".bytes");
    }
  }
  for (std::size_t i = 0; i < tm_names.size(); ++i) {
    defs.push_back({tm_names[i].c_str(), i % 2 == 0 ? "count" : "B"});
  }
  const std::vector<MetricDef> rest = {
      {"mad.cwnd_mean", "pkts"},
      {"mad.srtt_us_mean", "us"},
      {"mad.progress.flushes_per_tick", "ratio"},
      {"net.raw_lat_us", "us"},
      {"net.raw_bw_mbs", "MB/s"},
      {"net.retransmits", "count"},
      {"net.dup_drops", "count"},
      {"hw.pci_busy_frac.gw", "fraction"},
      {"hw.copies_per_byte.src", "B/B"},
      {"hw.copies_per_byte.gw", "B/B"},
      {"hw.copies_per_byte.dst", "B/B"},
      {"hw.allocs_steady", "count"},
      {"fwd.send_vus.p50", "us"},
      {"fwd.gw_queue_depth_max", "pkts"},
      {"fwd.flow_queue_hwm_max", "pkts"},
      {"fwd.gw_spread", "ratio"},
      {"fwd.jain_fairness", "ratio"},
      {"fwd.pool_buffers", "count"},
      {"fwd.pool_recycles_per_pkt", "ratio"},
      {"fwd.replays", "count"},
      {"fwd.dup_drops", "count"},
      {"fwd.discarded", "count"},
      {"obs.trace_overhead_frac", "fraction"},
      {"incast.gen_late_us.max", "us"},
  };
  defs.insert(defs.end(), rest.begin(), rest.end());
  return defs;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out_dir = ".";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  bool plant_corruption = false;
  bool list_metrics = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload rpc|forward|incast "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR] "
               "[--commit ID] [--source-digest HEX] [--plant-corruption] "
               "[--list-metrics]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) try {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--trace") {
      o.trace = std::stoi(value());
    } else if (arg == "--out-dir") {
      o.out_dir = value();
    } else if (arg == "--commit") {
      o.commit = value();
    } else if (arg == "--source-digest") {
      o.source_digest = value();
    } else if (arg == "--plant-corruption") {
      o.plant_corruption = true;
    } else if (arg == "--list-metrics") {
      o.list_metrics = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (o.list_metrics) return o;
  if (o.workload != "rpc" && o.workload != "forward" && o.workload != "incast") {
    usage("--workload must be rpc, forward or incast");
  }
  if (o.trace != 0 && o.trace != 1) usage("--trace must be 0 or 1");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
} catch (const std::logic_error&) {  // std::stoull and friends
  usage("malformed number");
}

constexpr bool kHostMetricsValid =
#if defined(__OPTIMIZE__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
    true;
#else
    false;
#endif

double median(std::vector<double> v) {
  SampleSet s;
  for (double x : v) s.add(x);
  return s.median();
}

/// Upper bound on the rounds of one run; the per-round vectors are
/// reserved to it up front so that they never move during the run.
constexpr std::size_t kMaxRounds = 1 << 14;

/// The host values of one untraced round, for the per-layer medians.
struct HostSample {
  double run_wall_s;
  double user_s;
  double sys_s;
  double session_s;
  double vchannel_s;
  double spawn_s;
};

HostSample host_sample(const RoundResult& r) {
  return {r.run_wall_s,       r.run_usage.user_s, r.run_usage.sys_s,
          r.setup_session_s, r.setup_vchannel_s, r.setup_spawn_s};
}

/// Library outputs of a round that must repeat exactly for one seed.
bool same_library_outputs(const RoundResult& a, const RoundResult& b) {
  return a.latency_us.samples() == b.latency_us.samples() &&
         a.bulk_bytes == b.bulk_bytes && a.bulk_virtual_s == b.bulk_virtual_s &&
         a.failed == b.failed && a.draw_digest == b.draw_digest;
}

/// Per-layer values that come from virtual time or library counters, and
/// so must be equal between a traced and an untraced round.
bool same_virtual_layer(const RoundResult& a, const RoundResult& b) {
  for (const auto& [name, value] : a.layer) {
    if (name == "sim.live_fibers_max" || name == "fwd.gw_queue_depth_max" ||
        name == "fwd.send_vus.p50") {
      continue;  // sampled or span-derived: traced rounds only
    }
    auto it = b.layer.find(name);
    if (it == b.layer.end() || it->second != value) return false;
  }
  return true;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<std::pair<MetricDef, double>> metrics;  // the JSON line
  std::vector<std::pair<std::string, std::string>> info;  // record only
};

void print_metrics(const Report& report) {
  for (const auto& [def, value] : report.metrics) {
    std::printf("  %-32s %16.6f %s\n", def.name, value, def.unit);
  }
}

std::string metrics_json(const Report& report) {
  std::string out = "{";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& [def, value] = report.metrics[i];
    out += (i ? ", " : "") + json_string(def.name) +
           ": {\"value\": " + json_number(value) +
           ", \"unit\": " + json_string(def.unit) + "}";
  }
  return out + "}";
}

void write_record(const Options& o, const Report& report) {
  mkdir(o.out_dir.c_str(), 0755);
  const std::string path = o.out_dir + "/" + o.workload + "-s" +
                           std::to_string(o.seed) + "-t" +
                           std::to_string(o.trace) + ".json";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu,\n",
               report.correct ? "true" : "false",
               static_cast<unsigned long long>(report.attempted),
               static_cast<unsigned long long>(report.failed));
  std::fprintf(f, " \"info\": {");
  for (std::size_t i = 0; i < report.info.size(); ++i) {
    std::fprintf(f, "%s\n  %s: %s", i ? "," : "",
                 json_string(report.info[i].first).c_str(),
                 report.info[i].second.c_str());
  }
  std::fprintf(f, "},\n \"problems\": [");
  for (std::size_t i = 0; i < report.problems.size(); ++i) {
    std::fprintf(f, "%s%s", i ? ", " : "",
                 json_string(report.problems[i]).c_str());
  }
  std::fprintf(f, "],\n \"metrics\": %s}\n", metrics_json(report).c_str());
  std::fclose(f);
  std::printf("record: %s\n", path.c_str());
}

RoundResult run_round(const std::string& workload, const RoundConfig& config) {
  if (workload == "rpc") return run_rpc(config);
  if (workload == "forward") return run_forward(config);
  return run_incast(config);
}

/// Library outputs of the reference round, for the record.
void add_library_info(const RoundResult& r, Report* report) {
  report->info.emplace_back("lib.lat_p50_us",
                            json_number(r.latency_us.quantile(0.5)));
  report->info.emplace_back("lib.lat_p99_us",
                            json_number(r.latency_us.quantile(0.99)));
  report->info.emplace_back("lib.bw_mbs", json_number(r.bw_mbs()));
  report->info.emplace_back("lib.latency_samples",
                            std::to_string(r.latency_us.count()));
  report->info.emplace_back("lib.error_rate",
                            json_number(static_cast<double>(r.failed) /
                                        static_cast<double>(r.attempted)));
  char digest[32];
  std::snprintf(digest, sizeof digest, "\"%016llx\"",
                static_cast<unsigned long long>(r.draw_digest));
  report->info.emplace_back("draw_digest", digest);
}

void check_ops(const RoundResult& r, Report* report) {
  report->attempted = r.attempted;
  report->failed = r.failed;
  if (r.failed != 0) {
    report->correct = false;
    report->problems.push_back(std::to_string(r.failed) +
                               " op(s) failed; first: " + r.first_failure);
  }
}

// --- --trace 0: end-to-end metrics --------------------------------------

void run_untraced(const Options& o, Report* report) {
  RoundConfig config;
  config.seed = o.seed;
  config.plant_corruption = o.plant_corruption;
  // Only round 0 is kept whole: results retained round after round grew
  // the heap, and each time glibc trimmed or regrew it the set-up time of
  // later rounds doubled for dozens of rounds. The per-round host values
  // live in vectors reserved up front.
  std::vector<double> rates;
  std::vector<double> setup;
  rates.reserve(kMaxRounds);
  setup.reserve(kMaxRounds);
  const double t0 = host_now_s();
  const RoundResult ref = run_round(o.workload, config);
  rates.push_back(static_cast<double>(ref.ops_completed) / ref.run_wall_s);
  setup.push_back(ref.setup_s());
  while (rates.size() < 3 ||
         (host_now_s() - t0 < o.seconds && rates.size() < kMaxRounds)) {
    const RoundResult r = run_round(o.workload, config);
    if (!same_library_outputs(ref, r)) {
      report->correct = false;
      report->problems.push_back(
          "determinism: library outputs differ between rounds of one seed");
    }
    rates.push_back(static_cast<double>(r.ops_completed) / r.run_wall_s);
    setup.push_back(r.setup_s());
  }
  check_ops(ref, report);
  // Round 0 is the warm-up: the first session of a process faults its
  // heap in and runs at about half speed.
  SampleSet ops_per_s;
  for (std::size_t i = 1; i < rates.size(); ++i) ops_per_s.add(rates[i]);
  std::string rates_json = "[";
  std::string setup_json = "[";
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const char* sep = i + 1 < rates.size() ? ", " : "]";
    rates_json += json_number(rates[i]) + sep;
    setup_json += json_number(setup[i]) + sep;
  }
  report->info.emplace_back("host.ops_per_s_rounds", rates_json);
  report->info.emplace_back("host.setup_s_rounds", setup_json);
  report->info.emplace_back("host.ops_per_s_median",
                            json_number(ops_per_s.median()));
  const double p99_beyond =
      static_cast<double>(ref.latency_us.count()) * 0.01;
  std::printf("rounds: %zu; latency samples: %zu (%.0f beyond p99); ops per "
              "round: %llu\n",
              rates.size(), ref.latency_us.count(), std::floor(p99_beyond),
              static_cast<unsigned long long>(ref.ops_completed));
  std::printf("  error_rate = %.6g (%llu failed / %llu attempted)\n",
              static_cast<double>(ref.failed) /
                  static_cast<double>(ref.attempted),
              static_cast<unsigned long long>(ref.failed),
              static_cast<unsigned long long>(ref.attempted));
  // host_ops_per_s is the 10th percentile of the warm rounds' rates. On
  // a shared host the speed of the same code drifts over seconds to
  // minutes between a usual state and phases up to 35% faster. How much
  // of a run is fast varies from run to run and swung the fastest round,
  // the median round and the mean alike by 10-20% between runs; the 10th
  // percentile reads the usual state unless nine tenths of a run are
  // fast, and skips the odd preempted round.
  const double values[] = {ref.latency_us.quantile(0.5),
                           ref.latency_us.quantile(0.99),
                           ref.bw_mbs(),
                           ops_per_s.quantile(0.1),
                           rusage_now().maxrss_mb,
                           median(setup)};
  for (std::size_t i = 0; i < kEndToEnd.size(); ++i) {
    report->metrics.emplace_back(kEndToEnd[i], values[i]);
  }
  add_library_info(ref, report);
  report->info.emplace_back("rounds", std::to_string(rates.size()));
}

// --- --trace 1: per-layer metrics ---------------------------------------

void run_traced(const Options& o, Report* report) {
  RoundConfig plain;
  plain.seed = o.seed;
  plain.plant_corruption = o.plant_corruption;
  RoundConfig traced = plain;
  traced.traced = true;

  // As in run_untraced, only the first rounds are kept whole.
  const double t0 = host_now_s();
  const RoundResult ref = run_round(o.workload, plain);
  RoundResult first_traced = run_round(o.workload, traced);
  bool agree = same_library_outputs(ref, first_traced) &&
               same_virtual_layer(ref, first_traced);
  std::vector<HostSample> untraced;
  std::vector<double> traced_wall;
  untraced.reserve(kMaxRounds);
  traced_wall.reserve(kMaxRounds);
  untraced.push_back(host_sample(ref));
  traced_wall.push_back(first_traced.run_wall_s);
  while (untraced.size() < 2 ||
         (host_now_s() - t0 < o.seconds && untraced.size() < kMaxRounds)) {
    const RoundResult u = run_round(o.workload, plain);
    const RoundResult t = run_round(o.workload, traced);
    untraced.push_back(host_sample(u));
    traced_wall.push_back(t.run_wall_s);
    agree = agree && same_library_outputs(ref, u) &&
            same_library_outputs(ref, t) && same_virtual_layer(ref, t);
  }
  if (!agree) {
    report->correct = false;
    report->problems.push_back(
        "determinism: traced and untraced rounds disagree in virtual time");
  }

  check_ops(ref, report);
  std::map<std::string, double> layer = first_traced.layer;

  // sim.* and setup.*: medians over the untraced rounds.
  auto med = [&](double HostSample::*field) {
    std::vector<double> v;
    for (const HostSample& h : untraced) v.push_back(h.*field);
    return median(v);
  };
  layer["sim.run_wall_s"] = med(&HostSample::run_wall_s);
  layer["sim.user_s"] = med(&HostSample::user_s);
  layer["sim.sys_s"] = med(&HostSample::sys_s);
  // With the grow-only heap a warm round takes almost no page faults, so
  // sim.minflt is round 0's: the pages the first session touches.
  layer["sim.minflt"] = ref.minflt;
  layer["sim.virtual_s"] = ref.virtual_s;
  layer["sim.host_s_per_virtual_s"] = layer["sim.run_wall_s"] / ref.virtual_s;
  layer["setup.session_s"] = med(&HostSample::session_s);
  layer["setup.vchannel_s"] = med(&HostSample::vchannel_s);
  layer["setup.spawn_s"] = med(&HostSample::spawn_s);
  layer["obs.trace_overhead_frac"] =
      median(traced_wall) / med(&HostSample::run_wall_s) - 1.0;

  // The layer ladder at this workload's small-message sizes.
  Tracer& tracer = *first_traced.tracer;
  const LadderResult ladder = run_ladder(ref.small_sizes, o.seed, &tracer);
  layer["pm2.overhead_us"] =
      ladder.pm2_rtt_p50_us - 2.0 * ladder.mad_one_way_p50_us;
  layer["mad.overhead_us"] =
      ladder.mad_one_way_p50_us - ladder.raw_one_way_p50_us;
  layer["mad.pack_vus.p50"] = ladder.mad_pack_p50_us;
  layer["mad.unpack_wait_vus.p50"] = ladder.mad_unpack_wait_p50_us;
  layer["net.raw_lat_us"] = ladder.raw_one_way_p50_us;
  layer["net.raw_bw_mbs"] = ladder.raw_bw_mbs;

  std::printf("layer ladder over BIP/Myrinet at the workload's %zu small "
              "sizes (p50, virtual us):\n"
              "  pm2 echo round trip     %10.3f\n"
              "  mad one-way             %10.3f   x2 = %.3f -> pm2 overhead "
              "%.3f per round trip\n"
              "  raw BIP one-way         %10.3f   -> mad overhead %.3f "
              "(paper Fig. 5: about +2 us)\n",
              ref.small_sizes.size(), ladder.pm2_rtt_p50_us,
              ladder.mad_one_way_p50_us, 2 * ladder.mad_one_way_p50_us,
              layer["pm2.overhead_us"], ladder.raw_one_way_p50_us,
              layer["mad.overhead_us"]);

  // Cross-check against the Fig. 5 harness at 4 B.
  const double harness_mad = bench::mad_one_way_us(mad::NetworkKind::kBip, 4);
  const double harness_raw = bench::raw_bip_sweep({4}).points.front().latency_us;
  const double dev_mad = std::fabs(ladder.mad_4b_us / harness_mad - 1.0);
  const double dev_raw = std::fabs(ladder.raw_4b_us / harness_raw - 1.0);
  std::printf("fig5 cross-check at 4 B: ladder mad %.3f vs harness %.3f "
              "(%.2f%%), ladder raw %.3f vs harness %.3f (%.2f%%)\n",
              ladder.mad_4b_us, harness_mad, 100 * dev_mad, ladder.raw_4b_us,
              harness_raw, 100 * dev_raw);
  report->info.emplace_back("xcheck.fig5_mad_4b_dev", json_number(dev_mad));
  report->info.emplace_back("xcheck.fig5_raw_4b_dev", json_number(dev_raw));
  if (o.workload == "forward") {
    const double harness_bw =
        bench::forwarding_sweep(mad::NetworkKind::kSisci,
                                mad::NetworkKind::kBip, 16 * 1024,
                                {1024 * 1024})
            .front()
            .bandwidth_mbs;
    std::printf("fig10 cross-check: phase B %.3f MB/s vs harness %.3f MB/s "
                "(%.2f%%)\n",
                ref.bw_mbs(), harness_bw,
                100 * std::fabs(ref.bw_mbs() / harness_bw - 1.0));
    report->info.emplace_back("xcheck.fig10_harness_mbs",
                              json_number(harness_bw));
  }

  std::printf("spans (virtual time; host time of blocking spans includes "
              "other fibers):\n%s",
              tracer.summary().c_str());
  mkdir(o.out_dir.c_str(), 0755);
  const std::string trace_path = o.out_dir + "/trace-" + o.workload + "-s" +
                                 std::to_string(o.seed) + ".json";
  if (tracer.write_chrome_json(trace_path, o.workload)) {
    std::printf("perfetto trace: %s\n", trace_path.c_str());
    report->info.emplace_back("trace_file", json_string(trace_path));
  }

  for (const MetricDef& def : per_layer_catalog()) {
    auto it = layer.find(def.name);
    report->metrics.emplace_back(def, it == layer.end() ? 0.0 : it->second);
  }
  add_library_info(ref, report);
  report->info.emplace_back("rounds", std::to_string(untraced.size()));
  for (const auto& [name, value] : layer) {
    report->info.emplace_back("layer." + name, json_number(value));
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options o = parse(argc, argv);
  if (o.list_metrics) {
    for (const MetricDef& def : kEndToEnd) {
      std::printf("end_to_end %s %s\n", def.name, def.unit);
    }
    for (const MetricDef& def : per_layer_catalog()) {
      std::printf("per_layer %s %s\n", def.name, def.unit);
    }
    return 0;
  }
  // A heap that only grows. With glibc's defaults the heap was trimmed
  // and regrown every few rounds at no fixed interval: such a round took
  // 24k page faults (rpc) and ran a quarter slower, and the share of those
  // rounds moved host_ops_per_s by about 10% between runs and set-up time
  // by 2-3x within one. Allocations up to 32 MiB (every fiber stack and
  // payload) now come from the heap and freed memory stays in it, so
  // after round 0 a round takes almost no page faults.
  mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace);
  const int persona = personality(0xffffffff);
  const bool aslr = persona == -1 || (persona & ADDR_NO_RANDOMIZE) == 0;
  std::printf("env: build_type=%s compiler=%s nproc=%ld commit=%s "
              "source_digest=%s aslr=%s host_metrics_valid=%s\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, nproc,
              o.commit.c_str(), o.source_digest.c_str(), aslr ? "on" : "off",
              kHostMetricsValid ? "yes" : "NO (unoptimized or sanitizer build)");

  Report report;
  report.info = {{"workload", json_string(o.workload)},
                 {"seed", std::to_string(o.seed)},
                 {"seconds", json_number(o.seconds)},
                 {"trace", std::to_string(o.trace)},
                 {"build_type", json_string(PERFBENCH_BUILD_TYPE)},
                 {"compiler", json_string(PERFBENCH_COMPILER)},
                 {"nproc", std::to_string(nproc)},
                 {"commit", json_string(o.commit)},
                 {"source_digest", json_string(o.source_digest)},
                 {"aslr", aslr ? "true" : "false"},
                 {"host_metrics_valid", kHostMetricsValid ? "true" : "false"}};
  if (o.trace == 0) {
    run_untraced(o, &report);
  } else {
    run_traced(o, &report);
  }
  print_metrics(report);
  for (const std::string& problem : report.problems) {
    std::printf("PROBLEM: %s\n", problem.c_str());
  }
  write_record(o, report);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              metrics_json(report).c_str());
  return report.correct ? 0 : 1;
}
