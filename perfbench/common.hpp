// Shared plumbing of the repository benchmark: host clocks and rusage,
// the bench-side span tracer, per-round results, and the helpers every
// workload uses to draw inputs, check payloads and read the library's
// public counters. See README.md for the metric catalog.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mad/session.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {

using namespace mad2;

// ------------------------------------------------------------ host clock --

/// Host steady clock, seconds.
double host_now_s();

struct Rusage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double minflt = 0.0;
  double maxrss_mb = 0.0;
};
Rusage rusage_now();

// ------------------------------------------------------------- tracing ---

/// Bench-side spans around calls into the library's public functions.
/// Each span carries both clocks: virtual (the simulator's now()) and
/// host (steady clock). Spans live in memory until write_chrome_json().
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    std::uint64_t op = 0;
    std::uint64_t track = 0;  // fiber id the span ran on
    sim::Time v_begin = 0;
    sim::Time v_end = 0;
    double h_begin = 0.0;
    double h_end = 0.0;
    std::size_t section = 0;
  };

  /// Read virtual time from `simulator` from now on; later spans belong to
  /// a new section (one Perfetto process pair each), since every session
  /// starts its clock at zero.
  void attach(sim::Simulator* simulator, std::string section);

  /// Open a span on the current fiber. Its parent is the innermost open
  /// span of this fiber. Failing that, an `op_root` span starts op `op`
  /// (the caller's side of a call); any other span nests under the open
  /// root of its op, so a request served on another fiber still nests
  /// under the call that caused it.
  int begin(const char* name, std::uint64_t op, bool op_root);
  void end(int id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Virtual-time durations (us) of every span named `name`.
  [[nodiscard]] SampleSet virtual_us(const std::string& name) const;

  /// Per-name summary table: count, virtual total/self, host inclusive.
  [[nodiscard]] std::string summary() const;

  /// Chrome trace JSON (opens in Perfetto): one process per clock.
  bool write_chrome_json(const std::string& path,
                         const std::string& label) const;

 private:
  [[nodiscard]] std::vector<double> self_virtual_us() const;

  sim::Simulator* simulator_ = nullptr;
  std::vector<std::string> sections_;
  std::vector<Span> spans_;
  std::unordered_map<std::uint64_t, std::vector<int>> open_;  // per fiber
  std::unordered_map<std::uint64_t, int> op_root_;
};

/// RAII span; a no-op when `tracer` is null (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t op,
             bool op_root = false)
      : tracer_(tracer), id_(tracer ? tracer->begin(name, op, op_root) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// -------------------------------------------------------------- rounds ---

/// What one round of a workload asks for.
struct RoundConfig {
  std::uint64_t seed = 1;
  /// Traced round: spans plus the sampler daemon.
  bool traced = false;
  /// Self-test: one op checks its payload against a wrong expectation.
  bool plant_corruption = false;
};

/// Outcome of one round: a fresh session set up, run and checked.
struct RoundResult {
  // --- library (virtual time, deterministic per seed) ---
  SampleSet latency_us;  ///< one sample per unit op (or per probe)
  double bulk_bytes = 0.0;
  double bulk_virtual_s = 0.0;
  double virtual_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;
  /// Digest of the seeded input draw (proves the seed reaches it).
  std::uint64_t draw_digest = 0;
  /// Small-message sizes of the draw, reused by the layer ladder.
  std::vector<std::size_t> small_sizes;
  /// Per-layer values taken from virtual time or counters.
  std::map<std::string, double> layer;
  /// The traced round's spans (null when untraced).
  std::unique_ptr<Tracer> tracer;

  // --- host ---
  double setup_session_s = 0.0;
  double setup_vchannel_s = 0.0;
  double setup_spawn_s = 0.0;
  double run_wall_s = 0.0;
  Rusage run_usage;  ///< delta across Session::run
  double minflt = 0.0;  ///< minor faults across set-up and run
  std::uint64_t ops_completed = 0;

  [[nodiscard]] double setup_s() const {
    return setup_session_s + setup_vchannel_s + setup_spawn_s;
  }
  [[nodiscard]] double bw_mbs() const {
    return bulk_virtual_s > 0 ? bulk_bytes / bulk_virtual_s / 1e6 : 0.0;
  }
};

/// Records a failed op once (by key) and keeps the first message.
class FailureLog {
 public:
  void fail(std::uint64_t op, const std::string& what);
  [[nodiscard]] std::size_t count() const { return ops_.size(); }
  [[nodiscard]] const std::string& first() const { return first_; }

 private:
  std::set<std::uint64_t> ops_;
  std::string first_;
};

/// Times the host-side phases of one round around the workload's own
/// set-up code: construct it before building the Session, then call
/// session_built(), vchannels_built() and finally run(), which times the
/// fiber spawning that came before it and the run itself.
class RoundTimer {
 public:
  explicit RoundTimer(RoundResult* result);
  void session_built();
  void vchannels_built();
  Status run(mad::Session& session);

 private:
  RoundResult* result_;
  double t0_;
  double t_last_;
  Rusage u0_;
};

/// Keeps sampling simulator-wide gauges while the workload runs (traced
/// rounds only); exits once `stop()` is called, or at virtual time
/// `limit` should the workload never finish.
class Sampler {
 public:
  Sampler(mad::Session& session, sim::Duration interval,
          std::function<void()> sample, sim::Time limit = sim::seconds(60));
  void stop() { stopped_ = true; }

 private:
  bool stopped_ = false;
};

// ------------------------------------------------------------- helpers ---

/// Pattern seed of message `k` of flow `src`: unique per (flow, message),
/// so a lost, duplicated or reordered delivery fails verify_pattern.
inline std::uint64_t flow_seed(std::uint64_t run_seed, std::uint32_t src,
                               std::uint64_t k) {
  return run_seed * 0x9e3779b97f4a7c15ULL + (std::uint64_t{src} << 40) + k +
         1;
}

/// The seeded payload patterns of one round, made before its timed phase
/// so that host time in the run is the library's, not the pattern
/// generator's: senders pack a pattern from the book and receivers compare
/// against it with memcmp. check() gives exactly verify_pattern's answer.
class PatternBook {
 public:
  /// Make the pattern of `seed` at least `bytes` long (patterns of one
  /// seed are prefixes of each other).
  void make(std::uint64_t seed, std::size_t bytes);

  /// The first `bytes` bytes of the pattern of `seed`; make() it first.
  [[nodiscard]] std::span<const std::byte> get(std::uint64_t seed,
                                               std::size_t bytes) const;

  /// A copy of the first `bytes` bytes of the pattern of `seed`, made on
  /// the spot if the book lacks it.
  [[nodiscard]] std::vector<std::byte> copy(std::uint64_t seed,
                                            std::size_t bytes) const;

  /// True iff `received` holds the pattern of `seed`.
  [[nodiscard]] bool check(std::span<const std::byte> received,
                           std::uint64_t seed) const;

 private:
  std::unordered_map<std::uint64_t, std::vector<std::byte>> patterns_;
};

/// `n` log-uniform integers in [lo, hi], one from each of n equal-
/// probability strata (so their distribution hardly varies with the seed),
/// in stratum order.
std::vector<std::size_t> stratified_log_uniform(Rng& rng, std::size_t n,
                                                std::size_t lo,
                                                std::size_t hi);

/// Seeded Fisher-Yates shuffle.
template <typename T>
void shuffle(Rng& rng, std::vector<T>& v) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_below(i)]);
  }
}

/// FNV-style running digest of drawn values.
inline std::uint64_t digest_mix(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 0x100000001b3ULL;
}

/// Flat counters of a finished session (Session::export_metrics).
obs::MetricsRegistry session_counters(mad::Session& session);

/// Sum of every counter whose name starts with `prefix` and ends with
/// `suffix`.
double sum_counters(const obs::MetricsRegistry& reg, const std::string& prefix,
                    const std::string& suffix);

/// The `mad.*` / `net.*` / `hw.allocs` per-layer values every workload
/// reports from the library's counters.
void add_library_counters(mad::Session& session, RoundResult* result);

/// TM names reported as mad.tm.<tm>.{blocks,bytes}, in catalog order.
const std::vector<std::string>& catalog_tms();

/// Sum of alloc_count over every node.
std::uint64_t total_allocs(mad::Session& session);

}  // namespace perfbench
