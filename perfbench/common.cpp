#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "util/bytes.hpp"

namespace perfbench {

double host_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Rusage rusage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Rusage out;
  out.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
               static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  out.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  out.minflt = static_cast<double>(ru.ru_minflt);
  out.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
  return out;
}

// ------------------------------------------------------------- Tracer ---

void Tracer::attach(sim::Simulator* simulator, std::string section) {
  simulator_ = simulator;
  sections_.push_back(std::move(section));
  open_.clear();
  op_root_.clear();
}

int Tracer::begin(const char* name, std::uint64_t op, bool op_root) {
  const sim::Fiber* fiber = simulator_->current();
  const std::uint64_t track = fiber != nullptr ? fiber->id() : 0;
  std::vector<int>& stack = open_[track];
  const int id = static_cast<int>(spans_.size());
  int parent = -1;
  if (!stack.empty()) {
    parent = stack.back();
  } else if (op_root) {
    op_root_[op] = id;
  } else if (auto it = op_root_.find(op); it != op_root_.end()) {
    parent = it->second;
  }
  spans_.push_back(Span{name, parent, op, track, simulator_->now(), 0,
                        host_now_s(), 0.0, sections_.size() - 1});
  stack.push_back(id);
  return id;
}

void Tracer::end(int id) {
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.v_end = simulator_->now();
  span.h_end = host_now_s();
  std::vector<int>& stack = open_[span.track];
  if (!stack.empty() && stack.back() == id) stack.pop_back();
  if (auto it = op_root_.find(span.op); it != op_root_.end() && it->second == id) {
    op_root_.erase(it);
  }
}

SampleSet Tracer::virtual_us(const std::string& name) const {
  SampleSet out;
  for (const Span& span : spans_) {
    if (span.name == name) out.add(sim::to_us(span.v_end - span.v_begin));
  }
  return out;
}

// Self time: the span's interval minus the union of its children's
// intervals (clipped to the parent; children on other fibers count too).
std::vector<double> Tracer::self_virtual_us() const {
  std::vector<std::vector<std::pair<sim::Time, sim::Time>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.v_begin, span.v_end);
    }
  }
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    sim::Time covered = 0;
    sim::Time cursor = span.v_begin;
    for (auto [b, e] : kids) {
      b = std::max(b, cursor);
      e = std::min(e, span.v_end);
      if (e > b) {
        covered += e - b;
        cursor = e;
      }
    }
    self[i] = sim::to_us(span.v_end - span.v_begin - covered);
  }
  return self;
}

std::string Tracer::summary() const {
  struct Row {
    std::size_t count = 0;
    SampleSet total;
    SampleSet self;
    double host_s = 0.0;
  };
  std::map<std::string, Row> rows;
  const std::vector<double> self = self_virtual_us();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Row& row = rows[spans_[i].name];
    ++row.count;
    row.total.add(sim::to_us(spans_[i].v_end - spans_[i].v_begin));
    row.self.add(self[i]);
    row.host_s += spans_[i].h_end - spans_[i].h_begin;
  }
  std::string out =
      "span                       count  virt_p50_us  virt_self_p50_us  "
      "host_incl_blocked_s\n";
  char line[160];
  for (const auto& [name, row] : rows) {
    std::snprintf(line, sizeof line, "%-26s %6zu %12.3f %17.3f %20.6f\n",
                  name.c_str(), row.count, row.total.median(),
                  row.self.median(), row.host_s);
    out += line;
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path,
                               const std::string& label) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::vector<double> self = self_virtual_us();
  std::fprintf(out,
               "{\"displayTimeUnit\": \"ns\", \"otherData\": {\"run\": "
               "\"%s\", \"note\": \"each section has a virtual-clock "
               "process and a host-clock process; a host span that blocks "
               "includes the host time of every other fiber that ran "
               "meanwhile\"},\n\"traceEvents\": [\n",
               label.c_str());
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    std::fprintf(out,
                 "%s{\"ph\": \"M\", \"pid\": %zu, \"name\": "
                 "\"process_name\", \"args\": {\"name\": \"%s: virtual "
                 "time\"}},\n{\"ph\": \"M\", \"pid\": %zu, \"name\": "
                 "\"process_name\", \"args\": {\"name\": \"%s: host time "
                 "(blocking spans include other fibers)\"}}",
                 i == 0 ? "" : ",\n", 2 * i + 1, sections_[i].c_str(),
                 2 * i + 2, sections_[i].c_str());
  }
  const double h0 = spans_.empty() ? 0.0 : spans_.front().h_begin;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double vts = sim::to_us(s.v_begin);
    const double vdur = sim::to_us(s.v_end - s.v_begin);
    const double hts = (s.h_begin - h0) * 1e6;
    const double hdur = (s.h_end - s.h_begin) * 1e6;
    for (int clock = 0; clock < 2; ++clock) {
      std::fprintf(out,
                   ",\n{\"ph\": \"X\", \"pid\": %zu, \"tid\": %llu, "
                   "\"name\": \"%s\", \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"span\": %zu, \"parent\": %d, \"op\": %llu, "
                   "\"virtual_us\": %.3f, \"virtual_self_us\": %.3f, "
                   "\"host_us_incl_blocked\": %.3f}}",
                   2 * s.section + 1 + clock,
                   static_cast<unsigned long long>(s.track), s.name.c_str(),
                   clock == 0 ? vts : hts, clock == 0 ? vdur : hdur, i,
                   s.parent,
                   static_cast<unsigned long long>(s.op), vdur, self[i],
                   hdur);
    }
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

// --------------------------------------------------------- PatternBook ---

void PatternBook::make(std::uint64_t seed, std::size_t bytes) {
  std::vector<std::byte>& pattern = patterns_[seed];
  if (pattern.size() >= bytes) return;
  pattern.resize(bytes);
  fill_pattern(pattern, seed);
}

std::span<const std::byte> PatternBook::get(std::uint64_t seed,
                                            std::size_t bytes) const {
  const std::vector<std::byte>& pattern = patterns_.at(seed);
  return std::span<const std::byte>(pattern).first(bytes);
}

std::vector<std::byte> PatternBook::copy(std::uint64_t seed,
                                         std::size_t bytes) const {
  auto it = patterns_.find(seed);
  if (it == patterns_.end() || it->second.size() < bytes) {
    return make_pattern_buffer(bytes, seed);
  }
  return std::vector<std::byte>(it->second.begin(),
                                it->second.begin() +
                                    static_cast<std::ptrdiff_t>(bytes));
}

bool PatternBook::check(std::span<const std::byte> received,
                        std::uint64_t seed) const {
  auto it = patterns_.find(seed);
  if (it == patterns_.end() || it->second.size() < received.size()) {
    return verify_pattern(received, seed);
  }
  return received.empty() ||
         std::memcmp(received.data(), it->second.data(), received.size()) == 0;
}

// ------------------------------------------------------------ rounds ---

void FailureLog::fail(std::uint64_t op, const std::string& what) {
  if (ops_.insert(op).second && first_.empty()) first_ = what;
}

RoundTimer::RoundTimer(RoundResult* result)
    : result_(result), t0_(host_now_s()), t_last_(t0_), u0_(rusage_now()) {}

void RoundTimer::session_built() {
  const double t = host_now_s();
  result_->setup_session_s = t - t_last_;
  t_last_ = t;
}

void RoundTimer::vchannels_built() {
  const double t = host_now_s();
  result_->setup_vchannel_s = t - t_last_;
  t_last_ = t;
}

Status RoundTimer::run(mad::Session& session) {
  const Rusage before = rusage_now();
  const double t = host_now_s();
  result_->setup_spawn_s = t - t_last_;
  const Status status = session.run();
  const double t_end = host_now_s();
  const Rusage after = rusage_now();
  result_->run_wall_s = t_end - t;
  result_->run_usage.user_s = after.user_s - before.user_s;
  result_->run_usage.sys_s = after.sys_s - before.sys_s;
  result_->run_usage.minflt = after.minflt - before.minflt;
  result_->minflt = after.minflt - u0_.minflt;
  return status;
}

Sampler::Sampler(mad::Session& session, sim::Duration interval,
                 std::function<void()> sample, sim::Time limit) {
  sim::Simulator& simulator = session.simulator();
  simulator.spawn_daemon(
      "perfbench.sampler",
      [this, &simulator, interval, limit, sample = std::move(sample)] {
        while (!stopped_ && simulator.now() < limit) {
          sample();
          simulator.advance(interval);
        }
      });
}

// ------------------------------------------------------------ helpers ---

std::vector<std::size_t> stratified_log_uniform(Rng& rng, std::size_t n,
                                                std::size_t lo,
                                                std::size_t hi) {
  const double l = std::log(static_cast<double>(lo));
  const double h = std::log(static_cast<double>(hi) + 1.0);
  std::vector<std::size_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u =
        (static_cast<double>(i) + rng.next_double()) / static_cast<double>(n);
    out[i] = std::clamp(static_cast<std::size_t>(std::exp(l + u * (h - l))),
                        lo, hi);
  }
  return out;
}

obs::MetricsRegistry session_counters(mad::Session& session) {
  obs::MetricsRegistry registry;
  session.export_metrics(registry);
  return registry;
}

double sum_counters(const obs::MetricsRegistry& reg, const std::string& prefix,
                    const std::string& suffix) {
  double sum = 0.0;
  for (const auto& [name, value] : reg.values()) {
    if (name.size() >= prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      sum += static_cast<double>(value);
    }
  }
  return sum;
}

const std::vector<std::string>& catalog_tms() {
  static const std::vector<std::string> tms = {"bip-short", "bip-long",
                                               "sci-short", "sci-pio", "tcp"};
  return tms;
}

void add_library_counters(mad::Session& session, RoundResult* result) {
  const obs::MetricsRegistry reg = session_counters(session);
  auto& layer = result->layer;
  const double messages = sum_counters(reg, "stats.", ".messages_sent");
  const double ticks = sum_counters(reg, "stats.", ".switch.pack_cpu_ticks") +
                       sum_counters(reg, "stats.", ".switch.unpack_cpu_ticks");
  layer["mad.switch_ticks_per_msg"] = messages > 0 ? ticks / messages : 0.0;
  const double fast = sum_counters(reg, "stats.", ".switch.fast_selects");
  const double legacy = sum_counters(reg, "stats.", ".switch.legacy_selects");
  layer["mad.fast_select_frac"] =
      fast + legacy > 0 ? fast / (fast + legacy) : 0.0;
  for (const std::string& tm : catalog_tms()) {
    layer["mad.tm." + tm + ".blocks"] =
        sum_counters(reg, "stats.", ".tx." + tm + ".blocks");
    layer["mad.tm." + tm + ".bytes"] =
        sum_counters(reg, "stats.", ".tx." + tm + ".bytes");
  }
  const double flushes = sum_counters(reg, "progress.", ".flushes");
  const double pticks = sum_counters(reg, "progress.", ".ticks");
  layer["mad.progress.flushes_per_tick"] =
      pticks > 0 ? flushes / pticks : 0.0;
  layer["net.retransmits"] = sum_counters(reg, "rel.", ".retransmits");
  layer["net.dup_drops"] = sum_counters(reg, "rel.", ".dup_frames");
}

std::uint64_t total_allocs(mad::Session& session) {
  std::uint64_t sum = 0;
  for (std::uint32_t n = 0; n < session.node_count(); ++n) {
    sum += session.node(n).mem().alloc_count;
  }
  return sum;
}

}  // namespace perfbench
