#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <unordered_map>

#include "anon/protocols.hpp"
#include "anon/session.hpp"
#include "harness/durability_experiment.hpp"
#include "metrics/summary.hpp"
#include "obs/capacity/loop_profiler.hpp"
#include "workload/workload.hpp"

namespace e2e {

using namespace p2panon;

namespace {

using HostClock = std::chrono::steady_clock;

double seconds_since(HostClock::time_point start) {
  return std::chrono::duration<double>(HostClock::now() - start).count();
}

std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));
std::string fmt(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

/// Exact text for a double, so pinned values compare bit for bit.
std::string exact(double v) { return fmt("%.17g", v); }

std::uint64_t fnv1a(ByteView bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Span names are interned per log; a disabled log never records.
struct SpanIds {
  std::uint16_t env_ctor, env_start, sessions, warmup, measure, construct,
      send;
  explicit SpanIds(SpanLog& log)
      : env_ctor(log.intern("harness.env_ctor")),
        env_start(log.intern("harness.env_start")),
        sessions(log.intern("harness.sessions")),
        warmup(log.intern("run.warmup")),
        measure(log.intern("run.measure")),
        construct(log.intern("anon.construct")),
        send(log.intern("anon.send_message")) {}
};

// The benchmark's own events are typed, so none land in the profiler's
// "untyped" bucket.
obs::capacity::EventTypeId send_event() {
  static const auto id = obs::capacity::event_type("bench.send");
  return id;
}
obs::capacity::EventTypeId construct_event() {
  static const auto id = obs::capacity::event_type("bench.construct");
  return id;
}

SpanLog& disabled_log() {
  static SpanLog log(false);
  return log;
}

// --------------------------------------------------------------------------
// paper_cell
// --------------------------------------------------------------------------

harness::DurabilityConfig paper_cell_config(const std::string& size,
                                            std::uint64_t seed) {
  harness::DurabilityConfig config;
  config.environment.seed = seed;
  config.spec = anon::ProtocolSpec::simera(4, 4, anon::MixChoice::kBiased);
  if (size == "full") {
    config.environment.num_nodes = 1024;
    config.warmup = 1 * kHour;
    config.measure = 1 * kHour;
  } else if (size == "small") {
    config.environment.num_nodes = 128;
    config.warmup = 10 * kMinute;
    config.measure = 10 * kMinute;
  } else {
    throw std::invalid_argument("unknown --size: " + size);
  }
  return config;
}

/// Ground-truth path-set lifetime, as the durability experiment defines
/// it: a path dies when any of its relays leaves; the set dies once fewer
/// than the protocol's minimum paths are alive.
class DurabilityMonitor {
 public:
  DurabilityMonitor(churn::ChurnModel& churn, std::size_t min_paths)
      : min_paths_(min_paths) {
    churn.subscribe([this](NodeId node, bool up, SimTime when) {
      if (!armed_ || up || dead_) return;
      on_leave(node, when);
    });
  }

  void arm(const std::vector<std::vector<NodeId>>& paths, SimTime now) {
    paths_alive_ = 0;
    relay_to_paths_.clear();
    path_alive_.assign(paths.size(), false);
    for (std::size_t j = 0; j < paths.size(); ++j) {
      if (paths[j].empty()) continue;
      path_alive_[j] = true;
      ++paths_alive_;
      for (NodeId relay : paths[j]) relay_to_paths_[relay].push_back(j);
    }
    armed_ = true;
    dead_ = false;
    armed_at_ = now;
    if (paths_alive_ < min_paths_) {
      dead_ = true;
      died_at_ = now;
    }
  }

  double lifetime_seconds(SimTime now, SimDuration cap) const {
    if (!armed_) return 0.0;
    const SimTime end = dead_ ? died_at_ : now;
    return to_seconds(std::min(end - armed_at_, cap));
  }

 private:
  void on_leave(NodeId node, SimTime when) {
    const auto it = relay_to_paths_.find(node);
    if (it == relay_to_paths_.end()) return;
    for (std::size_t j : it->second) {
      if (path_alive_[j]) {
        path_alive_[j] = false;
        --paths_alive_;
      }
    }
    if (paths_alive_ < min_paths_ && !dead_) {
      dead_ = true;
      died_at_ = when;
    }
  }

  std::size_t min_paths_;
  std::unordered_map<NodeId, std::vector<std::size_t>> relay_to_paths_;
  std::vector<bool> path_alive_;
  std::size_t paths_alive_ = 0;
  bool armed_ = false;
  bool dead_ = false;
  SimTime armed_at_ = 0;
  SimTime died_at_ = 0;
};

/// The paper's fingerprint fields, shared by the benchmark's own replay and
/// the harness reference so the two compare field for field.
Fingerprint durability_fingerprint(bool constructed, std::size_t attempts,
                                   double durability_s,
                                   std::uint64_t sent,
                                   std::uint64_t delivered,
                                   const metrics::Summary& latency_ms,
                                   const metrics::Summary& bandwidth) {
  Fingerprint fp;
  fp.add("constructed", constructed ? "1" : "0");
  fp.add("construct_attempts", std::to_string(attempts));
  fp.add("durability_s", exact(durability_s));
  fp.add("messages_sent", std::to_string(sent));
  fp.add("messages_delivered", std::to_string(delivered));
  fp.add("latency_ms_mean", exact(latency_ms.mean()));
  fp.add("bandwidth_samples", std::to_string(bandwidth.count()));
  fp.add("bandwidth_bytes_mean", exact(bandwidth.mean()));
  return fp;
}

/// Replays run_durability_experiment step for step through the public
/// Environment / Session / Simulator calls, split into set-up and run so
/// Environment construction is timed apart from the simulation.
class PaperCell final : public Workload {
 public:
  PaperCell(const std::string& size, std::uint64_t seed)
      : config_(paper_cell_config(size, seed)) {}

  ~PaperCell() override {
    session_.reset();  // before the router it registered with
  }

  SetupTimes setup(const Instruments& in) override {
    SpanLog& log = in.spans != nullptr ? *in.spans : disabled_log();
    const SpanIds ids(log);
    spans_ = &log;
    send_span_ = ids.send;
    SetupTimes times;

    harness::EnvironmentConfig env_config = config_.environment;
    env_config.loop_profiler = in.profiler;
    env_config.link_tap = in.tap;
    auto t0 = HostClock::now();
    {
      SpanLog::Scope span(log, ids.env_ctor);
      env_ = std::make_unique<harness::Environment>(env_config);
    }
    times.env_ctor_s = seconds_since(t0);

    t0 = HostClock::now();
    {
      SpanLog::Scope span(log, ids.sessions);
      harness::Environment& env = *env_;
      env.churn().pin_up(config_.initiator);
      env.churn().pin_up(config_.responder);

      anon::SessionConfig base;
      base.path_length = config_.environment.path_length;
      base.construct_timeout = config_.construct_timeout;
      base.ack_timeout = config_.ack_timeout;
      base.max_construct_attempts = config_.max_construct_attempts;
      base.staleness_aware = config_.staleness_aware;
      base.staleness_stale_after = config_.staleness_stale_after;
      base.staleness_degrade_fraction = config_.staleness_degrade_fraction;
      session_ = std::make_unique<anon::Session>(
          env.router(), env.membership().cache(config_.initiator),
          config_.initiator, config_.responder,
          config_.spec.session_config(base), env.rng().fork());
      monitor_ = std::make_unique<DurabilityMonitor>(
          env.churn(), session_->config().erasure.min_paths());

      env.router().set_message_handler([this](const anon::ReceivedMessage& msg) {
        if (msg.responder != config_.responder) return;
        const auto it = send_times_.find(msg.message_id);
        if (it == send_times_.end()) return;
        ++delivered_;
        latency_ms_.add(to_millis(msg.reconstructed_at - it->second));
        if (msg.data != Bytes(config_.message_size, 0xab)) ++corrupted_;
      });

      measure_end_ = config_.warmup + config_.measure;
      send_one_ = [this] {
        harness::Environment& e = *env_;
        const SimTime now = e.simulator().now();
        if (now > measure_end_) return;
        if (current_message_ != 0) {
          const std::uint64_t spent =
              e.router().payload_bytes() - bytes_at_send_;
          if (send_times_.count(current_message_) > 0 && spent > 0 &&
              delivered_ > bandwidth_.count()) {
            bandwidth_.add(static_cast<double>(spent));
          }
        }
        bytes_at_send_ = e.router().payload_bytes();
        const Bytes payload(config_.message_size, 0xab);
        ++offered_;
        MessageId id;
        {
          SpanLog::Scope call(*spans_, send_span_);
          id = session_->send_message(payload);
        }
        if (id != 0) {
          ++sent_;
          send_times_[id] = now;
          current_message_ = id;
        } else {
          current_message_ = 0;
        }
        e.simulator().schedule_after(config_.send_interval, send_one_,
                                     send_event());
      };

      const std::uint16_t construct_span = ids.construct;
      env.simulator().schedule_at(
          config_.warmup,
          [this, construct_span] {
            SpanLog::Scope call(*spans_, construct_span);
            session_->construct([this](bool ok, std::size_t attempts) {
              constructed_ = ok;
              attempts_ = attempts;
              if (!ok) {
                env_->simulator().stop();
                return;
              }
              std::vector<std::vector<NodeId>> established;
              for (const auto& info : session_->paths()) {
                established.push_back(
                    info.state == anon::PathState::kEstablished
                        ? info.relays
                        : std::vector<NodeId>{});
              }
              monitor_->arm(established, env_->simulator().now());
              send_one_();
            });
          },
          construct_event());
    }
    times.sessions_s = seconds_since(t0);

    t0 = HostClock::now();
    {
      SpanLog::Scope span(log, ids.env_start);
      env_->start();
    }
    times.env_start_s = seconds_since(t0);
    warmup_span_ = ids.warmup;
    measure_span_ = ids.measure;
    return times;
  }

  void run() override {
    sim::Simulator& simulator = env_->simulator();
    {
      SpanLog::Scope span(*spans_, warmup_span_);
      simulator.run_until(config_.warmup);
    }
    SpanLog::Scope span(*spans_, measure_span_);
    simulator.run_until(measure_end_ + 30 * kSecond);
  }

  Outcome outcome() const override {
    Outcome out;
    const double durability =
        constructed_ ? monitor_->lifetime_seconds(measure_end_, config_.measure)
                     : 0.0;
    out.fingerprint = durability_fingerprint(constructed_, attempts_,
                                             durability, sent_, delivered_,
                                             latency_ms_, bandwidth_);
    out.fingerprint.add("messages_offered", std::to_string(offered_));
    out.offered = offered_;
    out.sent = sent_;
    out.delivered = delivered_;
    out.corrupted = corrupted_;
    out.summary.push_back(fmt(
        "paper_cell SimEra(k=4,r=4) biased, N=%zu, single seed %llu:",
        config_.environment.num_nodes,
        static_cast<unsigned long long>(config_.environment.seed)));
    out.summary.push_back(fmt(
        "  this run : durability %.1f s, attempts %zu, latency %.1f ms, "
        "bandwidth %.1f KB, delivered %llu of %llu sent (%llu offered)",
        durability, attempts_, latency_ms_.mean(), bandwidth_.mean() / 1024.0,
        static_cast<unsigned long long>(delivered_),
        static_cast<unsigned long long>(sent_),
        static_cast<unsigned long long>(offered_)));
    out.summary.push_back(
        "  paper    : durability 2472 s, attempts 1, latency 231 ms, "
        "bandwidth 10.4 KB (Table 2, SimEra biased, mean of 10 runs; "
        "reference only, not gated)");
    return out;
  }

  harness::Environment& environment() override { return *env_; }

  std::vector<MessageClass> message_classes() const override {
    const auto& erasure = session_->config().erasure;
    return {{erasure.m, erasure.n, config_.message_size, sent_}};
  }

 private:
  harness::DurabilityConfig config_;
  std::unique_ptr<harness::Environment> env_;
  std::unique_ptr<anon::Session> session_;
  std::unique_ptr<DurabilityMonitor> monitor_;
  std::function<void()> send_one_;
  std::unordered_map<MessageId, SimTime> send_times_;
  SpanLog* spans_ = nullptr;
  std::uint16_t send_span_ = 0, warmup_span_ = 0, measure_span_ = 0;
  SimTime measure_end_ = 0;
  MessageId current_message_ = 0;
  std::uint64_t bytes_at_send_ = 0;
  bool constructed_ = false;
  std::size_t attempts_ = 0;
  std::uint64_t offered_ = 0, sent_ = 0, delivered_ = 0, corrupted_ = 0;
  metrics::Summary latency_ms_;
  metrics::Summary bandwidth_;
};

// --------------------------------------------------------------------------
// anon_load / onion_crypto
// --------------------------------------------------------------------------

struct AnonParams {
  std::size_t nodes = 256;
  std::size_t pairs = 16;
  // Sessions are shape-1 Pareto with a 1 h median, so no node leaves before
  // 30 min: the measurement window opens as churn starts.
  SimDuration warmup = 30 * kMinute;
  SimDuration measure = 10 * kMinute;
  SimDuration start_delay = 20 * kSecond;  // construction grace
  SimDuration drain = 30 * kSecond;
  double rate_per_session = 4.0;  // messages per simulated second
  bool fast_crypto = true;
};

AnonParams anon_params(const std::string& name, const std::string& size) {
  AnonParams p;
  const bool crypto = name == "onion_crypto";
  if (size == "full") {
    p.rate_per_session = crypto ? 1.0 : 4.0;
    if (crypto) p.measure = 5 * kMinute;
  } else if (size == "small") {
    p.nodes = 64;
    p.pairs = 6;
    p.measure = 2 * kMinute;
    p.rate_per_session = crypto ? 0.5 : 2.0;
  } else {
    throw std::invalid_argument("unknown --size: " + size);
  }
  p.fast_crypto = !crypto;
  return p;
}

/// Each session's traffic: the repository's workload engine with its
/// default class mix (interactive 256 B 50%, streaming 1 KiB 25%, bulk
/// 4 KiB 25%) and steady Poisson arrivals at `rate` messages per second.
workload::WorkloadConfig traffic_config(double rate) {
  workload::WorkloadConfig config;
  config.enabled = true;
  config.shape = workload::LoadShape::kSteady;
  config.mean_interarrival = static_cast<SimDuration>(kSecond / rate);
  return config;
}

anon::SegmentPriority priority_of(workload::TrafficClass cls) {
  switch (cls) {
    case workload::TrafficClass::kBulk:
      return anon::SegmentPriority::kBulk;
    case workload::TrafficClass::kStreaming:
      return anon::SegmentPriority::kStreaming;
    case workload::TrafficClass::kInteractive:
      break;
  }
  return anon::SegmentPriority::kInteractive;
}

constexpr std::size_t kNumClasses = 3;  // indexed by workload::TrafficClass

const anon::ProtocolSpec kSpecs[] = {
    anon::ProtocolSpec::curmix(anon::MixChoice::kBiased),
    anon::ProtocolSpec::simrep(2, anon::MixChoice::kBiased),
    anon::ProtocolSpec::simera(4, 4, anon::MixChoice::kBiased),
};

/// Open-loop traffic: every session draws its own Poisson arrivals, fixed
/// before the simulation starts, so a slow simulator never changes them.
class AnonLoad final : public Workload {
 public:
  AnonLoad(const std::string& name, const std::string& size,
           std::uint64_t seed)
      : params_(anon_params(name, size)),
        traffic_(traffic_config(params_.rate_per_session)),
        seed_(seed) {
    generate_inputs();
  }

  ~AnonLoad() override { sessions_.clear(); }

  SetupTimes setup(const Instruments& in) override {
    SpanLog& log = in.spans != nullptr ? *in.spans : disabled_log();
    const SpanIds ids(log);
    spans_ = &log;
    send_span_ = ids.send;
    construct_span_ = ids.construct;
    warmup_span_ = ids.warmup;
    measure_span_ = ids.measure;
    SetupTimes times;

    harness::EnvironmentConfig config;
    config.num_nodes = params_.nodes;
    config.seed = seed_;
    config.fast_crypto = params_.fast_crypto;
    config.loop_profiler = in.profiler;
    config.link_tap = in.tap;
    auto t0 = HostClock::now();
    {
      SpanLog::Scope span(log, ids.env_ctor);
      env_ = std::make_unique<harness::Environment>(config);
    }
    times.env_ctor_s = seconds_since(t0);

    t0 = HostClock::now();
    {
      SpanLog::Scope span(log, ids.sessions);
      harness::Environment& env = *env_;
      for (const Pair& pair : pairs_) {
        env.churn().pin_up(pair.initiator);
        env.churn().pin_up(pair.responder);
      }
      for (std::size_t i = 0; i < pairs_.size(); ++i) {
        anon::SessionConfig base;
        base.path_length = config.path_length;
        base.auto_reconstruct = true;
        sessions_.push_back(std::make_unique<anon::Session>(
            env.router(), env.membership().cache(pairs_[i].initiator),
            pairs_[i].initiator, pairs_[i].responder,
            kSpecs[i % std::size(kSpecs)].session_config(base),
            env.rng().fork()));
      }
      tallies_.assign(pairs_.size(), Tally{});
      env.router().set_message_handler(
          [this](const anon::ReceivedMessage& msg) { on_delivery(msg); });
      env.simulator().schedule_at(
          params_.warmup, [this] { construct_all(); }, construct_event());
      if (!arrivals_.empty()) {
        env.simulator().schedule_at(
            arrivals_.front().at, [this] { send_due(); }, send_event());
      }
    }
    times.sessions_s = seconds_since(t0);

    t0 = HostClock::now();
    {
      SpanLog::Scope span(log, ids.env_start);
      env_->start();
    }
    times.env_start_s = seconds_since(t0);
    return times;
  }

  void run() override {
    sim::Simulator& simulator = env_->simulator();
    {
      SpanLog::Scope span(*spans_, warmup_span_);
      simulator.run_until(params_.warmup);
    }
    SpanLog::Scope span(*spans_, measure_span_);
    simulator.run_until(params_.warmup + params_.measure + params_.drain);
  }

  Outcome outcome() const override {
    Outcome out;
    Fingerprint& fp = out.fingerprint;
    std::uint64_t latency_sum_us = 0;
    for (std::size_t i = 0; i < pairs_.size(); ++i) {
      const Tally& t = tallies_[i];
      fp.add(fmt("session.%02zu", i),
             fmt("%s %u->%u constructed=%d attempts=%zu offered=%llu "
                 "sent=%llu delivered=%llu latency_sum_us=%llu "
                 "offered_bytes=%llu delivered_bytes=%llu",
                 kSpecs[i % std::size(kSpecs)].name().c_str(),
                 pairs_[i].initiator, pairs_[i].responder,
                 t.constructed ? 1 : 0, t.attempts,
                 static_cast<unsigned long long>(t.offered),
                 static_cast<unsigned long long>(t.sent),
                 static_cast<unsigned long long>(t.delivered),
                 static_cast<unsigned long long>(t.latency_sum_us),
                 static_cast<unsigned long long>(t.offered_bytes),
                 static_cast<unsigned long long>(t.delivered_bytes)));
      out.offered += t.offered;
      out.sent += t.sent;
      out.delivered += t.delivered;
      latency_sum_us += t.latency_sum_us;
    }
    out.corrupted = corrupted_;
    out.summary.push_back(fmt(
        "%zu sessions on N=%zu (%s codec): %llu offered, %llu sent, "
        "%llu delivered, mean latency %.1f ms",
        pairs_.size(), params_.nodes, params_.fast_crypto ? "fast" : "real",
        static_cast<unsigned long long>(out.offered),
        static_cast<unsigned long long>(out.sent),
        static_cast<unsigned long long>(out.delivered),
        out.delivered > 0 ? static_cast<double>(latency_sum_us) / 1e3 /
                                static_cast<double>(out.delivered)
                          : 0.0));
    return out;
  }

  harness::Environment& environment() override { return *env_; }

  std::vector<MessageClass> message_classes() const override {
    const std::size_t bytes[kNumClasses] = {
        traffic_.bulk_size, traffic_.interactive_size, traffic_.streaming_size};
    std::vector<MessageClass> out;
    for (std::size_t s = 0; s < std::size(kSpecs); ++s) {
      const auto erasure = kSpecs[s].session_config().erasure;
      for (std::size_t c = 0; c < kNumClasses; ++c) {
        std::uint64_t count = 0;
        for (std::size_t i = s; i < tallies_.size(); i += std::size(kSpecs)) {
          count += tallies_[i].sent_by_class[c];
        }
        out.push_back({erasure.m, erasure.n, bytes[c], count});
      }
    }
    return out;
  }

 private:
  struct Pair {
    NodeId initiator;
    NodeId responder;
  };
  struct Arrival {
    SimTime at;
    std::uint32_t session;
    workload::TrafficClass cls;
    std::size_t bytes;
  };
  struct Tally {
    bool constructed = false;
    std::size_t attempts = 0;
    std::uint64_t offered = 0, sent = 0, delivered = 0;
    std::uint64_t latency_sum_us = 0;
    std::uint64_t offered_bytes = 0, delivered_bytes = 0;
    std::uint64_t sent_by_class[kNumClasses] = {};
  };
  struct InFlight {
    std::uint32_t session;
    NodeId responder;
    SimTime sent_at;
    std::uint64_t hash;
  };

  /// Every input comes from the seed alone: the pairs, each session's
  /// payload pattern and its arrival schedule, drawn from one workload
  /// engine per session on a forked stream before the simulation starts.
  void generate_inputs() {
    Rng rng(seed_ ^ 0xe2eb0c4a11adULL);
    const auto nodes =
        rng.sample_without_replacement(params_.nodes, 2 * params_.pairs);
    for (std::size_t i = 0; i < params_.pairs; ++i) {
      pairs_.push_back({static_cast<NodeId>(nodes[2 * i]),
                        static_cast<NodeId>(nodes[2 * i + 1])});
    }
    const std::size_t largest = std::max(
        {traffic_.bulk_size, traffic_.interactive_size, traffic_.streaming_size});
    patterns_.resize(params_.pairs);
    for (Bytes& pattern : patterns_) {
      pattern.resize(largest);
      rng.fill(pattern.data(), pattern.size());
    }
    const SimTime begin = params_.warmup + params_.start_delay;
    const SimTime end = params_.warmup + params_.measure;
    for (std::uint32_t s = 0; s < params_.pairs; ++s) {
      workload::WorkloadEngine engine(traffic_, begin, end - begin,
                                      rng.fork());
      SimTime at = begin;
      while (true) {
        const workload::Arrival arrival = engine.next(at);
        at += arrival.wait;
        if (at >= end) break;
        arrivals_.push_back({at, s, arrival.cls, arrival.size});
      }
    }
    std::stable_sort(arrivals_.begin(), arrivals_.end(),
                     [](const Arrival& a, const Arrival& b) {
                       return a.at < b.at;
                     });
  }

  void construct_all() {
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
      SpanLog::Scope span(*spans_, construct_span_);
      sessions_[i]->construct([this, i](bool ok, std::size_t attempts) {
        tallies_[i].constructed = ok;
        tallies_[i].attempts = attempts;
      });
    }
  }

  /// Sends every arrival due now, then schedules the next one.
  void send_due() {
    const SimTime now = env_->simulator().now();
    while (next_arrival_ < arrivals_.size() &&
           arrivals_[next_arrival_].at <= now) {
      send(arrivals_[next_arrival_], next_arrival_);
      ++next_arrival_;
    }
    if (next_arrival_ < arrivals_.size()) {
      env_->simulator().schedule_at(arrivals_[next_arrival_].at,
                                    [this] { send_due(); }, send_event());
    }
  }

  void send(const Arrival& arrival, std::size_t ordinal) {
    Bytes& payload = scratch_;
    payload.assign(patterns_[arrival.session].begin(),
                   patterns_[arrival.session].begin() +
                       static_cast<std::ptrdiff_t>(arrival.bytes));
    for (std::size_t b = 0; b < 8; ++b) {
      payload[b] = static_cast<std::uint8_t>(ordinal >> (8 * b));
    }
    Tally& t = tallies_[arrival.session];
    ++t.offered;
    t.offered_bytes += arrival.bytes;
    MessageId id;
    {
      SpanLog::Scope call(*spans_, send_span_);
      id = sessions_[arrival.session]->send_message(payload,
                                                    priority_of(arrival.cls));
    }
    if (id == 0) return;
    ++t.sent;
    ++t.sent_by_class[static_cast<std::size_t>(arrival.cls)];
    in_flight_[id] = {arrival.session, pairs_[arrival.session].responder,
                      env_->simulator().now(), fnv1a(payload)};
  }

  void on_delivery(const anon::ReceivedMessage& msg) {
    const auto it = in_flight_.find(msg.message_id);
    if (it == in_flight_.end() || it->second.responder != msg.responder) {
      return;
    }
    Tally& t = tallies_[it->second.session];
    ++t.delivered;
    t.delivered_bytes += msg.data.size();
    t.latency_sum_us +=
        static_cast<std::uint64_t>(msg.reconstructed_at - it->second.sent_at);
    if (fnv1a(msg.data) != it->second.hash) ++corrupted_;
    in_flight_.erase(it);
  }

  AnonParams params_;
  workload::WorkloadConfig traffic_;
  std::uint64_t seed_;
  std::vector<Pair> pairs_;
  std::vector<Bytes> patterns_;
  std::vector<Arrival> arrivals_;
  std::unique_ptr<harness::Environment> env_;
  std::vector<std::unique_ptr<anon::Session>> sessions_;
  std::vector<Tally> tallies_;
  std::unordered_map<MessageId, InFlight> in_flight_;
  Bytes scratch_;
  std::size_t next_arrival_ = 0;
  std::uint64_t corrupted_ = 0;
  SpanLog* spans_ = nullptr;
  std::uint16_t send_span_ = 0, construct_span_ = 0, warmup_span_ = 0,
                measure_span_ = 0;
};

}  // namespace

std::string Fingerprint::text() const {
  std::string out;
  for (const auto& [key, value] : fields) out += key + " " + value + "\n";
  return out;
}

bool is_workload(const std::string& name) {
  return name == "paper_cell" || name == "anon_load" ||
         name == "onion_crypto";
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const std::string& size,
                                        std::uint64_t seed) {
  if (name == "paper_cell") return std::make_unique<PaperCell>(size, seed);
  if (is_workload(name)) return std::make_unique<AnonLoad>(name, size, seed);
  throw std::invalid_argument("unknown --workload: " + name);
}

Fingerprint harness_reference(const std::string& size, std::uint64_t seed) {
  const harness::DurabilityConfig config = paper_cell_config(size, seed);
  const harness::DurabilityResult r =
      harness::run_durability_experiment(config);
  return durability_fingerprint(r.constructed, r.construct_attempts,
                                r.durability_seconds, r.messages_sent,
                                r.messages_delivered, r.latency_ms,
                                r.bandwidth_bytes);
}

}  // namespace e2e
