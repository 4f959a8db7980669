// Per-node membership cache (paper §4.8, §4.9 "Learning Node Liveness
// Information").
//
// Each node seeking anonymity maintains one of these. An entry stores the
// subject's last-known liveness observation (dt_alive, dt_since) and the
// local timestamp t_last at which it was recorded. Merge rules follow the
// paper exactly:
//   - heard directly: overwrite dt_alive, reset dt_since to 0, t_last = now;
//   - heard indirectly: accept iff the received dt_since is smaller than
//     the entry's *effective* dt_since (stored dt_since + local staleness),
//     i.e. the received observation is fresher.
// Leave observations travel the same way with alive = false.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "common/types.hpp"
#include "membership/liveness.hpp"

namespace p2panon::membership {

/// Behavioral-suspicion policy (corruption resilience extension). The
/// paper's predictor captures *liveness*; suspicion captures *behavior* —
/// evidence that a node corrupted or stalled traffic, fed back from the
/// responder's ack channel. Scores decay exponentially so a quarantined
/// node earns its way back after `half_life`-scale good behavior.
struct SuspicionConfig {
  SimDuration half_life = 5 * kMinute;
  /// Decayed score at or above this excludes the node from mix selection
  /// entirely (quarantine) until it decays back below.
  double quarantine_threshold = 2.0;
  /// Biased mix choice scores candidates q / (1 + bias_penalty * s): any
  /// suspicion demotes a node below equally-live clean peers.
  double bias_penalty = 1.0;
};

/// Bounded-trust merge policy (control-plane resilience extension, DESIGN
/// §9). Liveness claims are bounded by physics: a node running since the
/// epoch can have accumulated at most `now` of uptime, and an indirect
/// claim about a node we have observed directly cannot exceed our own
/// observation extrapolated forward. Claims past those bounds (plus
/// `claim_slack` of tolerance for clock skew) are capped or rejected, and
/// the subject earns `inflation_suspicion` through the existing suspicion
/// machinery — so a persistent inflater quarantines itself out of the mix
/// pool.
struct TrustConfig {
  /// Tolerance added to every bound before a claim counts as inflated.
  SimDuration claim_slack = 30 * kSecond;
  /// Suspicion filed against the subject of an inflated claim (requires
  /// enable_suspicion; silently dropped otherwise).
  double inflation_suspicion = 0.5;
};

class NodeCache {
 public:
  struct Entry {
    NodeId node = kInvalidNode;
    bool known = false;
    bool alive = false;       // last observed state
    bool direct = false;      // last update was a first-hand observation
    SimDuration dt_alive = 0; // subject uptime at observation
    SimDuration dt_since = 0; // observation age when recorded
    SimTime t_last = 0;       // local time the record was updated
  };

  /// Always-on cheap tallies of merge outcomes, surfaced as the obs
  /// `membership_cache_updates_total{rule=...}` counters by the harness
  /// sampler.
  struct MergeStats {
    std::uint64_t updates_direct = 0;    // heard_directly / heard_left_directly
    std::uint64_t updates_indirect = 0;  // merge_indirect accepted
    std::uint64_t merges_rejected = 0;   // merge_indirect stale-rejected
    std::uint64_t inflated_rejected = 0; // bounded-trust capped or rejected
  };

  /// Record-age distribution over known-alive entries: how stale this
  /// node's view of the living network is. `age` of an entry is its
  /// effective dt_since (stored + local staleness). The staleness-aware
  /// mix selector degrades from biased to random selection on
  /// stale_fraction.
  struct AgeStats {
    std::size_t alive_known = 0;
    SimDuration age_p50 = 0;
    SimDuration age_p95 = 0;
    double stale_fraction = 0.0;  // entries older than the given threshold
  };

  explicit NodeCache(std::size_t num_nodes);

  /// Direct observation: we exchanged a packet with `node` right now and it
  /// reported `dt_alive` uptime.
  void heard_directly(NodeId node, SimDuration dt_alive, SimTime now);

  /// Direct observation of a leave (e.g. our keepalive to the node timed
  /// out, or it announced departure).
  void heard_left_directly(NodeId node, SimTime now);

  /// Indirect observation via gossip. Returns true if the record was
  /// accepted (fresher than what we had).
  bool merge_indirect(NodeId node, const LivenessInfo& info, SimTime now);

  /// Eq. 3 predictor for a cached node; 0 for unknown or believed-dead.
  double predictor(NodeId node, SimTime now) const;

  /// The observation we would gossip about `node` right now: stored record
  /// with local staleness folded into dt_since. nullopt when unknown.
  std::optional<LivenessInfo> observation(NodeId node, SimTime now) const {
    const Entry& e = entries_.at(node);
    if (!e.known) return std::nullopt;
    LivenessInfo info;
    info.alive = e.alive;
    info.dt_alive = e.dt_alive;
    info.dt_since = e.dt_since + (now - e.t_last);
    return info;
  }

  /// The entry for `node`; nullptr when unknown or out of range.
  const Entry* find(NodeId node) const {
    if (node >= entries_.size()) return nullptr;
    const Entry& e = entries_[node];
    return e.known ? &e : nullptr;
  }
  std::size_t known_count() const { return known_count_; }
  std::size_t capacity() const { return entries_.size(); }

  /// All known node ids (regardless of believed state).
  std::vector<NodeId> known_nodes() const;

  /// `count` distinct nodes chosen uniformly from all known nodes,
  /// skipping `exclude` — the paper's *random* mix choice (no liveness
  /// consultation at all).
  std::vector<NodeId> sample_known(std::size_t count, Rng& rng,
                                   const std::unordered_set<NodeId>& exclude)
      const;

  /// Clock-aware overload: with suspicion enabled and `honor_quarantine`
  /// set, nodes whose decayed suspicion is over the quarantine threshold
  /// are excluded from the pool (MixSelector uses this). RNG draws are
  /// unchanged relative to the legacy overload while suspicion is off.
  std::vector<NodeId> sample_known(std::size_t count, Rng& rng,
                                   const std::unordered_set<NodeId>& exclude,
                                   SimTime now, bool honor_quarantine) const;

  /// `count` nodes with the highest Eq. 3 predictor, skipping `exclude` —
  /// the paper's *biased* mix choice.
  std::vector<NodeId> top_by_predictor(
      std::size_t count, SimTime now,
      const std::unordered_set<NodeId>& exclude) const;

  /// Drops everything (tests / node reset).
  void clear();

  // --- bounded trust (default OFF: until enable_bounded_trust() is
  // called, merge behavior is byte-identical to the seed) ---

  /// Turns bounded-trust merging on: direct observations cap the subject's
  /// claimed uptime at `now + claim_slack`, and indirect claims that exceed
  /// either the physical bound or our own direct observation are rejected
  /// (filing suspicion on the subject when suspicion is enabled).
  void enable_bounded_trust(const TrustConfig& config);
  bool bounded_trust_enabled() const { return trust_enabled_; }
  const TrustConfig& trust_config() const { return trust_config_; }

  const MergeStats& merge_stats() const { return merge_stats_; }

  /// Record-age percentiles and stale fraction over known-alive entries;
  /// `stale_after` is the age past which an entry counts as stale.
  AgeStats age_stats(SimTime now, SimDuration stale_after) const;

  // --- behavioral suspicion (default OFF: until enable_suspicion() is
  // called, every method below is a no-op / returns 0 and selection
  // behavior is byte-identical to the seed) ---

  /// Turns suspicion tracking on. Called at setup time by whoever owns the
  /// cache mutably (harness, tests); reporting itself is const, see below.
  void enable_suspicion(const SuspicionConfig& config);
  bool suspicion_enabled() const { return suspicion_enabled_; }
  const SuspicionConfig& suspicion_config() const { return suspicion_config_; }

  /// Accrues `amount` suspicion on `node` (corruption evidence ~1.0,
  /// stall evidence ~0.25), on top of the decayed current score. Const:
  /// suspicion is a behavioral annotation filed by read-only holders of
  /// the cache (Session observes it const), not membership state proper.
  void report_suspicion(NodeId node, double amount, SimTime now) const;

  /// Decayed suspicion score; 0 when disabled or never reported.
  double suspicion(NodeId node, SimTime now) const;

  /// True when the decayed score is at or above the quarantine threshold;
  /// quarantined nodes are skipped by sample_known and top_by_predictor.
  bool quarantined(NodeId node, SimTime now) const;

  std::size_t quarantined_count(SimTime now) const;

  /// Heap footprint (entries plus the lazily-sized suspicion table) for
  /// the capacity byte census. N caches of N entries each is the
  /// membership layer's O(N²) term.
  std::uint64_t memory_bytes() const {
    return static_cast<std::uint64_t>(entries_.capacity()) * sizeof(Entry) +
           static_cast<std::uint64_t>(suspicion_.capacity()) *
               sizeof(Suspicion);
  }

 private:
  std::vector<Entry> entries_;
  std::size_t known_count_ = 0;
  bool trust_enabled_ = false;
  TrustConfig trust_config_;
  MergeStats merge_stats_;

  struct Suspicion {
    double score = 0.0;
    SimTime updated = 0;
  };
  double decayed_suspicion(NodeId node, SimTime now) const;

  bool suspicion_enabled_ = false;
  SuspicionConfig suspicion_config_;
  mutable std::vector<Suspicion> suspicion_;
};

}  // namespace p2panon::membership
