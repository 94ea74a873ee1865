#include "ingest/replay.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

namespace mpipred::ingest {

namespace {

/// Scores one arrival against `plan`, the receiver's credits before it.
void score_credit(CreditStats& credits, const std::vector<adaptive::Credit>& plan,
                  const engine::Event& event) {
  std::int64_t pledged = 0;
  for (const adaptive::Credit& c : plan) {
    pledged += c.bytes;
  }
  credits.peak_pledged_bytes = std::max(credits.peak_pledged_bytes, pledged);
  const bool hit = std::any_of(plan.begin(), plan.end(), [&](const adaptive::Credit& c) {
    return c.sender == event.source && c.bytes >= event.bytes;
  });
  if (hit) {
    ++credits.hits;
  } else {
    ++credits.misses;
  }
}

}  // namespace

std::string AdaptiveReplay::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "messages=%lld hits=%lld misses=%lld avg_buffers=%.6f peak_buffers=%lld "
                "eager=%lld rendezvous=%lld elided=%lld",
                static_cast<long long>(stats.messages), static_cast<long long>(stats.prepost_hits),
                static_cast<long long>(stats.prepost_misses), stats.avg_buffers(),
                static_cast<long long>(stats.peak_buffers),
                static_cast<long long>(stats.eager_sends),
                static_cast<long long>(stats.rendezvous_sends),
                static_cast<long long>(stats.rendezvous_elided));
  std::string out = buf;
  if (credits) {
    std::snprintf(buf, sizeof(buf), " credit_hits=%lld credit_misses=%lld pledged_peak=%lld",
                  static_cast<long long>(credits->hits), static_cast<long long>(credits->misses),
                  static_cast<long long>(credits->peak_pledged_bytes));
    out += buf;
  }
  return out;
}

AdaptiveReplay replay_adaptive(std::span<const engine::Event> events,
                               const adaptive::RuntimeConfig& cfg,
                               telemetry::Telemetry* telemetry) {
  adaptive::ServiceConfig service_cfg = cfg.service;
  if (telemetry != nullptr) {
    service_cfg.engine.metrics = &telemetry->metrics();
  }
  adaptive::AdaptivePolicy policy(std::move(service_cfg), cfg.policy);
  telemetry::TraceEventSink* tracer = telemetry != nullptr ? telemetry->tracer() : nullptr;
  std::optional<CreditStats> credits;
  if (cfg.per_stream_credits) {
    credits.emplace();
  }
  std::int64_t ordinal = 0;
  for (const engine::Event& event : events) {
    // The sender's protocol decision at post time, then the receiver's
    // arrival path — the order the live endpoint drives the policy in.
    (void)policy.choose_protocol(event);
    if (credits) {
      score_credit(*credits, policy.credit_plan(event.destination), event);
    }
    const bool hit = policy.on_arrival(event);
    if (tracer != nullptr) {
      // An ingested stream has no clock; event ordinals stand in for it.
      tracer->instant_at(event.destination, hit ? "prepost-hit" : "prepost-miss", "replay",
                         ordinal,
                         "\"sender\":" + std::to_string(event.source) +
                             ",\"bytes\":" + std::to_string(event.bytes));
    }
    ++ordinal;
  }
  if (telemetry != nullptr) {
    policy.export_metrics(telemetry->metrics());
  }
  return {.stats = policy.stats(), .credits = credits};
}

adaptive::PolicyStats replay_lru_buffers(std::span<const engine::Event> events, std::size_t k) {
  struct Receiver {
    std::int32_t destination = 0;
    std::vector<std::int32_t> lru;  // newest last
  };
  std::vector<Receiver> receivers;  // few destinations: linear scan
  adaptive::PolicyStats stats;
  for (const engine::Event& event : events) {
    auto r = std::find_if(receivers.begin(), receivers.end(),
                          [&](const Receiver& x) { return x.destination == event.destination; });
    if (r == receivers.end()) {
      r = receivers.insert(receivers.end(), {.destination = event.destination, .lru = {}});
    }
    std::vector<std::int32_t>& lru = r->lru;
    const auto it = std::find(lru.begin(), lru.end(), event.source);
    ++stats.messages;
    if (it != lru.end()) {
      ++stats.prepost_hits;
    } else {
      ++stats.prepost_misses;
    }
    stats.buffer_sum += static_cast<double>(lru.size());
    stats.peak_buffers = std::max(stats.peak_buffers, static_cast<std::int64_t>(lru.size()));
    if (it != lru.end()) {
      lru.erase(it);
    }
    lru.push_back(event.source);
    if (lru.size() > k) {
      lru.erase(lru.begin());
    }
  }
  return stats;
}

adaptive::PolicyStats all_pairs_buffers(std::int64_t messages, int nranks) {
  const std::int64_t peers = messages == 0 ? 0 : nranks - 1;
  adaptive::PolicyStats stats;
  stats.messages = messages;
  stats.prepost_hits = messages;
  stats.peak_buffers = peers;
  stats.buffer_sum = static_cast<double>(messages) * static_cast<double>(peers);
  return stats;
}

SweptReplay replay_adaptive_swept(std::span<const engine::Event> events,
                                  adaptive::RuntimeConfig cfg,
                                  std::span<const std::size_t> shard_counts) {
  SweptReplay out;
  std::string reference;
  for (const std::size_t shards : shard_counts) {
    cfg.service.engine.shards = shards;
    AdaptiveReplay replay = replay_adaptive(events, cfg);
    const std::string summary = replay.summary();
    if (reference.empty()) {
      out.replay = std::move(replay);
      reference = summary;
    } else if (out.deterministic && summary != reference) {
      out.deterministic = false;
      out.mismatch = "shards=" + std::to_string(shards) + ":\n  ref : " + reference +
                     "\n  got : " + summary;
    }
  }
  return out;
}

}  // namespace mpipred::ingest
