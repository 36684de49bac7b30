#include "anycast/serving/store.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "anycast/obs/journal.hpp"
#include "anycast/obs/metrics.hpp"

namespace anycast::serving {
namespace {

/// Serving instruments. All kTiming: swap cadence and reclaim depth are
/// scheduling details that legitimately vary run to run while query
/// answers stay byte-identical, so none of these may perturb the pinned
/// semantic snapshot (concurrency_test's allowlist names each one).
struct ServingInstruments {
  obs::Counter publishes = obs::metrics().counter(
      "serving_publishes", obs::MetricClass::kTiming,
      "snapshots published into the serving store");
  obs::Counter retired = obs::metrics().counter(
      "serving_snapshots_retired", obs::MetricClass::kTiming,
      "displaced snapshots queued for reclamation");
  obs::Counter freed = obs::metrics().counter(
      "serving_snapshots_freed", obs::MetricClass::kTiming,
      "retired snapshots reclaimed after readers drained");
  obs::Gauge retired_depth = obs::metrics().gauge(
      "serving_retired_depth", obs::MetricClass::kTiming,
      "snapshots retired but not yet reclaimed");
  obs::LatencyHisto& publish_us = obs::metrics().histogram(
      "serving_publish_us", obs::MetricClass::kTiming, "us",
      "SnapshotStore::publish wall time, reclamation included");
  obs::LatencyHisto& reclaim_us = obs::metrics().histogram(
      "serving_reclaim_us", obs::MetricClass::kTiming, "us",
      "time spent freeing retired snapshots, per reclaim that freed any");
};

using Clock = std::chrono::steady_clock;

std::uint64_t micros_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            start)
          .count());
}

const ServingInstruments& serving_instruments() {
  static const ServingInstruments instruments;
  return instruments;
}

// Spreads slot claims so 8 readers don't all CAS-fight over slot 0.
thread_local std::size_t slot_hint = 0;

}  // namespace

void ReadGuard::release() {
  if (store_ != nullptr) {
    store_->release_slot(slot_);
    store_ = nullptr;
  }
  view_ = nullptr;
}

SnapshotStore::~SnapshotStore() {
  drain();
  Node* last = current_.exchange(nullptr, std::memory_order_seq_cst);
  delete last;
}

void SnapshotStore::publish(SnapshotView view) {
  const Clock::time_point start = Clock::now();
  Node* fresh = new Node(std::move(view));
  const std::uint64_t id = fresh->view.id();
  std::lock_guard<std::mutex> lock(writer_mutex_);
  Node* old = current_.exchange(fresh, std::memory_order_seq_cst);
  const std::uint64_t stamp =
      epoch_.fetch_add(1, std::memory_order_seq_cst) + 1;
  serving_instruments().publishes.inc();
  if (old != nullptr) {
    retired_.push_back(Retired{old, stamp});
    serving_instruments().retired.inc();
  }
  obs::journal().emit(obs::MetricClass::kTiming, obs::Severity::kInfo,
                      "serving.publish", 0,
                      {{"snapshot_id", id}, {"epoch", stamp}});
  reclaim_locked();
  serving_instruments().publish_us.record(micros_since(start));
}

ReadGuard SnapshotStore::acquire() {
  const std::size_t start = slot_hint % kMaxReaderSlots;
  for (;;) {
    for (std::size_t probe = 0; probe < kMaxReaderSlots; ++probe) {
      const std::size_t s = (start + probe) % kMaxReaderSlots;
      std::uint64_t announce = epoch_.load(std::memory_order_seq_cst);
      std::uint64_t expected = kFreeSlot;
      if (!slots_[s].epoch.compare_exchange_strong(
              expected, announce, std::memory_order_seq_cst)) {
        continue;
      }
      // Re-announce until the slot carries the epoch we last observed:
      // keeps announcements fresh so reclamation makes progress. A stale
      // LOW announcement is merely conservative (protects more); the loop
      // exits as soon as one verify sees no movement.
      for (;;) {
        const std::uint64_t now = epoch_.load(std::memory_order_seq_cst);
        if (now == announce) break;
        announce = now;
        slots_[s].epoch.store(announce, std::memory_order_seq_cst);
      }
      Node* node = current_.load(std::memory_order_seq_cst);
      if (node == nullptr) {
        release_slot(s);
        return ReadGuard{};
      }
      slot_hint = s + 1;
      return ReadGuard(this, s, &node->view);
    }
    std::this_thread::yield();  // all 64 slots pinned: wait one out
  }
}

void SnapshotStore::release_slot(std::size_t slot) {
  slots_[slot].epoch.store(kFreeSlot, std::memory_order_seq_cst);
}

void SnapshotStore::reclaim_locked() {
  std::uint64_t min_announced = kFreeSlot;
  for (const Slot& slot : slots_) {
    const std::uint64_t e = slot.epoch.load(std::memory_order_seq_cst);
    min_announced = std::min(min_announced, e);  // kFreeSlot = no pin
  }
  std::size_t freed_now = 0;
  Clock::time_point free_start{};
  auto keep = retired_.begin();
  for (Retired& r : retired_) {
    if (r.stamp <= min_announced) {
      if (freed_now++ == 0) free_start = Clock::now();
      delete r.node;
    } else {
      *keep++ = r;
    }
  }
  retired_.erase(keep, retired_.end());
  if (freed_now > 0) {
    serving_instruments().reclaim_us.record(micros_since(free_start));
    freed_.fetch_add(freed_now, std::memory_order_seq_cst);
    serving_instruments().freed.add(freed_now);
  }
  serving_instruments().retired_depth.set(static_cast<double>(retired_.size()));
}

void SnapshotStore::drain() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(writer_mutex_);
      reclaim_locked();
      if (retired_.empty()) return;
    }
    std::this_thread::yield();
  }
}

std::size_t SnapshotStore::retired_count() {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  return retired_.size();
}

}  // namespace anycast::serving
