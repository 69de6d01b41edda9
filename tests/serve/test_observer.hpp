// Test-only request observer and clock: deterministic control over the
// server's timing for the concurrency suites.
//
// TestObserver records every lifecycle event, runs test actions at named
// events, and can hold the request thread at a named event until the
// test releases it or until another named event has fired. A test that
// needs "request 2 arrives while request 1 is mid-run" parks request 1
// at a layer boundary instead of racing a wall clock.
//
// TestClock is the real steady clock plus an offset the test advances,
// so deadlines and queue/wall times can be crossed by construction
// instead of by sleeping.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "serve/inference_server.hpp"

namespace chainnn::serve {

enum class Event {
  kEnqueue,
  kPickup,
  kLayerBoundary,
  kPreempt,
  kFidelity,
  kComplete
};

// A named event: `event` of request `request_id` (0 matches any request;
// ids are per server), and for kLayerBoundary the boundary before conv
// layer `layer`.
struct At {
  Event event = Event::kPickup;
  std::int64_t request_id = 0;
  std::int64_t layer = 0;

  static At enqueue(std::int64_t id) { return {Event::kEnqueue, id}; }
  static At pickup(std::int64_t id) { return {Event::kPickup, id}; }
  static At layer_boundary(std::int64_t id, std::int64_t layer) {
    return {Event::kLayerBoundary, id, layer};
  }
  static At preempt(std::int64_t id) { return {Event::kPreempt, id}; }
  static At complete(std::int64_t id) { return {Event::kComplete, id}; }

  [[nodiscard]] bool matches(const At& fired) const {
    return event == fired.event &&
           (request_id == 0 || request_id == fired.request_id) &&
           (event != Event::kLayerBoundary || layer == fired.layer);
  }
};

class TestObserver final : public RequestObserver {
 public:
  // Upper bound on any hold or wait: a test that fails before releasing
  // a hold reports the stall instead of hanging the suite.
  static constexpr std::chrono::seconds kStallLimit{60};

  // Holds every thread that fires `at` until release(at), or — when
  // `until` is given — until `until` has fired (immediately, if it
  // already has).
  void hold(const At& at, std::optional<At> until = std::nullopt) {
    std::lock_guard<std::mutex> lock(mu_);
    holds_.push_back({at, until, false});
  }
  // Releases every hold whose pattern matches `at`.
  void release(const At& at) {
    std::lock_guard<std::mutex> lock(mu_);
    for (Hold& h : holds_)
      if (h.at.matches(at)) h.released = true;
    cv_.notify_all();
  }
  // Runs `action` on the firing thread each time `at` fires, before the
  // event is recorded and before any hold there.
  void on(const At& at, std::function<void()> action) {
    std::lock_guard<std::mutex> lock(mu_);
    actions_.emplace_back(at, std::move(action));
  }
  // Blocks until `at` has fired `times` times. A held event counts as
  // fired once its thread is parked at the hold.
  void wait_for(const At& at, int times = 1) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!cv_.wait_for(lock, kStallLimit,
                      [&] { return count_locked(at) >= times; }))
      ADD_FAILURE() << "event never fired " << times << " time(s)";
  }
  [[nodiscard]] int count(const At& at) const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_locked(at);
  }
  // Every event fired so far, in firing order.
  [[nodiscard]] std::vector<At> fired() const {
    std::lock_guard<std::mutex> lock(mu_);
    return fired_;
  }
  // Request ids in the order their `complete` events fired.
  [[nodiscard]] std::vector<std::int64_t> completion_order() const {
    std::vector<std::int64_t> order;
    std::lock_guard<std::mutex> lock(mu_);
    for (const At& e : fired_)
      if (e.event == Event::kComplete) order.push_back(e.request_id);
    return order;
  }

  void enqueue(const RequestRef& r) override {
    fire(At::enqueue(r.request_id));
  }
  void pickup(const RequestRef& r) override {
    fire(At::pickup(r.request_id));
  }
  void layer_boundary(const RequestRef& r, std::int64_t layer) override {
    fire(At::layer_boundary(r.request_id, layer));
  }
  void preempt(const RequestRef& r, double,
               const chain::RunCheckpoint&) override {
    fire(At::preempt(r.request_id));
  }
  void fidelity(const RequestRef& r, chain::NetworkRunResult&) override {
    fire({Event::kFidelity, r.request_id});
  }
  void complete(const InferenceResult& r) override {
    fire(At::complete(r.request_id));
  }

 private:
  struct Hold {
    At at;
    std::optional<At> until;
    bool released = false;
  };

  int count_locked(const At& at) const {
    int n = 0;
    for (const At& e : fired_)
      if (at.matches(e)) ++n;
    return n;
  }
  bool held_locked(const At& fired) const {
    for (const Hold& h : holds_) {
      if (h.released || !h.at.matches(fired)) continue;
      if (h.until && count_locked(*h.until) > 0) continue;
      return true;
    }
    return false;
  }

  void fire(const At& e) {
    std::vector<std::function<void()>> run;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [at, action] : actions_)
        if (at.matches(e)) run.push_back(action);
    }
    for (const auto& action : run) action();
    std::unique_lock<std::mutex> lock(mu_);
    fired_.push_back(e);
    cv_.notify_all();
    if (!cv_.wait_for(lock, kStallLimit, [&] { return !held_locked(e); }))
      ADD_FAILURE() << "request " << e.request_id << " held past the limit";
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<At> fired_;
  std::vector<Hold> holds_;
  std::vector<std::pair<At, std::function<void()>>> actions_;
};

// The real steady clock plus an offset the test moves forward. It must
// outlive every server whose ServerOptions::clock reads it.
class TestClock {
 public:
  [[nodiscard]] std::chrono::steady_clock::time_point now() const {
    return std::chrono::steady_clock::now() +
           std::chrono::nanoseconds(offset_ns_.load());
  }
  void advance(std::chrono::nanoseconds by) { offset_ns_ += by.count(); }
  [[nodiscard]] std::function<std::chrono::steady_clock::time_point()>
  source() {
    return [this] { return now(); };
  }

 private:
  std::atomic<std::int64_t> offset_ns_{0};
};

}  // namespace chainnn::serve
