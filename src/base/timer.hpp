#pragma once

// Wall-clock timing and a hierarchical named-section profile registry.
//
// The paper measures per-step wall times (CF, CholGS-S, CholGS-CI, CholGS-O,
// RR-P, RR-D, RR-SR, DC, DH+EP) with MPI_Wtime-style timers (Sec. 6.3); this
// registry plays the same role for the bench harness.

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace dftfe {

class Timer {
 public:
  Timer() { reset(); }
  void reset() { start_ = clock::now(); }
  /// Seconds elapsed since construction or last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Accumulates (count, total seconds) per named section. Mutex-guarded so
/// concurrent lanes, workers and the obs span tracer can record at once;
/// the lock sits on the (rare) section-completion path, never inside Timer.
class ProfileRegistry {
 public:
  struct Entry {
    double seconds = 0.0;
    std::int64_t count = 0;
  };

  void add(const std::string& name, double seconds) {
    std::lock_guard<std::mutex> lk(mu_);
    auto& e = entries_[name];
    e.seconds += seconds;
    ++e.count;
  }
  /// Pointer into the registry (std::map nodes are stable across inserts);
  /// nullptr when the section was never recorded.
  const Entry* find(const std::string& name) const {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = entries_.find(name);
    return it == entries_.end() ? nullptr : &it->second;
  }
  double seconds(const std::string& name) const {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = entries_.find(name);
    return it == entries_.end() ? 0.0 : it->second.seconds;
  }
  /// Consistent copy of all entries.
  std::map<std::string, Entry> entries() const {
    std::lock_guard<std::mutex> lk(mu_);
    return entries_;
  }
  void clear() {
    std::lock_guard<std::mutex> lk(mu_);
    entries_.clear();
  }

  /// The registry global() resolves to on the calling thread: the process-
  /// wide registry used by the solver steps, unless a per-job registry has
  /// been installed through thread_override() (obs::JobScope).
  static ProfileRegistry& global();
  /// Thread-local override slot backing global(); managed by obs::JobScope
  /// (obs/scope.hpp — base/ only hosts the slot so dd/ks stay obs-agnostic).
  static ProfileRegistry*& thread_override();

 private:
  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

/// RAII section timer feeding a registry.
class ScopedTimer {
 public:
  ScopedTimer(std::string name, ProfileRegistry& reg = ProfileRegistry::global())
      : name_(std::move(name)), reg_(reg) {}
  ~ScopedTimer() { reg_.add(name_, t_.seconds()); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  std::string name_;
  ProfileRegistry& reg_;
  Timer t_;
};

}  // namespace dftfe
