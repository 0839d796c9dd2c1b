// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code around calls into the
// library's public functions (nothing inside the library is instrumented).
// Each span has a name, a start and an end, the span that caused it and the
// request it belongs to; all spans stay in memory and are written once, at
// the end of the run. Everything runs on the single client thread, so the
// recorder needs no locking.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "affinity/affinity_source.h"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name;
    std::uint64_t request;
    std::int32_t parent;  // index into spans(), -1 for a root span
    double start_us;
    double end_us;
  };

  /// Per-name totals over all recorded spans.
  struct Totals {
    std::size_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;  // total minus time covered by child spans
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Turns recording off and on again (ScopedSpan checks it on open).
  void set_enabled(bool enabled) { enabled_ = enabled; }
  /// Spans recorded so far; Truncate(n) drops every span after the first n
  /// (all of them closed).
  std::size_t size() const { return spans_.size(); }
  void Truncate(std::size_t n) { spans_.resize(n); }
  /// Starts a new request id; spans opened until the next call share it.
  void BeginRequest() { ++request_; }

  int Open(const char* name);
  void Close(int index);

  /// Aggregates every recorded span by name.
  std::map<std::string, Totals> Summarize() const;

  /// Writes every span as one JSON object per line. Returns false when the
  /// file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  double NowUs() const;

  bool enabled_;
  std::uint64_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
};

/// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), index_(tracer.enabled() ? tracer.Open(name) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) tracer_.Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

/// Forwards every call to a wrapped AffinitySource and records a span around
/// the two list-materialization hooks problem assembly calls. Results are
/// those of the wrapped source, so a problem assembled through the wrapper
/// is identical to one assembled through the source itself.
class TracedAffinitySource final : public greca::AffinitySource {
 public:
  TracedAffinitySource(const greca::AffinitySource& base, Tracer& tracer)
      : base_(base), tracer_(tracer) {}

  std::size_t num_users() const override { return base_.num_users(); }
  std::size_t num_periods() const override { return base_.num_periods(); }
  double Static(greca::UserId u, greca::UserId v) const override {
    return base_.Static(u, v);
  }
  double MaxStatic() const override { return base_.MaxStatic(); }
  double Periodic(greca::UserId u, greca::UserId v,
                  greca::PeriodId p) const override {
    return base_.Periodic(u, v, p);
  }
  double PeriodAverage(greca::PeriodId p) const override {
    return base_.PeriodAverage(p);
  }
  double CumulativeDrift(greca::UserId u, greca::UserId v,
                         greca::PeriodId p) const override {
    return base_.CumulativeDrift(u, v, p);
  }
  void MaterializeStaticListInto(std::span<const greca::UserId> group,
                                 std::vector<greca::ListEntry>& scratch,
                                 greca::SortedList& out) const override {
    ScopedSpan span(tracer_, "affinity.MaterializeStaticListInto");
    base_.MaterializeStaticListInto(group, scratch, out);
  }
  void MaterializePeriodListInto(std::span<const greca::UserId> group,
                                 greca::PeriodId p,
                                 std::vector<greca::ListEntry>& scratch,
                                 greca::SortedList& out) const override {
    ScopedSpan span(tracer_, "affinity.MaterializePeriodListInto");
    base_.MaterializePeriodListInto(group, p, scratch, out);
  }
  std::vector<double> PeriodAverages(greca::PeriodId horizon) const override {
    return base_.PeriodAverages(horizon);
  }
  void MaterializeMemberWeightsInto(std::span<const greca::UserId> group,
                                    std::span<double> out) const override {
    base_.MaterializeMemberWeightsInto(group, out);
  }

 private:
  const greca::AffinitySource& base_;
  Tracer& tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
