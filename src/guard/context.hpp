// Request-scoped execution contexts (DESIGN.md §14).
//
// A RunContext bundles everything one guarded request owns:
//
//   - a RunGuard        (deadlines / cancellation / memory budget),
//   - an obs::Registry  (this request's metrics, isolated from every
//                        other in-flight request),
//   - an obs::Tracer    (this request's span stream).
//
// ScopedContext installs all of it into the current thread's ambient
// slots (util/ambient.hpp) for a scope; ThreadPool::submit() captures
// those slots, so pool workers spawned from inside the scope poll the
// request's guard and write the request's metrics — N concurrent
// guarded runs on ONE shared pool no longer stomp a process-wide
// install slot.
//
// Ownership rules:
//   - The context outlives every scope installing it and every pool
//     task submitted from within such a scope (the pipelines all join
//     before returning, so "the guarded call returned" is enough).
//   - Metrics flow one way: workers write the request registry; the
//     context folds it into the global Registry::instance() exactly
//     once (publish(), or destruction unless opted out), which keeps
//     process-wide aggregate exports identical to the pre-§14 world.
//   - The guard's trip counters attribute to the context's registry
//     even when cancel() arrives from an unrelated thread (the guard
//     binds its registry at construction).
//
// Single-run callers that only need a guard keep using guard::ScopedGuard
// — it swaps just the guard slot and composes with an enclosing context
// (the degradation ladder re-arms a fresh rung guard this way inside a
// caller's context scope).
#pragma once

#include <cstdint>
#include <string>

#include "guard/guard.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/ambient.hpp"

namespace matchsparse::guard {

class RunContext {
 public:
  /// `label` is free-form ("req-3", a config digest, ...) and lands in
  /// diagnostics only; `id()` is process-unique and monotonic.
  explicit RunContext(std::string label = std::string(),
                      const RunGuard::Limits& limits = RunGuard::Limits());
  ~RunContext();

  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  std::uint64_t id() const { return id_; }
  const std::string& label() const { return label_; }

  RunGuard& guard() { return guard_; }
  const RunGuard& guard() const { return guard_; }
  obs::Registry& metrics() { return metrics_; }
  obs::Tracer& tracer() { return tracer_; }

  /// Cross-thread cancellation of this request (sticky, idempotent).
  void cancel() { guard_.cancel(); }

  /// This request's metrics only — sorted by name, so two identical
  /// runs snapshot byte-identically regardless of worker interleaving.
  obs::MetricsSnapshot metrics_snapshot() const { return metrics_.snapshot(); }

  /// Folds the request registry into the global Registry::instance().
  /// Idempotent: the first call wins, later calls (and the destructor)
  /// are no-ops. Call it early to make a finished request visible in
  /// aggregate exports before the context goes out of scope.
  void publish();

  /// Opt out of the destructor's publish() — isolation tests and the
  /// bench harness use this to keep scratch requests out of the global
  /// registry, and the serve daemon because it folds every request into
  /// its own telemetry registry instead.
  void set_publish_on_destroy(bool on) { publish_on_destroy_ = on; }

 private:
  std::uint64_t id_;
  std::string label_;
  obs::Registry metrics_;  // before guard_: the guard binds it
  obs::Tracer tracer_;
  RunGuard guard_;
  bool published_ = false;
  bool publish_on_destroy_ = true;
};

/// RAII: installs a context's guard, registry, tracer, and the context
/// itself into the current thread's ambient slots; restores the
/// previous occupants on exit (nesting allowed). Pool workers inherit
/// whatever is installed at submit() time.
class ScopedContext {
 public:
  explicit ScopedContext(RunContext& ctx)
      : guard_scope_(ambient::kGuardSlot, &ctx.guard()),
        metrics_scope_(ambient::kMetricsSlot, &ctx.metrics()),
        trace_scope_(ambient::kTraceSlot, &ctx.tracer()),
        context_scope_(ambient::kContextSlot, &ctx) {}

  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  ambient::SlotScope guard_scope_;
  ambient::SlotScope metrics_scope_;
  ambient::SlotScope trace_scope_;
  ambient::SlotScope context_scope_;
};

/// The context installed on the current thread (nullptr when the thread
/// runs unscoped, or under a bare ScopedGuard).
inline RunContext* current_context() {
  return static_cast<RunContext*>(ambient::get(ambient::kContextSlot));
}

}  // namespace matchsparse::guard
