// Session model for streaming sample ingestion.
//
// A client opens a named session, appends execution-time observations in
// chunks (order-preserving — MBPTA convergence is defined over the
// time-ordered sample), polls status, and finally asks for an analysis of
// everything ingested so far. Each session carries a ConvergenceTracker so
// the service can report "ready for EVT" the moment the MBPTA criterion is
// met, without the client re-submitting the sample.
//
// All entry points return false + a diagnostic instead of aborting: this
// layer faces untrusted network input, and a bad request must never take
// the daemon down. Resource bounds (max sessions, max samples per
// session) are enforced here for the same reason.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "mbpta/per_path.hpp"
#include "service/convergence_tracker.hpp"

namespace spta::service {

struct SessionLimits {
  std::size_t max_sessions = 256;
  std::size_t max_samples_per_session = 4'000'000;
};

/// Point-in-time view of one session, safe to render into a response.
struct SessionStatus {
  std::size_t total_samples = 0;
  bool converged = false;
  std::size_t runs_required = 0;    ///< 0 until converged.
  std::size_t next_checkpoint = 0;  ///< Next convergence evaluation point.
};

class SessionManager {
 public:
  explicit SessionManager(mbpta::ConvergenceOptions convergence = {},
                          SessionLimits limits = {});

  /// Creates `name`. Fails if it already exists or the table is full.
  bool Open(const std::string& name, std::string* error);

  /// Appends a chunk in order and advances the convergence tracker over
  /// any newly crossed checkpoints. Fails on unknown session or when the
  /// per-session sample bound would be exceeded (the chunk is then NOT
  /// applied — append is all-or-nothing).
  bool Append(const std::string& name,
              std::span<const mbpta::PathObservation> chunk,
              SessionStatus* status, std::string* error);

  bool Status(const std::string& name, SessionStatus* status,
              std::string* error) const;

  /// Copies the session's observations (analysis runs on a snapshot so
  /// later appends don't shear an in-flight request).
  bool Snapshot(const std::string& name,
                std::vector<mbpta::PathObservation>* observations,
                std::string* error) const;

  /// Discards the session and frees its samples.
  bool Close(const std::string& name, std::string* error);

  std::size_t open_count() const;

 private:
  struct Entry {
    std::vector<mbpta::PathObservation> observations;
    std::vector<double> times;  ///< Mirror of observations[i].time.
    ConvergenceTracker tracker;

    explicit Entry(const mbpta::ConvergenceOptions& options)
        : tracker(options) {}
  };

  SessionStatus StatusOf(const Entry& entry) const;

  mutable std::mutex mutex_;
  std::map<std::string, Entry> sessions_;
  mbpta::ConvergenceOptions convergence_;
  SessionLimits limits_;
};

}  // namespace spta::service
