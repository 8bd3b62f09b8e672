#include "service/session.hpp"

namespace spta::service {

SessionManager::SessionManager(mbpta::ConvergenceOptions convergence,
                               SessionLimits limits)
    : convergence_(convergence), limits_(limits) {}

SessionStatus SessionManager::StatusOf(const Entry& entry) const {
  SessionStatus status;
  status.total_samples = entry.observations.size();
  status.converged = entry.tracker.converged();
  status.runs_required = entry.tracker.runs_required();
  status.next_checkpoint = entry.tracker.next_checkpoint();
  return status;
}

bool SessionManager::Open(const std::string& name, std::string* error) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (name.empty()) {
    *error = "session name must be non-empty";
    return false;
  }
  if (sessions_.size() >= limits_.max_sessions) {
    *error = "session table full (" + std::to_string(limits_.max_sessions) +
             " sessions)";
    return false;
  }
  if (!sessions_.try_emplace(name, convergence_).second) {
    *error = "session '" + name + "' already exists";
    return false;
  }
  return true;
}

bool SessionManager::Append(const std::string& name,
                            std::span<const mbpta::PathObservation> chunk,
                            SessionStatus* status, std::string* error) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(name);
  if (it == sessions_.end()) {
    *error = "unknown session '" + name + "'";
    return false;
  }
  Entry& entry = it->second;
  if (entry.observations.size() + chunk.size() >
      limits_.max_samples_per_session) {
    *error = "session '" + name + "' would exceed " +
             std::to_string(limits_.max_samples_per_session) + " samples";
    return false;
  }
  entry.observations.insert(entry.observations.end(), chunk.begin(),
                            chunk.end());
  entry.times.reserve(entry.observations.size());
  for (const auto& obs : chunk) entry.times.push_back(obs.time);
  entry.tracker.Update(entry.times);
  *status = StatusOf(entry);
  return true;
}

bool SessionManager::Status(const std::string& name, SessionStatus* status,
                            std::string* error) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(name);
  if (it == sessions_.end()) {
    *error = "unknown session '" + name + "'";
    return false;
  }
  *status = StatusOf(it->second);
  return true;
}

bool SessionManager::Snapshot(
    const std::string& name,
    std::vector<mbpta::PathObservation>* observations,
    std::string* error) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(name);
  if (it == sessions_.end()) {
    *error = "unknown session '" + name + "'";
    return false;
  }
  *observations = it->second.observations;
  return true;
}

bool SessionManager::Close(const std::string& name, std::string* error) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(name);
  if (it == sessions_.end()) {
    *error = "unknown session '" + name + "'";
    return false;
  }
  sessions_.erase(it);
  return true;
}

std::size_t SessionManager::open_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

}  // namespace spta::service
