// Cooperative cancellation and deadlines.
//
// A StopSource owns the stop state; StopTokens are cheap shared-state handles
// threaded through long-running engines (exploration builders, the batch
// simulator's lanes, replication/sweep drivers, query fixpoints). Engines
// poll at *canonical event positions* — e.g. when expanding the parent with
// canonical id p where p % kStopCheckStride == 0 — so a stopped build
// terminates at a deterministic position (independent of the thread count
// where an engine has one), and the truncated prefix is byte-identical to
// the same-options untruncated run's prefix (exactly like max_states
// truncation).
//
// A default-constructed StopToken is null: poll() is a single branch and the
// token never stops anything.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>

namespace pnut {

/// Engines poll once per kStopCheckStride expanded states (plus instant
/// boundaries in the timed engines). At typical expansion rates this puts
/// polls microseconds apart while keeping the check itself unmeasurable.
inline constexpr std::uint32_t kStopCheckStride = 1024;

/// Thrown by throw_if_stopped() in engines that have no truncation-honest
/// result to return (simulation lanes, query fixpoints).
class StopError : public std::runtime_error {
 public:
  enum class Kind : std::uint8_t { kCancelled, kTimeout };

  explicit StopError(Kind kind)
      : std::runtime_error(kind == Kind::kTimeout ? "deadline exceeded" : "cancelled"),
        kind_(kind) {}

  [[nodiscard]] Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

class StopToken {
 public:
  /// Why a poll fired. Cancellation wins over an expired deadline so a
  /// drain's explicit cancel is reported as such even on slow requests.
  enum class Reason : std::uint8_t { kNone, kCancelled, kDeadline };

  StopToken() = default;

  /// False for the null token: no poll can ever fire.
  [[nodiscard]] bool possible() const { return state_ != nullptr; }

  /// True when the token can fire without anyone calling request_cancel():
  /// a deadline is set or the poll-count trip is armed. Results produced
  /// under such a token must not be cached (they may be truncated).
  [[nodiscard]] bool may_expire() const {
    return state_ != nullptr &&
           (state_->has_deadline ||
            state_->cancel_at_poll.load(std::memory_order_relaxed) != 0);
  }

  Reason poll() const {
    if (state_ == nullptr) return Reason::kNone;
    State& s = *state_;
    if (s.cancel_at_poll.load(std::memory_order_relaxed) != 0) {
      const std::uint64_t n = 1 + s.polls.fetch_add(1, std::memory_order_relaxed);
      if (n >= s.cancel_at_poll.load(std::memory_order_relaxed)) {
        s.cancelled.store(true, std::memory_order_relaxed);
      }
    }
    if (s.cancelled.load(std::memory_order_relaxed)) return Reason::kCancelled;
    if (s.external != nullptr && s.external->load(std::memory_order_relaxed)) {
      return Reason::kCancelled;
    }
    if (s.has_deadline && std::chrono::steady_clock::now() >= s.deadline) {
      return Reason::kDeadline;
    }
    return Reason::kNone;
  }

  void throw_if_stopped() const {
    switch (poll()) {
      case Reason::kNone:
        return;
      case Reason::kCancelled:
        throw StopError(StopError::Kind::kCancelled);
      case Reason::kDeadline:
        throw StopError(StopError::Kind::kTimeout);
    }
  }

 private:
  friend class StopSource;

  struct State {
    std::atomic<bool> cancelled{false};
    /// Session-wide drain flag (serve's SIGINT/SIGTERM path); observed by
    /// every request token without per-request registration.
    const std::atomic<bool>* external = nullptr;
    /// Deadline fields are written by the owning StopSource before the
    /// token is handed to any engine, never after — hence non-atomic.
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
    /// Test hook: trip as cancelled on the n-th poll (see cancel_after_polls).
    std::atomic<std::uint64_t> cancel_at_poll{0};
    std::atomic<std::uint64_t> polls{0};
  };

  std::shared_ptr<State> state_;
};

class StopSource {
 public:
  StopSource() : state_(std::make_shared<StopToken::State>()) {}

  [[nodiscard]] StopToken token() const {
    StopToken t;
    t.state_ = state_;
    return t;
  }

  void request_cancel() { state_->cancelled.store(true, std::memory_order_relaxed); }

  [[nodiscard]] bool cancel_requested() const {
    return state_->cancelled.load(std::memory_order_relaxed);
  }

  /// Configure before handing out tokens (see State::has_deadline).
  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    state_->deadline = deadline;
    state_->has_deadline = true;
  }

  /// seconds <= 0 means the deadline is already expired: every engine stops
  /// at its first poll, a canonical position — the cheapest exact stop-point
  /// check.
  void set_timeout_seconds(double seconds) {
    set_deadline(std::chrono::steady_clock::now() +
                 std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(seconds < 0 ? 0 : seconds)));
  }

  /// Observe an external cancel flag (must outlive the source's tokens).
  void watch(const std::atomic<bool>* external) { state_->external = external; }

  /// Test hook: the n-th poll (1-based) of this source's tokens observes
  /// cancellation. Because engines poll at canonical event positions, this
  /// stops a build at a nontrivial position that is still deterministic.
  void cancel_after_polls(std::uint64_t n) {
    state_->cancel_at_poll.store(n, std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<StopToken::State> state_;
};

}  // namespace pnut
