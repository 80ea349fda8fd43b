// Coroutine task type for the discrete-event simulator.
//
// Every simulated core runs its program as a Task<> coroutine; every
// operation with a virtual-time cost is itself awaitable. The whole
// simulation is single-threaded and deterministic (Core Guidelines CP.2:
// no shared mutable state between OS threads -- parallelism here is
// *simulated*, not executed).
//
// Task<T> is lazy (suspends at initial_suspend) and resumes its awaiting
// parent via symmetric transfer at final_suspend, so arbitrarily deep call
// chains cost no stack growth and no scheduler round-trips.
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <optional>
#include <utility>

#include "common/contracts.hpp"
#include "sim/frame_arena.hpp"

namespace scc::sim {

template <typename T = void>
class Task;

namespace detail {

struct PromiseBase {
  // Frame allocation goes through the per-thread arena: a promise-level
  // operator new/delete customizes the whole coroutine frame, and the
  // simulator churns through identical frame sizes by the hundred thousand.
  static void* operator new(std::size_t bytes) { return frame_alloc(bytes); }
  static void operator delete(void* block, std::size_t bytes) noexcept {
    frame_free(block, bytes);
  }

  std::coroutine_handle<> continuation;  // resumed when this task finishes
  std::exception_ptr exception;

  struct FinalAwaiter {
    [[nodiscard]] bool await_ready() const noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      auto& promise = h.promise();
      if (promise.continuation) return promise.continuation;
      return std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };

  [[nodiscard]] std::suspend_always initial_suspend() const noexcept {
    return {};
  }
  [[nodiscard]] FinalAwaiter final_suspend() const noexcept { return {}; }
  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

}  // namespace detail

/// An awaitable, lazily-started coroutine returning T.
/// Move-only; owns the coroutine frame.
template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    std::optional<T> value;

    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    template <typename U>
    void return_value(U&& v) {
      value.emplace(std::forward<U>(v));
    }
  };

  Task() = default;
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const { return static_cast<bool>(handle_); }
  [[nodiscard]] bool done() const { return handle_ && handle_.done(); }

  /// Awaiting a Task starts it and suspends the awaiter until it completes.
  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> handle;
      [[nodiscard]] bool await_ready() const noexcept {
        return !handle || handle.done();
      }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> awaiting) noexcept {
        handle.promise().continuation = awaiting;
        return handle;  // symmetric transfer into the child
      }
      T await_resume() {
        auto& promise = handle.promise();
        if (promise.exception) std::rethrow_exception(promise.exception);
        SCC_ASSERT(promise.value.has_value());
        return std::move(*promise.value);
      }
    };
    return Awaiter{handle_};
  }

  /// The raw handle, for the two places that resume tasks themselves:
  /// sim::Engine starts root tasks, coll::nbc steps collective schedules.
  [[nodiscard]] std::coroutine_handle<promise_type> native_handle() const {
    return handle_;
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

/// void specialization.
template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_void() const noexcept {}
  };

  Task() = default;
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const { return static_cast<bool>(handle_); }
  [[nodiscard]] bool done() const { return handle_ && handle_.done(); }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> handle;
      [[nodiscard]] bool await_ready() const noexcept {
        return !handle || handle.done();
      }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> awaiting) noexcept {
        handle.promise().continuation = awaiting;
        return handle;
      }
      void await_resume() {
        if (handle.promise().exception)
          std::rethrow_exception(handle.promise().exception);
      }
    };
    return Awaiter{handle_};
  }

  /// As Task<T>::native_handle(): for sim::Engine and coll::nbc only.
  [[nodiscard]] std::coroutine_handle<promise_type> native_handle() const {
    return handle_;
  }

  /// The captured exception, or nullptr if none (or the task never ran),
  /// for callers that must scan several roots before deciding which
  /// failure to surface.
  [[nodiscard]] std::exception_ptr failure() const {
    return handle_ ? handle_.promise().exception : nullptr;
  }

 private:
  friend struct promise_type;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

}  // namespace scc::sim
