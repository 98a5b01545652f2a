// Cooperative fibers (stackful coroutines).
//
// Thread processes in the kernel (the analogue of SC_THREAD) need to block
// mid-function on wait()/Pop()/Push(). Each thread process runs on its own
// Fiber; the scheduler resumes fibers one at a time on the main context, so
// the whole simulation is single-threaded and fully deterministic.
//
// On x86-64 a switch is a hand-written callee-saved-register swap with no
// system call (fiber.cpp, DESIGN.md §5); other hosts fall back to ucontext.
#pragma once

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>

namespace craft {

/// Thrown through a suspended fiber's stack by ~Fiber so locals unwind and
/// destruct. Fiber bodies must let it propagate (rethrow it if it hits a
/// catch-all), like SystemC's sc_unwind_exception.
struct FiberUnwind {};

/// A suspendable call stack. resume() runs the fiber until it calls
/// Suspend() or its body returns; exceptions thrown inside the body are
/// captured and rethrown from resume() on the caller's stack. Destroying a
/// suspended fiber unwinds its stack (FiberUnwind) so RAII state on it is
/// released.
///
/// Every fiber gets a kDefaultStackBytes stack mapped with mmap below a
/// PROT_NONE guard page: pages it never touches are never committed, and an
/// overflow faults on the guard page instead of corrupting the heap.
class Fiber {
 public:
  using Fn = std::function<void()>;

  static constexpr std::size_t kDefaultStackBytes = 128 * 1024;

  explicit Fiber(Fn body);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Runs the fiber until it suspends or finishes. Must be called from the
  /// main (scheduler) context, never from inside another fiber.
  void resume();

  /// Suspends the currently running fiber, returning control to the caller of
  /// resume(). Must be called from inside a fiber.
  static void Suspend();

  /// The fiber currently executing, or nullptr when on the main context.
  static Fiber* Current();

  bool done() const { return done_; }

 private:
  static void Trampoline();

#if defined(__x86_64__)
  /// A saved stack pointer; the registers a switch preserves are pushed on
  /// that stack (fiber.cpp).
  using Context = void*;
#else
  using Context = ucontext_t;
#endif
  Context ctx_{};   ///< the fiber's context while it is suspended
  Context link_{};  ///< the resumer's context while the fiber runs
  std::uint8_t* stack_ = nullptr;  ///< lowest usable byte; the guard page is below
  Fn body_;
  bool started_ = false;
  bool done_ = false;
  bool cancelling_ = false;
  std::exception_ptr pending_exception_;

  // AddressSanitizer fiber-switch bookkeeping (see fiber.cpp; unused and
  // harmless in non-sanitized builds). ASan tracks a fake stack per call
  // stack — every context switch must be bracketed by
  // __sanitizer_{start,finish}_switch_fiber or ASan poisons the wrong stack.
  void* asan_main_fss_ = nullptr;        ///< main context's fake stack, saved on entry
  void* asan_fiber_fss_ = nullptr;       ///< fiber's fake stack, saved on suspend
  const void* asan_main_bottom_ = nullptr;  ///< main stack bounds, learned on
  std::size_t asan_main_size_ = 0;          ///< first switch into the fiber

  // ThreadSanitizer fiber-switch bookkeeping (see fiber.cpp; unused in
  // non-TSan builds). TSan models each call stack as a "fiber" object that
  // the thread must explicitly switch between, or it reports races between
  // a fiber's frames and the scheduler stack that resumed it.
  void* tsan_fiber_ = nullptr;  ///< this fiber's TSan context, lazily created
  void* tsan_host_ = nullptr;   ///< TSan context of the resuming (scheduler) stack
};

}  // namespace craft
