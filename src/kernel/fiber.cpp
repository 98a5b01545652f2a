#include "kernel/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include "kernel/report.hpp"

// AddressSanitizer needs to be told about every stack switch: it shadows
// each call stack with a "fake stack", and a stack switch it does not know
// about leaves it validating fiber frames against the main stack's shadow
// (false positives, or worse, silently unpoisoned memory). The protocol is
// __sanitizer_start_switch_fiber immediately before the switch and
// __sanitizer_finish_switch_fiber as the first action on the new stack.
#if defined(__SANITIZE_ADDRESS__)
#define CRAFT_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CRAFT_ASAN_FIBERS 1
#endif
#endif

#if defined(CRAFT_ASAN_FIBERS)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

// ThreadSanitizer has the analogous requirement (a "fiber" per call stack,
// switched explicitly), with its own API. Without it, TSan attributes a
// resumed fiber's frames to whatever stack the worker thread last ran and
// reports false races the first time a fiber suspends across an epoch.
#if defined(__SANITIZE_THREAD__)
#define CRAFT_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CRAFT_TSAN_FIBERS 1
#endif
#endif

#if defined(CRAFT_TSAN_FIBERS)
// Declared here rather than via <sanitizer/tsan_interface.h> so the file
// also compiles against toolchains whose header predates the fiber API.
extern "C" {
void* __tsan_get_current_fiber(void);
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}
#endif

#if defined(__x86_64__)
// The x86-64 context switch. It pushes the callee-saved registers (rbp, rbx,
// r12-r15) and the callee-saved FP control words (MXCSR, x87 control word)
// onto the running stack, stores the stack pointer through `save_sp`, then
// loads `load_sp` and pops the same frame off that stack. Everything else
// the System V ABI lets a call clobber, so the compiler has already spilled
// it. No signal mask is touched: glibc's swapcontext spends most of its time
// in an rt_sigprocmask system call that fibers do not need.
extern "C" void craft_fiber_switch(void** save_sp, void* load_sp);

asm(".pushsection .text\n"
    ".p2align 4\n"
    ".globl craft_fiber_switch\n"
    ".hidden craft_fiber_switch\n"
    ".type craft_fiber_switch, @function\n"
    "craft_fiber_switch:\n"
    "  pushq %rbp\n"
    "  pushq %rbx\n"
    "  pushq %r12\n"
    "  pushq %r13\n"
    "  pushq %r14\n"
    "  pushq %r15\n"
    "  subq $8, %rsp\n"
    "  stmxcsr (%rsp)\n"
    "  fnstcw 4(%rsp)\n"
    "  movq %rsp, (%rdi)\n"
    "  movq %rsi, %rsp\n"
    "  ldmxcsr (%rsp)\n"
    "  fldcw 4(%rsp)\n"
    "  addq $8, %rsp\n"
    "  popq %r15\n"
    "  popq %r14\n"
    "  popq %r13\n"
    "  popq %r12\n"
    "  popq %rbx\n"
    "  popq %rbp\n"
    "  ret\n"
    ".size craft_fiber_switch, .-craft_fiber_switch\n"
    ".popsection\n");
#endif

namespace craft {

namespace {
thread_local Fiber* tl_current_fiber = nullptr;

std::size_t PageBytes() {
  static const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

#if defined(__x86_64__)
void SwitchContext(void*& save, void* load) { craft_fiber_switch(&save, load); }

// Builds the frame the first craft_fiber_switch into a fiber pops. From the
// saved stack pointer up: the FP control words (the resumer's, as getcontext
// would capture them), six zeroed callee-saved registers (a null rbp ends
// frame-pointer walks), `entry` for the switch's ret, and a null return
// address for `entry`, which never returns. The stack top is page aligned,
// so `entry` starts with rsp = top - 8: the alignment a call leaves.
void MakeContext(void*& ctx, std::uint8_t* stack, std::size_t size, void (*entry)()) {
  auto* sp = reinterpret_cast<std::uint64_t*>(stack + size);
  *--sp = 0;
  *--sp = reinterpret_cast<std::uint64_t>(entry);
  for (int i = 0; i < 6; ++i) *--sp = 0;
  std::uint32_t mxcsr = 0;
  std::uint16_t fpu_cw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fpu_cw));
  *--sp = mxcsr | (static_cast<std::uint64_t>(fpu_cw) << 32);
  ctx = sp;
}
#else
void SwitchContext(ucontext_t& save, ucontext_t& load) { swapcontext(&save, &load); }

void MakeContext(ucontext_t& ctx, std::uint8_t* stack, std::size_t size, void (*entry)()) {
  getcontext(&ctx);
  ctx.uc_stack.ss_sp = stack;
  ctx.uc_stack.ss_size = size;
  ctx.uc_link = nullptr;
  makecontext(&ctx, entry, 0);
}
#endif

// TLS accessors, deliberately opaque to the optimizer. Code before and
// after a context switch may execute on different OS threads (a fiber last
// suspended on a craft-par worker is cancel-unwound from the main thread
// in ~Simulator, after the workers have been joined); an inlined TLS access
// whose address was computed before the switch would then write through a
// dead thread's TLS. A noinline call recomputes the address on whichever
// thread is actually running.
__attribute__((noinline)) void SetCurrentFiber(Fiber* f) {
  tl_current_fiber = f;
  asm volatile("" ::: "memory");
}

__attribute__((noinline)) Fiber* GetCurrentFiber() {
  asm volatile("" ::: "memory");
  return tl_current_fiber;
}
}  // namespace

Fiber::Fiber(Fn body) : body_(std::move(body)) {
  CRAFT_ASSERT(body_ != nullptr, "fiber body must be callable");
  const std::size_t guard = PageBytes();
  void* map = mmap(nullptr, guard + kDefaultStackBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  CRAFT_ASSERT(map != MAP_FAILED, "cannot map a fiber stack");
  if (mprotect(map, guard, PROT_NONE) != 0) {
    munmap(map, guard + kDefaultStackBytes);
    CRAFT_ERROR("cannot protect a fiber stack's guard page");
  }
  stack_ = static_cast<std::uint8_t*>(map) + guard;
}

Fiber::~Fiber() {
  // A simulation routinely ends with processes suspended mid-Pop/Push. Their
  // stacks still hold live locals (buffers, RAII guards); abandoning them
  // leaks. Resume one last time in cancel mode: Suspend() turns into a
  // FiberUnwind throw, the stack unwinds through the body, and Trampoline
  // finishes normally. Module/channel objects may already be gone at this
  // point — unwinding only runs destructors of the fiber's own locals.
  if (started_ && !done_) {
    cancelling_ = true;
    resume();
    CRAFT_ASSERT(done_, "fiber survived cancellation — a catch-all in the "
                        "body must rethrow FiberUnwind");
  }
#if defined(CRAFT_TSAN_FIBERS)
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
#if defined(CRAFT_ASAN_FIBERS)
  // Frames the fiber left by switching away (Trampoline's, at least) keep
  // their redzones poisoned, and munmap does not clear ASan's shadow: the
  // next fiber mapped at this address would fault on its first write.
  __asan_unpoison_memory_region(stack_, kDefaultStackBytes);
#endif
  munmap(stack_ - PageBytes(), PageBytes() + kDefaultStackBytes);
}

Fiber* Fiber::Current() { return GetCurrentFiber(); }

void Fiber::Trampoline() {
  Fiber* self = GetCurrentFiber();
#if defined(CRAFT_ASAN_FIBERS)
  // First arrival on this fiber's stack: no fake stack to restore yet, but
  // record where we came from (the main context's bounds) for the way back.
  __sanitizer_finish_switch_fiber(nullptr, &self->asan_main_bottom_,
                                  &self->asan_main_size_);
#endif
  try {
    self->body_();
  } catch (const FiberUnwind&) {
    // Cancelled by ~Fiber: the stack has unwound; nothing to rethrow.
  } catch (...) {
    self->pending_exception_ = std::current_exception();
  }
  self->done_ = true;
  // Return to the resume() call. An explicit switch (not uc_link) keeps the
  // flow the same on every host and lets resume() observe done_.
#if defined(CRAFT_ASAN_FIBERS)
  // Final exit: null fake-stack-save tells ASan to destroy this fiber's
  // fake stack instead of preserving it for a return that never comes.
  __sanitizer_start_switch_fiber(nullptr, self->asan_main_bottom_,
                                 self->asan_main_size_);
#endif
#if defined(CRAFT_TSAN_FIBERS)
  __tsan_switch_to_fiber(self->tsan_host_, 0);
#endif
  SwitchContext(self->ctx_, self->link_);
  __builtin_unreachable();
}

void Fiber::resume() {
  CRAFT_ASSERT(GetCurrentFiber() == nullptr, "resume() called from inside a fiber");
  CRAFT_ASSERT(!done_, "resume() on a finished fiber");
  if (!started_) {
    started_ = true;
    MakeContext(ctx_, stack_, kDefaultStackBytes, &Fiber::Trampoline);
  }
  SetCurrentFiber(this);
#if defined(CRAFT_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(&asan_main_fss_, stack_, kDefaultStackBytes);
#endif
#if defined(CRAFT_TSAN_FIBERS)
  if (tsan_fiber_ == nullptr) tsan_fiber_ = __tsan_create_fiber(0);
  tsan_host_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
  SwitchContext(link_, ctx_);
#if defined(CRAFT_ASAN_FIBERS)
  // Back on the main stack, arriving from Suspend() or the Trampoline exit.
  __sanitizer_finish_switch_fiber(asan_main_fss_, nullptr, nullptr);
#endif
  SetCurrentFiber(nullptr);
  if (pending_exception_) {
    std::exception_ptr e = pending_exception_;
    pending_exception_ = nullptr;
    std::rethrow_exception(e);
  }
}

void Fiber::Suspend() {
  Fiber* self = GetCurrentFiber();
  CRAFT_ASSERT(self != nullptr, "Suspend() called outside any fiber");
  SetCurrentFiber(nullptr);
#if defined(CRAFT_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(&self->asan_fiber_fss_, self->asan_main_bottom_,
                                 self->asan_main_size_);
#endif
#if defined(CRAFT_TSAN_FIBERS)
  __tsan_switch_to_fiber(self->tsan_host_, 0);
#endif
  SwitchContext(self->ctx_, self->link_);
#if defined(CRAFT_ASAN_FIBERS)
  // Resumed: restore this fiber's fake stack and refresh the main-context
  // bounds (resume() may be called from a different frame each time).
  __sanitizer_finish_switch_fiber(self->asan_fiber_fss_, &self->asan_main_bottom_,
                                  &self->asan_main_size_);
#endif
  SetCurrentFiber(self);
  if (self->cancelling_) throw FiberUnwind{};
}

}  // namespace craft
