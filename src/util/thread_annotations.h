// Clang Thread Safety Analysis annotations and annotated sync primitives.
//
// Wraps the attribute spellings from the Clang Thread Safety Analysis
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html) behind DSP_*
// macros that compile away on non-Clang compilers, plus a std::mutex
// wrapper (Mutex / MutexLock) that carries the capability
// attributes — libstdc++'s own mutex types are unannotated, so locking
// through them is invisible to the analysis. Configure with
// -DDSP_THREAD_SAFETY=ON (Clang only) to promote every violation of the
// declared lock discipline to a compile error; on GCC the whole layer is
// zero-cost documentation.
#pragma once

#include <mutex>

#if defined(__clang__)
#define DSP_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define DSP_THREAD_ANNOTATION(x)
#endif

/// Declares a type to be a capability ("mutex") the analysis tracks.
#define DSP_CAPABILITY(x) DSP_THREAD_ANNOTATION(capability(x))
/// RAII type that acquires a capability in its constructor and releases
/// it in its destructor (MutexLock below).
#define DSP_SCOPED_CAPABILITY DSP_THREAD_ANNOTATION(scoped_lockable)
/// Data member that may only be read or written while holding `x`.
#define DSP_GUARDED_BY(x) DSP_THREAD_ANNOTATION(guarded_by(x))
/// Pointer member whose pointee is guarded by `x`.
#define DSP_PT_GUARDED_BY(x) DSP_THREAD_ANNOTATION(pt_guarded_by(x))
/// Function that must be called with the capability held.
#define DSP_REQUIRES(...) \
  DSP_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Function that must be called with the capability NOT held.
#define DSP_EXCLUDES(...) DSP_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Function that acquires the capability and does not release it.
#define DSP_ACQUIRE(...) \
  DSP_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function that releases a held capability.
#define DSP_RELEASE(...) \
  DSP_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Function that acquires the capability when it returns `ret`.
#define DSP_TRY_ACQUIRE(ret, ...) \
  DSP_THREAD_ANNOTATION(try_acquire_capability(ret, __VA_ARGS__))
/// Escape hatch: the function body is excluded from the analysis.
#define DSP_NO_THREAD_SAFETY_ANALYSIS \
  DSP_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace dsp {

/// std::mutex carrying the capability attributes. Lock it through
/// MutexLock; the raw lock/unlock exist for the RAII type only.
class DSP_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() DSP_ACQUIRE() { mu_.lock(); }      // dsp-tidy: allow(C005)
  void unlock() DSP_RELEASE() { mu_.unlock(); }  // dsp-tidy: allow(C005)
  bool try_lock() DSP_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII lock over a Mutex — the annotated replacement for
/// std::scoped_lock / std::lock_guard (CP.20: use RAII, never plain
/// lock/unlock).
class DSP_SCOPED_CAPABILITY MutexLock {
 public:
  // dsp-tidy: allow(C005) — this IS the RAII wrapper the rule points to.
  explicit MutexLock(Mutex& mu) DSP_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }  // dsp-tidy: allow(C005)
  ~MutexLock() DSP_RELEASE() { mu_.unlock(); }  // dsp-tidy: allow(C005)

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace dsp
