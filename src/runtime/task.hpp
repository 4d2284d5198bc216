#pragma once
// runtime::Task — the entry-method invocation type, rebuilt for the
// event-loop hot path.
//
// The simulator executes one Task per message/continuation; at scale 18
// that is hundreds of millions of constructions per query, which made
// the old `std::function<void(Pe&)>` representation (heap closure per
// message, fat 32-byte object copied through the event heap) the top
// line of every profile.  This type is:
//
//   * move-only — a task runs on exactly one PE exactly once; nothing
//     ever needs to copy one, so captures can hold move-only state
//     (pooled tram buffers move straight into their delivery task);
//   * small-buffer-optimized — captures up to kInlineBytes construct in
//     place inside the Task, no allocation.  Every per-update closure in
//     the hot paths (tram delivery, reducer hops, ACIC chunk relaxing)
//     fits inline by design; keep new hot-path captures ≤ kInlineBytes;
//   * slab-backed on spill — captures that don't fit borrow a block from
//     a size-classed free list (task_slab.cpp) instead of hitting the
//     global allocator, so even cold paths stay allocation-lean in
//     steady state.
//
// Dispatch is one indirect call through a static per-capture-type ops
// table (invoke / relocate / destroy) — the same cost as a virtual call,
// with no vtable pointer inside the capture storage.

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace acic::runtime {

class Pe;

namespace detail {

/// Size-classed free-list allocator for spilled task captures.  Blocks
/// are recycled LIFO through thread-local free lists and returned to the
/// system allocator at thread exit.  Safe under the parallel engine: a
/// spilled Task that migrates across host threads (via a cross-node
/// mailbox) just moves its block from one thread's pool to another's.
void* task_slab_alloc(std::size_t bytes);
void task_slab_free(void* block, std::size_t bytes) noexcept;

/// Test hooks: spilled blocks currently handed out / parked in the pool.
std::size_t task_slab_live_blocks() noexcept;
std::size_t task_slab_pooled_blocks() noexcept;

}  // namespace detail

class Task {
 public:
  /// Inline capture budget.  48 bytes holds `this` + a couple of words
  /// or `this` + a std::vector — every closure the runtime, tram,
  /// collectives and ACIC engine enqueue on their hot paths.
  static constexpr std::size_t kInlineBytes = 48;

  Task() noexcept = default;
  Task(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, Task> &&
                std::is_invocable_v<std::decay_t<F>&, Pe&>>>
  Task(F&& fn) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = &kInlineOps<Fn>;
    } else {
      void* block = detail::task_slab_alloc(sizeof(Fn));
      ::new (block) Fn(std::forward<F>(fn));
      *reinterpret_cast<void**>(storage_) = block;
      ops_ = &kSpillOps<Fn>;
    }
  }

  Task(Task&& other) noexcept {
    if (other.ops_ != nullptr) {
      ops_ = other.ops_;
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      reset();
      if (other.ops_ != nullptr) {
        ops_ = other.ops_;
        ops_->relocate(storage_, other.storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  Task& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  ~Task() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Whether the capture lives in the inline buffer (test hook).
  bool stored_inline() const noexcept {
    return ops_ != nullptr && ops_->inline_stored;
  }

  void operator()(Pe& pe) { ops_->invoke(storage_, pe); }

 private:
  struct Ops {
    void (*invoke)(void* storage, Pe& pe);
    /// Move-construct dst's representation from src and tear src down.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
    bool inline_stored;
  };

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  template <typename Fn>
  static Fn* inline_capture(void* storage) noexcept {
    return std::launder(reinterpret_cast<Fn*>(storage));
  }
  template <typename Fn>
  static Fn* spilled_capture(void* storage) noexcept {
    return static_cast<Fn*>(*reinterpret_cast<void**>(storage));
  }

  template <typename Fn>
  static void inline_invoke(void* storage, Pe& pe) {
    (*inline_capture<Fn>(storage))(pe);
  }
  template <typename Fn>
  static void inline_relocate(void* dst, void* src) noexcept {
    Fn* from = inline_capture<Fn>(src);
    ::new (dst) Fn(std::move(*from));
    from->~Fn();
  }
  template <typename Fn>
  static void inline_destroy(void* storage) noexcept {
    inline_capture<Fn>(storage)->~Fn();
  }

  template <typename Fn>
  static void spill_invoke(void* storage, Pe& pe) {
    (*spilled_capture<Fn>(storage))(pe);
  }
  static void spill_relocate(void* dst, void* src) noexcept {
    std::memcpy(dst, src, sizeof(void*));
  }
  template <typename Fn>
  static void spill_destroy(void* storage) noexcept {
    Fn* capture = spilled_capture<Fn>(storage);
    capture->~Fn();
    detail::task_slab_free(capture, sizeof(Fn));
  }

  template <typename Fn>
  static constexpr Ops kInlineOps{&inline_invoke<Fn>, &inline_relocate<Fn>,
                                  &inline_destroy<Fn>, true};
  template <typename Fn>
  static constexpr Ops kSpillOps{&spill_invoke<Fn>, &spill_relocate,
                                 &spill_destroy<Fn>, false};

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
};

}  // namespace acic::runtime
