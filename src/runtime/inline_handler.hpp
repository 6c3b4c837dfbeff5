#pragma once

/// \file inline_handler.hpp
/// Small-buffer-optimized active-message callable. The runtime used to
/// type-erase handlers through std::function, which heap-allocates for any
/// closure larger than (typically) two pointers — and nearly every protocol
/// closure captures a shared_ptr plus payload, so the old message plane
/// paid one malloc/free per message. InlineHandler stores the closure
/// inline in the envelope (capacity sized for the largest protocol closure
/// in the tree) and never allocates: a closure that does not fit — too
/// large, over-aligned, or with a throwing move — is not convertible to an
/// InlineHandler, so it fails to compile instead of silently costing a
/// malloc per message.
///
/// Semantics versus std::function:
///   - move-only: envelopes are never implicitly copied. The fault plane's
///     duplicate fault and Runtime::post_all need real copies, so a
///     copyable closure can be duplicated *explicitly* via clone();
///     clone() on a move-only closure is a programming error (asserted).
///   - invocation is non-const (handlers run once, on the owning rank).
///   - empty handlers (default / nullptr) are allowed but must not be
///     invoked (asserted), same contract as std::function's bad_function_
///     call, without the exception machinery.

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "support/assert.hpp"

namespace tlb::rt {

class RankContext;

class InlineHandler {
public:
  /// Inline closure capacity: what is left of one 64-byte cache line
  /// after the envelope's 16-byte header and this handler's ops pointer.
  /// Every extra byte here is paid by *every* envelope in every mailbox
  /// buffer, and the message plane is memory-bound at scale: a 40-byte
  /// buffer keeps each envelope on exactly one line. Protocol closures
  /// are kept under it by capturing one pointer or shared_ptr to per-run
  /// state instead of fat value captures (see Shared in
  /// gossip_strategy.cpp, Proto in collectives.hpp). A closure that
  /// outgrows this stops compiling; hoist its fat captures into such a
  /// block rather than raising the capacity.
  static constexpr std::size_t inline_capacity = 40;

  /// The storage contract, and the constraint on the converting
  /// constructor. Storage is 8-aligned, not max_align_t-aligned: closures
  /// capture pointers, doubles, and shared_ptrs, none of which need more,
  /// and max_align_t alignment would pad every envelope by 16 bytes. The
  /// nothrow move keeps relocation (and so every envelope move) noexcept.
  template <typename D>
  static constexpr bool fits_inline =
      sizeof(D) <= inline_capacity && alignof(D) <= 8 &&
      std::is_nothrow_move_constructible_v<D>;

  InlineHandler() = default;
  /*implicit*/ InlineHandler(std::nullptr_t) {}

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, InlineHandler> &&
                !std::is_same_v<D, std::nullptr_t> &&
                std::is_invocable_v<D&, RankContext&> && fits_inline<D>>>
  /*implicit*/ InlineHandler(F&& fn) {
    ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
    ops_ = &kInlineOps<D>;
  }

  InlineHandler(InlineHandler&& other) noexcept { move_from(other); }

  InlineHandler& operator=(InlineHandler&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineHandler(InlineHandler const&) = delete;
  InlineHandler& operator=(InlineHandler const&) = delete;

  ~InlineHandler() { reset(); }

  void operator()(RankContext& ctx) {
    TLB_ASSERT(ops_ != nullptr);
    ops_->invoke(storage_, ctx);
  }

  /// Run-once invocation: executes the closure and destroys it in the same
  /// indirect call, leaving the handler empty. The drain loop uses this so
  /// delivering a message costs one virtual dispatch instead of two
  /// (invoke + later destroy).
  void consume(RankContext& ctx) {
    TLB_ASSERT(ops_ != nullptr);
    Ops const* const ops = ops_;
    ops_ = nullptr;
    ops->consume(storage_, ctx);
  }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  /// Explicit duplication for the copy-shaped call sites (post_all fanout,
  /// fault-plane duplicate delivery). The wrapped callable must be
  /// copy-constructible; every protocol handler is (they capture
  /// shared_ptrs and values), and asking for a clone of a move-only
  /// closure aborts rather than silently losing the payload.
  [[nodiscard]] InlineHandler clone() const {
    InlineHandler out;
    if (ops_ == nullptr) {
      return out;
    }
    TLB_ASSERT(ops_->clone != nullptr);
    ops_->clone(storage_, out);
    return out;
  }

private:
  struct Ops {
    void (*invoke)(char* storage, RankContext& ctx);
    /// Invoke then destroy in one dispatch (the delivery path).
    void (*consume)(char* storage, RankContext& ctx);
    /// Move-construct dst's storage from src's and end src's lifetime.
    void (*relocate)(char* dst, char* src) noexcept;
    void (*destroy)(char* storage) noexcept;
    /// Copy-construct into `out` (null when the callable is not copyable).
    void (*clone)(char const* storage, InlineHandler& out);
    /// Trivially copyable and destructible: moving is a raw copy of the
    /// whole inline buffer and the moved-from object needs no
    /// destruction. Lets move_from skip the indirect relocate dispatch for
    /// the stateless / POD-capture closures that dominate runtime traffic
    /// (the gossip receipt among them). The buffer shares its cache line
    /// with the rest of the envelope, so copying all of it costs no more
    /// memory traffic than copying the closure alone.
    bool trivial;
  };

  template <typename D>
  static D* as(char* storage) {
    return std::launder(reinterpret_cast<D*>(storage));
  }
  template <typename D>
  static D const* as(char const* storage) {
    return std::launder(reinterpret_cast<D const*>(storage));
  }

  // The op functions are static member templates (not lambdas in the Ops
  // initializers): member bodies are compiled in complete-class context,
  // which lets the clone ops touch storage_/ops_ and name their own Ops
  // table — neither is possible in an initializer parsed while the class
  // is still incomplete.
  template <typename D>
  static void invoke_inline(char* s, RankContext& ctx) {
    (*as<D>(s))(ctx);
  }
  template <typename D>
  static void consume_inline(char* s, RankContext& ctx) {
    (*as<D>(s))(ctx);
    as<D>(s)->~D();
  }
  template <typename D>
  static void relocate_inline(char* dst, char* src) noexcept {
    ::new (static_cast<void*>(dst)) D(std::move(*as<D>(src)));
    as<D>(src)->~D();
  }
  template <typename D>
  static void destroy_inline(char* s) noexcept {
    as<D>(s)->~D();
  }
  template <typename D>
  static void clone_inline(char const* s, InlineHandler& out) {
    if constexpr (std::is_copy_constructible_v<D>) {
      ::new (static_cast<void*>(out.storage_)) D(*as<D>(s));
      out.ops_ = &kInlineOps<D>;
    } else {
      (void)s;
      (void)out; // unreachable: the Ops table stores nullptr instead
    }
  }

  template <typename D>
  static constexpr Ops kInlineOps{
      &invoke_inline<D>,
      &consume_inline<D>,
      &relocate_inline<D>,
      &destroy_inline<D>,
      std::is_copy_constructible_v<D> ? &clone_inline<D> : nullptr,
      /*trivial=*/std::is_trivially_copyable_v<D> &&
          std::is_trivially_destructible_v<D>,
  };

  void move_from(InlineHandler& other) noexcept {
    if (other.ops_ != nullptr) {
      if (other.ops_->trivial) {
        // Fixed-size copy: always inlined, branchless, and cheaper than
        // an indirect call. Over-copying past sizeof(D) stays inside the
        // buffer.
        std::memcpy(storage_, other.storage_, inline_capacity);
      } else {
        other.ops_->relocate(storage_, other.storage_);
      }
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(8) char storage_[inline_capacity];
  Ops const* ops_ = nullptr;
};

} // namespace tlb::rt
