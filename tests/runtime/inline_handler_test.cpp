/// \file inline_handler_test.cpp
/// The SBO callable under the message plane: inline storage for every
/// protocol-sized closure, a compile-time refusal of any closure that does
/// not fit, move-only ownership with explicit clone, and exact
/// construction / destruction accounting across moves and consume().

#include "runtime/inline_handler.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "runtime/runtime.hpp"

namespace tlb::rt {
namespace {

/// One runtime/context pair per test: handlers need a RankContext to run.
struct Fixture {
  Runtime rt{RuntimeConfig{}};
  RankContext ctx{rt, 0};
};

/// Counts live instances through every copy/move/destroy so tests can
/// assert the handler neither leaks nor double-destroys its closure.
struct Tracked {
  static int live;
  Tracked() { ++live; }
  Tracked(Tracked const&) { ++live; }
  Tracked(Tracked&&) noexcept { ++live; }
  ~Tracked() { --live; }
  static void reset() { live = 0; }
};
int Tracked::live = 0;

/// A callable of a chosen size and alignment, for probing the storage
/// contract without building a capture of that shape by hand.
template <std::size_t Size, std::size_t Align = 1>
struct alignas(Align) Sized {
  char bytes[Size];
  void operator()(RankContext&) {}
};

struct ThrowingMove {
  ThrowingMove() = default;
  ThrowingMove(ThrowingMove&&) noexcept(false) {}
  void operator()(RankContext&) {}
};

// The storage contract is a constraint on the converting constructor, so
// a closure that would not fit inline is not an InlineHandler at all: it
// fails to compile in every build instead of allocating per message.
constexpr std::size_t kCapacity = InlineHandler::inline_capacity;
static_assert(std::is_constructible_v<InlineHandler, Sized<kCapacity, 8>>);
static_assert(!std::is_constructible_v<InlineHandler, Sized<kCapacity + 1>>);
static_assert(!std::is_constructible_v<InlineHandler, Sized<16, 16>>);
static_assert(!std::is_constructible_v<InlineHandler, ThrowingMove>);

TEST(InlineHandler, SmallClosureStaysInline) {
  int hits = 0;
  int* p = &hits;
  InlineHandler h{[p](RankContext&) { ++*p; }};

  Fixture f;
  h(f.ctx);
  h(f.ctx);
  EXPECT_EQ(hits, 2);
}

TEST(InlineHandler, ProtocolShapedCaptureStaysInline) {
  // The canonical protocol closure: a shared_ptr to per-run state plus a
  // few words of payload. It must fit inline — the whole point of the
  // inline capacity choice.
  auto state = std::make_shared<int>(0);
  double const a = 1.5;
  double const b = 2.5;
  std::uint64_t const seq = 42;
  InlineHandler h{[state, a, b, seq](RankContext&) {
    *state += static_cast<int>(a + b) + static_cast<int>(seq);
  }};

  Fixture f;
  h(f.ctx);
  EXPECT_EQ(*state, 46);
}

TEST(InlineHandler, MoveTransfersOwnershipAndEmptiesSource) {
  int hits = 0;
  int* p = &hits;
  InlineHandler a{[p](RankContext&) { ++*p; }};
  InlineHandler b{std::move(a)};
  EXPECT_FALSE(static_cast<bool>(a)); // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(b));

  Fixture f;
  b(f.ctx);
  EXPECT_EQ(hits, 1);

  InlineHandler c;
  c = std::move(b);
  EXPECT_FALSE(static_cast<bool>(b)); // NOLINT(bugprone-use-after-move)
  c(f.ctx);
  EXPECT_EQ(hits, 2);
}

TEST(InlineHandler, DestructionRunsExactlyOnceAcrossMoves) {
  Tracked::reset();
  {
    InlineHandler a{[t = Tracked{}](RankContext&) { (void)t; }};
    InlineHandler b{std::move(a)};
    InlineHandler c;
    c = std::move(b);
    EXPECT_EQ(Tracked::live, 1);
  }
  EXPECT_EQ(Tracked::live, 0);
}

TEST(InlineHandler, MoveAssignmentDestroysPreviousClosure) {
  Tracked::reset();
  InlineHandler a{[t = Tracked{}](RankContext&) { (void)t; }};
  EXPECT_EQ(Tracked::live, 1);
  int dummy = 0;
  int* p = &dummy;
  a = InlineHandler{[p](RankContext&) { ++*p; }};
  EXPECT_EQ(Tracked::live, 0); // the tracked closure was released

  Fixture f;
  a(f.ctx);
  EXPECT_EQ(dummy, 1);
}

TEST(InlineHandler, ConsumeInvokesAndDestroysInOneStep) {
  Tracked::reset();
  int hits = 0;
  int* p = &hits;
  InlineHandler h{[t = Tracked{}, p](RankContext&) {
    (void)t;
    ++*p;
  }};
  EXPECT_EQ(Tracked::live, 1);

  Fixture f;
  h.consume(f.ctx);
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(Tracked::live, 0);
  EXPECT_FALSE(static_cast<bool>(h)); // consumed handlers are empty
}

TEST(InlineHandler, CloneDuplicatesInlineClosure) {
  auto count = std::make_shared<int>(0);
  InlineHandler a{[count](RankContext&) { ++*count; }};
  InlineHandler b = a.clone();
  EXPECT_TRUE(static_cast<bool>(a)); // clone leaves the source intact
  EXPECT_TRUE(static_cast<bool>(b));

  Fixture f;
  a(f.ctx);
  b(f.ctx);
  EXPECT_EQ(*count, 2);
}

TEST(InlineHandler, MoveOnlyClosureWorksInline) {
  auto owned = std::make_unique<int>(11);
  int out = 0;
  int* p = &out;
  InlineHandler h{[owned = std::move(owned), p](RankContext&) {
    *p = *owned;
  }};
  InlineHandler moved{std::move(h)};

  Fixture f;
  moved.consume(f.ctx);
  EXPECT_EQ(out, 11);
}

TEST(InlineHandler, EmptyHandlerIsFalsy) {
  InlineHandler h;
  EXPECT_FALSE(static_cast<bool>(h));
  InlineHandler n{nullptr};
  EXPECT_FALSE(static_cast<bool>(n));
  InlineHandler c = h.clone(); // cloning empty yields empty
  EXPECT_FALSE(static_cast<bool>(c));
}

} // namespace
} // namespace tlb::rt
