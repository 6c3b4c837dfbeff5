/// \file runtime_tour.cpp
/// A tour of the AMT runtime substrate on its own: active messages,
/// quiescence, tree collectives and object migration — the primitives
/// every load-balancing strategy in this library is built from.
///
/// Usage: runtime_tour [--ranks=16] [--threads=1]

#include <atomic>
#include <functional>
#include <iostream>

#include "runtime/collectives.hpp"
#include "runtime/object_store.hpp"
#include "runtime/runtime.hpp"
#include "support/config.hpp"

namespace {

/// A tiny migratable payload for the migration demo.
class Token final : public tlb::rt::Migratable {
public:
  explicit Token(int value) : value_{value} {}
  [[nodiscard]] std::size_t wire_bytes() const override { return 64; }
  [[nodiscard]] int value() const { return value_; }

private:
  int value_;
};

} // namespace

int main(int argc, char** argv) {
  using namespace tlb;
  auto const opts = Options::parse(argc, argv);
  rt::RuntimeConfig cfg;
  cfg.num_ranks = static_cast<RankId>(opts.get_int("ranks", 16));
  cfg.num_threads = static_cast<int>(opts.get_int("threads", 1));
  rt::Runtime runtime{cfg};

  // 1. Active messages: a ring traversal, each hop an asynchronous send.
  std::atomic<int> hops{0};
  std::function<void(rt::RankContext&)> hop =
      [&hops, &hop](rt::RankContext& ctx) {
        ++hops;
        if (ctx.rank() + 1 < ctx.num_ranks()) {
          ctx.send(ctx.rank() + 1, 8, hop);
        }
      };
  runtime.post(0, hop);
  runtime.run_until_quiescent();
  std::cout << "1. ring traversal visited " << hops.load() << " of "
            << cfg.num_ranks << " ranks\n";

  // 2. Collectives: allreduce of per-rank loads into global stats.
  std::vector<LoadType> loads;
  for (RankId r = 0; r < cfg.num_ranks; ++r) {
    loads.push_back(1.0 + static_cast<double>(r));
  }
  auto const stat = rt::allreduce_loads(runtime, loads)[0];
  std::cout << "2. allreduce: max=" << stat.max << " avg=" << stat.average()
            << " over " << stat.count << " ranks ("
            << runtime.stats().messages << " messages so far)\n";

  // 3. Migration: move an object around and watch the directory follow.
  rt::ObjectStore store{cfg.num_ranks};
  store.create(0, /*id=*/7, std::make_unique<Token>(42));
  (void)store.migrate(runtime, {Migration{7, 0, cfg.num_ranks - 1, 1.0}});
  auto const* token = dynamic_cast<Token const*>(
      store.find(cfg.num_ranks - 1, 7));
  std::cout << "3. migration: task 7 now on rank " << store.owner(7)
            << ", payload value " << (token != nullptr ? token->value() : -1)
            << ", " << store.migration_bytes() << " bytes moved\n";
  return 0;
}
