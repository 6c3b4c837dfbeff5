#include "lb/knowledge.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace tlb::lb {

namespace {

constexpr auto by_rank = [](KnownRank const& a, KnownRank const& b) {
  return a.rank < b.rank;
};

} // namespace

bool Knowledge::append_unknown(RankId rank, LoadType load) {
  TLB_EXPECTS(rank >= 0);
  auto const word = static_cast<std::size_t>(rank) / 64;
  auto const bit = std::uint64_t{1} << (static_cast<unsigned>(rank) % 64);
  if (word >= members_.size()) {
    members_.resize(word + 1);
  } else if ((members_[word] & bit) != 0) {
    return false;
  }
  members_[word] |= bit;
  if (sorted_ == entries_.size() &&
      (entries_.empty() || entries_.back().rank < rank)) {
    ++sorted_;
  }
  entries_.push_back(KnownRank{rank, load});
  return true;
}

void Knowledge::insert(RankId rank, LoadType load) {
  if (append_unknown(rank, load)) {
    return;
  }
  entries_[index_of(rank)].load = load;
  owes_full_ = true;
}

void Knowledge::merge_packed(rt::Unpacker& unpacker) {
  // The count is untrusted: every entry costs at least a 1-byte gap varint
  // plus its load, so reject a count the payload cannot hold before it
  // drives any loop.
  auto const count = unpacker.unpack_varint();
  TLB_EXPECTS(count <= unpacker.remaining() / (1 + sizeof(LoadType)));
  auto const n = static_cast<std::size_t>(count);
  // The ids and the loads are two blocks: a second cursor walks the ids
  // while `unpacker` skips to the loads, then both advance in lockstep.
  rt::Unpacker ids = unpacker;
  for (std::size_t i = 0; i < n; ++i) {
    (void)unpacker.unpack_varint();
  }
  std::uint64_t next = 0; // smallest id the next gap can name
  for (std::size_t i = 0; i < n; ++i) {
    auto const gap = ids.unpack_varint();
    // Reject ids past the rank limit before adding (no wrap-around), so
    // the membership bitset is never sized by a hostile id.
    TLB_EXPECTS(gap < static_cast<std::uint64_t>(kMaxRanks) - next);
    auto const rank = static_cast<RankId>(next + gap);
    append_unknown(rank, unpacker.unpack<LoadType>());
    next = static_cast<std::uint64_t>(rank) + 1;
  }
}

void Knowledge::add_load(RankId rank, LoadType delta) {
  entries_[index_of(rank)].load += delta;
  owes_full_ = true;
}

bool Knowledge::contains(RankId rank) const {
  auto const word = static_cast<std::size_t>(rank) / 64;
  return rank >= 0 && word < members_.size() &&
         ((members_[word] >> (static_cast<unsigned>(rank) % 64)) & 1u) != 0;
}

std::size_t Knowledge::index_of(RankId rank) const {
  TLB_EXPECTS(contains(rank));
  sort_by_rank();
  auto const it = std::lower_bound(
      entries_.begin(), entries_.end(), rank,
      [](KnownRank const& e, RankId r) { return e.rank < r; });
  return static_cast<std::size_t>(it - entries_.begin());
}

LoadType Knowledge::load_of(RankId rank) const {
  return entries_[index_of(rank)].load;
}

void Knowledge::clear() {
  std::fill(members_.begin(), members_.end(), std::uint64_t{0});
  entries_.clear();
  sorted_ = 0;
  run_begin_ = 0;
  owes_full_ = true;
}

void Knowledge::reserve(std::size_t n) {
  entries_.reserve(n);
  auto const words = (n + 63) / 64;
  if (members_.size() < words) {
    members_.resize(words);
  }
}

void Knowledge::sort_from(std::size_t from) const {
  auto const n = entries_.size();
  if (sorted_ == n) {
    return;
  }
  std::sort(entries_.begin() + static_cast<std::ptrdiff_t>(from),
            entries_.end(), by_rank);
  bool const joined =
      sorted_ >= from &&
      (from == 0 || entries_[from - 1].rank < entries_[from].rank);
  sorted_ = joined ? n : std::min(sorted_, from);
}

void Knowledge::sort_by_rank() const {
  if (run_begin_ != entries_.size()) {
    owes_full_ = true;
    run_begin_ = entries_.size();
  }
  sort_from(0);
}

void Knowledge::truncate_random(std::size_t cap, Rng& rng) {
  if (cap == 0 || entries_.size() <= cap) {
    return;
  }
  // Partial Fisher-Yates over the rank-ordered entries: move a random
  // survivor into each of the first `cap` slots.
  sort_by_rank();
  for (std::size_t i = 0; i < cap; ++i) {
    auto const j = i + rng.index(entries_.size() - i);
    using std::swap;
    swap(entries_[i], entries_[j]);
  }
  for (auto it = entries_.begin() + static_cast<std::ptrdiff_t>(cap);
       it != entries_.end(); ++it) {
    members_[static_cast<std::size_t>(it->rank) / 64] &=
        ~(std::uint64_t{1} << (static_cast<unsigned>(it->rank) % 64));
  }
  entries_.resize(cap);
  sorted_ = 0;
  run_begin_ = cap;
  owes_full_ = true;
}

void Knowledge::pack(rt::Packer& packer, bool full) {
  TLB_EXPECTS(full || !owes_full_);
  if (full) {
    sort_by_rank();
  } else {
    sort_from(run_begin_);
  }
  auto const run =
      std::span<KnownRank const>{entries_}.subspan(full ? 0 : run_begin_);
  packer.pack_varint(run.size());
  RankId prev = -1; // first id is encoded absolute (prev + 1 == 0)
  for (auto const& e : run) {
    packer.pack_varint(static_cast<std::uint64_t>(e.rank - prev - 1));
    prev = e.rank;
  }
  for (auto const& e : run) {
    packer.pack(e.load);
  }
  run_begin_ = entries_.size();
  owes_full_ = false;
}

Knowledge Knowledge::unpack(rt::Unpacker& unpacker) {
  Knowledge k;
  k.merge_packed(unpacker);
  return k;
}

} // namespace tlb::lb
