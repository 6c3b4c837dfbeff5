#include "lb/knowledge.hpp"

#include <algorithm>
#include <limits>

#include "support/assert.hpp"

namespace tlb::lb {

namespace {

auto lower_bound_rank(std::vector<KnownRank> const& entries, RankId rank) {
  return std::lower_bound(
      entries.begin(), entries.end(), rank,
      [](KnownRank const& e, RankId r) { return e.rank < r; });
}

} // namespace

void Knowledge::insert(RankId rank, LoadType load) {
  auto const it = lower_bound_rank(entries_, rank);
  if (it != entries_.end() && it->rank == rank) {
    auto const idx = static_cast<std::size_t>(it - entries_.begin());
    entries_[idx].load = load;
    entries_[idx].version = next_version_++;
    return;
  }
  entries_.insert(it, KnownRank{rank, next_version_++, load});
}

void Knowledge::merge(Knowledge const& other) {
  // Count the genuinely new ranks first, so the merge can run in place:
  // grow once, then fill back to front (descending rank) without ever
  // overwriting a local entry that has not been consumed yet.
  std::size_t fresh = 0;
  {
    auto a = entries_.begin();
    for (auto const& e : other.entries_) {
      while (a != entries_.end() && a->rank < e.rank) {
        ++a;
      }
      if (a == entries_.end() || a->rank != e.rank) {
        ++fresh;
      }
    }
  }
  if (fresh == 0) {
    return; // local load wins on every conflict; nothing to do
  }
  auto const old_size = entries_.size();
  entries_.resize(old_size + fresh);
  // Stamp new entries so ascending rank gets ascending versions, matching
  // what repeated insert() calls in rank order would have produced. The
  // backward fill visits fresh ranks in descending order, so stamps are
  // handed out from the top down.
  std::uint32_t stamp = next_version_ + static_cast<std::uint32_t>(fresh) - 1;
  next_version_ += static_cast<std::uint32_t>(fresh);
  auto out = entries_.end();
  auto a = entries_.begin() + static_cast<std::ptrdiff_t>(old_size);
  auto b = other.entries_.end();
  while (b != other.entries_.begin()) {
    auto const& incoming = *(b - 1);
    // Drain local entries above the incoming rank, consuming the match if
    // one exists (local load wins).
    bool matched = false;
    while (a != entries_.begin()) {
      auto const& local = *(a - 1);
      if (local.rank < incoming.rank) {
        break;
      }
      matched = local.rank == incoming.rank;
      *--out = *--a;
      if (matched) {
        break;
      }
    }
    if (!matched) {
      *--out = KnownRank{incoming.rank, stamp--, incoming.load};
    }
    --b;
  }
  TLB_ENSURES(out == a); // remaining prefix is already in place
}

void Knowledge::add_load(RankId rank, LoadType delta) {
  auto const it = lower_bound_rank(entries_, rank);
  TLB_EXPECTS(it != entries_.end() && it->rank == rank);
  auto const idx = static_cast<std::size_t>(it - entries_.begin());
  entries_[idx].load += delta;
  entries_[idx].version = next_version_++;
}

bool Knowledge::contains(RankId rank) const {
  auto const it = lower_bound_rank(entries_, rank);
  return it != entries_.end() && it->rank == rank;
}

void Knowledge::truncate_to(std::size_t cap) {
  if (cap == 0 || entries_.size() <= cap) {
    return;
  }
  std::vector<KnownRank> by_load = entries_;
  std::nth_element(by_load.begin(),
                   by_load.begin() + static_cast<std::ptrdiff_t>(cap),
                   by_load.end(),
                   [](KnownRank const& a, KnownRank const& b) {
                     if (a.load != b.load) {
                       return a.load < b.load;
                     }
                     return a.rank < b.rank;
                   });
  by_load.resize(cap);
  std::sort(by_load.begin(), by_load.end(),
            [](KnownRank const& a, KnownRank const& b) {
              return a.rank < b.rank;
            });
  entries_ = std::move(by_load);
  truncated_ = true;
}

void Knowledge::truncate_random(std::size_t cap, Rng& rng) {
  if (cap == 0 || entries_.size() <= cap) {
    return;
  }
  // Partial Fisher-Yates: move a random survivor into each of the first
  // `cap` slots, then restore the sorted-by-rank invariant.
  for (std::size_t i = 0; i < cap; ++i) {
    auto const j = i + rng.index(entries_.size() - i);
    using std::swap;
    swap(entries_[i], entries_[j]);
  }
  entries_.resize(cap);
  std::sort(entries_.begin(), entries_.end(),
            [](KnownRank const& a, KnownRank const& b) {
              return a.rank < b.rank;
            });
  truncated_ = true;
}

LoadType Knowledge::load_of(RankId rank) const {
  auto const it = lower_bound_rank(entries_, rank);
  TLB_EXPECTS(it != entries_.end() && it->rank == rank);
  return it->load;
}

std::size_t Knowledge::delta_count(std::uint32_t since) const {
  return static_cast<std::size_t>(
      std::count_if(entries_.begin(), entries_.end(),
                    [since](KnownRank const& e) { return e.version > since; }));
}

Knowledge Knowledge::delta_copy(std::uint32_t since) const {
  Knowledge out;
  out.entries_.reserve(delta_count(since));
  for (auto const& e : entries_) {
    if (e.version > since) {
      out.entries_.push_back(KnownRank{e.rank, out.next_version_++, e.load});
    }
  }
  return out;
}

std::size_t Knowledge::encoded_bytes(std::uint32_t since) const {
  std::size_t count = 0;
  std::size_t id_bytes = 0;
  RankId prev = -1; // first selected id is encoded absolute (prev + 1 == 0)
  for (auto const& e : entries_) {
    if (e.version <= since) {
      continue;
    }
    id_bytes +=
        rt::varint_size(static_cast<std::uint64_t>(e.rank - prev - 1));
    prev = e.rank;
    ++count;
  }
  return rt::varint_size(count) + id_bytes + count * sizeof(LoadType);
}

void Knowledge::pack_since(rt::Packer& packer, std::uint32_t since) const {
  auto const start = packer.size();
  packer.pack_varint(delta_count(since));
  RankId prev = -1;
  for (auto const& e : entries_) {
    if (e.version <= since) {
      continue;
    }
    packer.pack_varint(static_cast<std::uint64_t>(e.rank - prev - 1));
    prev = e.rank;
  }
  for (auto const& e : entries_) {
    if (e.version <= since) {
      continue;
    }
    packer.pack(e.load);
  }
  // The byte accountant and the serializer share encoded_bytes(); if the
  // two ever disagree the modeled traffic is a lie, so fail loudly.
  TLB_ENSURES(packer.size() - start == encoded_bytes(since));
}

Knowledge Knowledge::unpack(rt::Unpacker& unpacker) {
  Knowledge k;
  k.unpack_into(unpacker);
  return k;
}

void Knowledge::unpack_into(rt::Unpacker& unpacker) {
  // The count is untrusted: every entry costs at least a 1-byte gap varint
  // plus its load, so reject a count the payload cannot hold before it
  // sizes the entry vector.
  auto const count = unpacker.unpack_varint();
  TLB_EXPECTS(count <= unpacker.remaining() / (1 + sizeof(LoadType)));
  auto const n = static_cast<std::size_t>(count);
  entries_.clear();
  entries_.resize(n);
  std::int64_t prev = -1;
  for (std::size_t i = 0; i < n; ++i) {
    auto const gap = unpacker.unpack_varint();
    // Delta decoding reconstructs a strictly increasing sequence by
    // construction, so the sorted invariant holds without re-validation;
    // only overflow of the id space needs rejecting.
    auto const rank = static_cast<std::uint64_t>(prev + 1) + gap;
    TLB_EXPECTS(rank <= static_cast<std::uint64_t>(
                            std::numeric_limits<RankId>::max()));
    entries_[i].rank = static_cast<RankId>(rank);
    entries_[i].version = static_cast<std::uint32_t>(i) + 1;
    prev = entries_[i].rank;
  }
  for (std::size_t i = 0; i < n; ++i) {
    entries_[i].load = unpacker.unpack<LoadType>();
  }
  next_version_ = static_cast<std::uint32_t>(n) + 1;
  truncated_ = false;
}

} // namespace tlb::lb
