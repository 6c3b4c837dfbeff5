#pragma once

/// \file serialize.hpp
/// A small byte-oriented serialization layer. The in-process runtime
/// could pass payloads by reference, but the protocols in this library
/// ship their data through Packer/Unpacker so that (a) the modeled wire
/// sizes are the *actual* serialized sizes and (b) the code is proven to
/// survive a real serialize/ship/deserialize boundary — what running over
/// MPI would require.
///
/// Format: little-endian host representation of trivially copyable types,
/// length-prefixed containers. Not portable across heterogeneous
/// architectures (neither are most HPC wire formats); bounds-checked on
/// the read side.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "support/assert.hpp"

namespace tlb::rt {

/// Encoded size of `value` under LEB128 (7 bits per byte): 1 byte for
/// values below 128, up to 10 bytes for the full u64 range. The single
/// size function shared by the packer, the unpacker, and every byte
/// accountant — so modeled wire sizes cannot drift from emitted ones.
[[nodiscard]] constexpr std::size_t varint_size(std::uint64_t value) {
  std::size_t n = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++n;
  }
  return n;
}

class Packer {
public:
  /// Owning mode: pack into an internal buffer (allocates as it grows).
  Packer() : buffer_{&owned_} {}

  /// Scratch mode: pack into `scratch`, which is cleared first but keeps
  /// its capacity — the zero-allocation path for steady-state protocol
  /// rounds that recycle their buffers (see SnapshotPool).
  explicit Packer(std::vector<std::byte>& scratch) : buffer_{&scratch} {
    scratch.clear();
  }

  /// Serialize a trivially copyable value.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void pack(T const& value) {
    auto const offset = buffer_->size();
    buffer_->resize(offset + sizeof(T));
    std::memcpy(buffer_->data() + offset, &value, sizeof(T));
  }

  /// Serialize a vector of trivially copyable elements (u64 length
  /// prefix + raw elements).
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void pack(std::vector<T> const& values) {
    pack(static_cast<std::uint64_t>(values.size()));
    auto const offset = buffer_->size();
    buffer_->resize(offset + values.size() * sizeof(T));
    if (!values.empty()) {
      std::memcpy(buffer_->data() + offset, values.data(),
                  values.size() * sizeof(T));
    }
  }

  void pack(std::string const& value) {
    pack(static_cast<std::uint64_t>(value.size()));
    auto const offset = buffer_->size();
    buffer_->resize(offset + value.size());
    if (!value.empty()) {
      std::memcpy(buffer_->data() + offset, value.data(), value.size());
    }
  }

  /// LEB128 unsigned varint: 7 payload bits per byte, high bit = "more".
  void pack_varint(std::uint64_t value) {
    while (value >= 0x80) {
      pack(static_cast<std::uint8_t>((value & 0x7f) | 0x80));
      value >>= 7;
    }
    pack(static_cast<std::uint8_t>(value));
  }

  [[nodiscard]] std::size_t size() const { return buffer_->size(); }
  [[nodiscard]] std::span<std::byte const> bytes() const { return *buffer_; }

  /// Surrender the buffer (e.g. to move into a message closure). Only
  /// meaningful in owning mode: a scratch-backed packer's bytes belong to
  /// the pool that lent them.
  [[nodiscard]] std::vector<std::byte> take() && {
    TLB_EXPECTS(buffer_ == &owned_);
    return std::move(owned_);
  }

private:
  std::vector<std::byte> owned_;
  std::vector<std::byte>* buffer_;
};

class Unpacker {
public:
  explicit Unpacker(std::span<std::byte const> bytes) : bytes_{bytes} {}

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  [[nodiscard]] T unpack() {
    TLB_EXPECTS(offset_ + sizeof(T) <= bytes_.size());
    T value;
    std::memcpy(&value, bytes_.data() + offset_, sizeof(T));
    offset_ += sizeof(T);
    return value;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  [[nodiscard]] std::vector<T> unpack_vector() {
    auto const n = unpack<std::uint64_t>();
    TLB_EXPECTS(offset_ + n * sizeof(T) <= bytes_.size());
    std::vector<T> values(static_cast<std::size_t>(n));
    if (n > 0) {
      std::memcpy(values.data(), bytes_.data() + offset_,
                  static_cast<std::size_t>(n) * sizeof(T));
    }
    offset_ += static_cast<std::size_t>(n) * sizeof(T);
    return values;
  }

  [[nodiscard]] std::string unpack_string() {
    auto const n = unpack<std::uint64_t>();
    TLB_EXPECTS(offset_ + n <= bytes_.size());
    std::string value(reinterpret_cast<char const*>(bytes_.data() + offset_),
                      static_cast<std::size_t>(n));
    offset_ += static_cast<std::size_t>(n);
    return value;
  }

  /// Inverse of Packer::pack_varint. Rejects encodings that overflow 64
  /// bits (more than 10 bytes, or payload bits past bit 63).
  [[nodiscard]] std::uint64_t unpack_varint() {
    std::uint64_t value = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
      auto const byte = unpack<std::uint8_t>();
      auto const payload = static_cast<std::uint64_t>(byte & 0x7f);
      TLB_EXPECTS(shift < 63 || payload <= 1); // bits past 63 would be lost
      value |= payload << shift;
      if ((byte & 0x80) == 0) {
        return value;
      }
    }
    TLB_EXPECTS(false && "varint longer than 10 bytes");
    return value;
  }

  /// Bytes consumed so far.
  [[nodiscard]] std::size_t consumed() const { return offset_; }
  /// Bytes not yet consumed.
  [[nodiscard]] std::size_t remaining() const {
    return bytes_.size() - offset_;
  }
  /// True when every byte has been consumed (a useful postcondition).
  [[nodiscard]] bool exhausted() const { return offset_ == bytes_.size(); }

private:
  std::span<std::byte const> bytes_;
  std::size_t offset_ = 0;
};

/// A recycling pool of shared, refcounted byte buffers for messages whose
/// payload is serialized once and fanned out to several destinations (the
/// gossip forward pattern). acquire() hands back a slot whose buffer a
/// scratch-mode Packer can fill; the handler closures copy the
/// shared_ptr, and once the last message destructs the slot's use_count
/// drops back to the pool's own reference, making it reusable — control
/// block, vector header, and byte capacity all survive, so steady-state
/// rounds perform zero heap allocations.
///
/// Thread-confined: each protocol rank owns its pool and only that rank's
/// handlers call acquire() (the shared_ptr copies held by in-flight
/// messages are destroyed under the destination rank's drain, but
/// shared_ptr refcounting is atomic, so only acquire() needs confinement).
class SnapshotPool {
public:
  struct Slot {
    std::vector<std::byte> bytes;
  };

  /// Pre-create `depth` slots, each with `capacity` bytes reserved. A
  /// depth at or above the peak number of concurrently in-flight payloads
  /// and a capacity at or above the largest payload make every subsequent
  /// acquire() allocation-free (the zero-allocation contract the inform
  /// plane pins with its counter test).
  void prime(std::size_t depth, std::size_t capacity) {
    while (slots_.size() < depth) {
      slots_.push_back(std::make_shared<Slot>());
    }
    for (auto& slot : slots_) {
      slot->bytes.reserve(capacity);
    }
  }

  /// Fetch a slot with no other owners, cleared but with its capacity
  /// intact. Allocates only when every pooled slot is still referenced by
  /// an in-flight message.
  [[nodiscard]] std::shared_ptr<Slot> acquire() {
    for (auto& slot : slots_) {
      if (slot.use_count() == 1) {
        // use_count() is a relaxed load. Taking the copy first is an
        // acquire-release increment, which orders the last holder's reads
        // on another rank's thread before this clear().
        std::shared_ptr<Slot> reused = slot;
        reused->bytes.clear();
        return reused;
      }
    }
    slots_.push_back(std::make_shared<Slot>());
    return slots_.back();
  }

  /// Pool depth (for tests: steady state should stop growing).
  [[nodiscard]] std::size_t size() const { return slots_.size(); }

private:
  std::vector<std::shared_ptr<Slot>> slots_;
};

} // namespace tlb::rt
