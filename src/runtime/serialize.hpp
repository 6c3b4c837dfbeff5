#pragma once

/// \file serialize.hpp
/// A small byte-oriented serialization layer. The in-process runtime
/// could pass payloads by reference, but the protocols in this library
/// ship their data through Packer/Unpacker so that (a) the modeled wire
/// sizes are the *actual* serialized sizes and (b) the code is proven to
/// survive a real serialize/ship/deserialize boundary — what running over
/// MPI would require.
///
/// Format: little-endian host representation of trivially copyable types
/// and LEB128 varints; a protocol that ships a sequence writes its own
/// count first. Not portable across heterogeneous architectures (neither
/// are most HPC wire formats); bounds-checked on the read side.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>
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

  /// Arena mode: append to `arena` after the bytes it already holds,
  /// within the capacity reserved up front. A write that would not fit
  /// aborts instead of reallocating, so the addresses of bytes packed
  /// earlier stay valid for readers on other ranks (the inform plane's
  /// per-rank epoch arena).
  explicit Packer(std::vector<std::byte>& arena) : buffer_{&arena} {}

  /// Serialize a trivially copyable value.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void pack(T const& value) {
    std::memcpy(grow(sizeof(T)), &value, sizeof(T));
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
  /// meaningful in owning mode: an arena packer's bytes belong to the
  /// arena's owner.
  [[nodiscard]] std::vector<std::byte> take() && {
    TLB_EXPECTS(buffer_ == &owned_);
    return std::move(owned_);
  }

private:
  /// Extend the buffer by `n` bytes and return where they start.
  std::byte* grow(std::size_t n) {
    auto const offset = buffer_->size();
    TLB_EXPECTS(buffer_ == &owned_ || n <= buffer_->capacity() - offset);
    buffer_->resize(offset + n);
    return buffer_->data() + offset;
  }

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

} // namespace tlb::rt
