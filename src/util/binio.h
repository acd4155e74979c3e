// Little-endian binary IO primitives shared by every on-wire and on-disk
// codec in the repo: the artifact-store frames (store/serial.cpp) and the
// service wire protocol (service/protocol.cpp) encode with the same
// writer/reader so the two formats cannot drift in byte order or bounds
// discipline. All multi-byte values are little-endian regardless of host
// endianness; doubles travel as their IEEE-754 bit pattern.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rlcr::util {

/// Appends little-endian primitives to a byte buffer.
class BinaryWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void f64_vec(const std::vector<double>& v) {
    u64(v.size());
    for (const double x : v) f64(x);
  }
  /// Length-prefixed string (u32 count + raw bytes, no terminator).
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    for (const char c : s) u8(static_cast<std::uint8_t>(c));
  }

  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian reads over a byte span. Any underrun sets
/// the fail flag and makes every subsequent read return zero; callers
/// check ok() once at the end instead of after every field.
class BinaryReader {
 public:
  BinaryReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8() {
    if (pos_ >= size_) {
      ok_ = false;
      return 0;
    }
    return data_[pos_++];
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(u8()) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(u8()) << (8 * i);
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }
  /// A bool stored as one byte: 0 or 1; any other value sets the fail
  /// flag, so no two encodings load as the same value.
  bool flag() {
    const std::uint8_t v = u8();
    if (v > 1) ok_ = false;
    return v == 1;
  }

  /// Size prefix for a sequence of elements at least `elem_bytes` wide;
  /// fails fast when the prefix alone exceeds the remaining bytes (a
  /// corrupted length would otherwise drive a multi-gigabyte reserve).
  std::uint64_t seq_size(std::size_t elem_bytes) {
    const std::uint64_t n = u64();
    if (elem_bytes != 0 && n > (size_ - std::min(pos_, size_)) / elem_bytes) {
      ok_ = false;
      return 0;
    }
    return n;
  }
  bool f64_vec(std::vector<double>& out) {
    const std::uint64_t n = seq_size(8);
    if (!ok_) return false;
    out.resize(n);
    for (auto& x : out) x = f64();
    return ok_;
  }
  /// Length-prefixed string; rejects prefixes that overrun the buffer or
  /// exceed `max_len` (a wire-side sanity cap, not a format limit).
  bool str(std::string& out, std::size_t max_len = 4096) {
    const std::uint32_t n = u32();
    if (!ok_ || n > max_len || n > size_ - std::min(pos_, size_)) {
      ok_ = false;
      return false;
    }
    out.assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return true;
  }

  bool ok() const { return ok_; }
  bool at_end() const { return ok_ && pos_ == size_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace rlcr::util
