// The one little-endian codec for everything Mercurial persists: journal frames, durable
// controller state, checkpoint frames and trace frames.
//
// ByteWriter and ByteReader are the byte layer: fixed-width little-endian integers, doubles as
// their IEEE-754 bit patterns (bit-exact round trips — the recovered study must be
// bit-identical, so "close" is data loss), and a bounds-checked reader that fails with
// DATA_LOSS instead of reading past a truncated payload. Frames are built on them directly.
//
// Records sit one level up. Each record's layout is written once, as a field list that both
// directions share:
//
//   template <class S, class Io>
//   void WireFoo(S& s, Io& io) { io.U64(s.count, s.total); io.Time(s.since); ... }
//
// instantiated with S = const Foo and Io = WireOut to encode, and with S = Foo and Io = WireIn
// to decode. A field therefore cannot be saved and forgotten on load, nor read back in another
// order or width. Wire conventions: counts are u32, `int` fields and times i64, enums u8.
//
//   * WireOut's calls are the ByteWriter puts, inlined: no status, no virtual call, nothing the
//     journal's per-tick serialize-and-compare dirty check would pay for.
//   * WireIn is sticky: the first truncated read or failed Require records DATA_LOSS and every
//     later call is a no-op, so a field list carries no error plumbing. Require states a load
//     check (a range, an invariant between fields) inside the list; WireOut ignores it.
//   * WireLoad decodes into a copy and commits it only when the whole payload decoded, so a
//     failed load leaves the unit exactly as it was.

#ifndef MERCURIAL_SRC_COMMON_WIRE_H_
#define MERCURIAL_SRC_COMMON_WIRE_H_

#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/common/status.h"

namespace mercurial {

class ByteWriter {
 public:
  explicit ByteWriter(std::vector<uint8_t>& out) : out_(out) {}

  void PutU8(uint8_t v) { out_.push_back(v); }

  // Bulk resize + memcpy instead of per-byte push_back: the journal serializes the full
  // controller state every tick for its dirty check, so integer encoding is the hot loop of
  // durability. memcpy of the in-memory representation is only correct on a little-endian
  // host; the static_assert guards that assumption rather than paying for a runtime byte
  // swap nobody needs.
  void PutU32(uint32_t v) {
    static_assert(std::endian::native == std::endian::little,
                  "wire codec assumes a little-endian host");
    const size_t at = out_.size();
    out_.resize(at + 4);
    std::memcpy(out_.data() + at, &v, 4);
  }

  void PutU64(uint64_t v) {
    static_assert(std::endian::native == std::endian::little,
                  "wire codec assumes a little-endian host");
    const size_t at = out_.size();
    out_.resize(at + 8);
    std::memcpy(out_.data() + at, &v, 8);
  }

  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }

  // IEEE-754 bit pattern: the round trip is exact, including -0.0 and NaN payloads.
  void PutDouble(double v) { PutU64(std::bit_cast<uint64_t>(v)); }

  void PutBool(bool v) { PutU8(v ? 1 : 0); }

  size_t size() const { return out_.size(); }

 private:
  std::vector<uint8_t>& out_;
};

class ByteReader {
 public:
  ByteReader() = default;
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  Status GetU8(uint8_t* v) {
    if (pos_ + 1 > size_) {
      return DataLossError("wire payload truncated (u8)");
    }
    *v = data_[pos_++];
    return Status::Ok();
  }

  Status GetU32(uint32_t* v) {
    if (pos_ + 4 > size_) {
      return DataLossError("wire payload truncated (u32)");
    }
    uint32_t out = 0;
    for (int i = 0; i < 4; ++i) {
      out |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    *v = out;
    return Status::Ok();
  }

  Status GetU64(uint64_t* v) {
    if (pos_ + 8 > size_) {
      return DataLossError("wire payload truncated (u64)");
    }
    uint64_t out = 0;
    for (int i = 0; i < 8; ++i) {
      out |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    *v = out;
    return Status::Ok();
  }

  Status GetI64(int64_t* v) {
    uint64_t raw = 0;
    if (Status s = GetU64(&raw); !s.ok()) {
      return s;
    }
    *v = static_cast<int64_t>(raw);
    return Status::Ok();
  }

  Status GetDouble(double* v) {
    uint64_t raw = 0;
    if (Status s = GetU64(&raw); !s.ok()) {
      return s;
    }
    *v = std::bit_cast<double>(raw);
    return Status::Ok();
  }

  Status GetBool(bool* v) {
    uint8_t raw = 0;
    if (Status s = GetU8(&raw); !s.ok()) {
      return s;
    }
    if (raw > 1) {
      return DataLossError("wire bool out of range");
    }
    *v = raw != 0;
    return Status::Ok();
  }

  // Hands back a reader bounded to the next `len` bytes and moves past them, or fails with
  // DATA_LOSS without moving. Length-prefixed payloads (journal units, argv entries) are read
  // through it.
  Status Take(size_t len, ByteReader* part) {
    if (len > remaining()) {
      return DataLossError("wire payload truncated (take)");
    }
    *part = ByteReader(data_ + pos_, len);
    pos_ += len;
    return Status::Ok();
  }

  const uint8_t* data() const { return data_; }
  size_t remaining() const { return size_ - pos_; }

  // A restored payload must be consumed exactly: trailing garbage means the frame was not
  // what the serializer wrote, and that is loss, not tolerance.
  Status ExpectEnd() const {
    if (pos_ != size_) {
      return DataLossError("wire payload has trailing bytes");
    }
    return Status::Ok();
  }

 private:
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  size_t pos_ = 0;
};

// size_t and uint64_t are distinct types on some LP64 hosts; both travel as u64.
template <class T>
concept WireU64 = std::unsigned_integral<T> && sizeof(T) == 8;

// Encoding half of the field visitor (see the header comment).
class WireOut {
 public:
  explicit WireOut(ByteWriter& w) : w_(w) {}

  template <std::same_as<uint8_t>... T>
  void U8(const T&... v) { (w_.PutU8(v), ...); }
  template <std::same_as<uint32_t>... T>
  void U32(const T&... v) { (w_.PutU32(v), ...); }
  template <WireU64... T>
  void U64(const T&... v) { (w_.PutU64(v), ...); }
  template <std::same_as<int64_t>... T>
  void I64(const T&... v) { (w_.PutI64(v), ...); }
  template <std::same_as<SimTime>... T>
  void Time(const T&... t) { (w_.PutI64(t.seconds()), ...); }
  void F64(const double& v) { w_.PutDouble(v); }
  void Bool(const bool& v) { w_.PutBool(v); }
  void Int(const int& v) { w_.PutI64(v); }
  template <class E>
  void Enum(const E& v, size_t /*count*/, const char* /*what*/) {
    w_.PutU8(static_cast<uint8_t>(v));
  }
  // An RNG cursor: the Rng::kStateWords words of Rng::SaveState.
  void RngCursor(const Rng& rng) {
    uint64_t words[Rng::kStateWords];
    rng.SaveState(words);
    for (uint64_t word : words) {
      w_.PutU64(word);
    }
  }
  // A counted sequence: u32 count, then each element through `field`, in container order.
  template <class C, class F>
  void Seq(const C& items, F&& field) {
    w_.PutU32(static_cast<uint32_t>(items.size()));
    for (const auto& item : items) {
      field(item);
    }
  }
  // A map with u64 keys: u32 count, then key and value per entry, in the map's key order.
  template <class M, class F>
  void Map(const M& map, F&& value) {
    w_.PutU32(static_cast<uint32_t>(map.size()));
    for (const auto& [key, mapped] : map) {
      U64(key);
      value(mapped);
    }
  }
  // A nested durable unit, through its own SaveDurableState.
  template <class U>
  void Durable(const U& unit) {
    unit.SaveDurableState(w_);
  }
  void Require(bool /*holds*/, const char* /*what*/) {}

 private:
  ByteWriter& w_;
};

// Decoding half of the field visitor: same calls, sticky DATA_LOSS status.
class WireIn {
 public:
  explicit WireIn(ByteReader& r) : r_(r) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  template <std::same_as<uint8_t>... T>
  void U8(T&... v) { (Read(&ByteReader::GetU8, v), ...); }
  template <std::same_as<uint32_t>... T>
  void U32(T&... v) { (Read(&ByteReader::GetU32, v), ...); }
  template <WireU64... T>
  void U64(T&... v) { (Read(&ByteReader::GetU64, v), ...); }
  template <std::same_as<int64_t>... T>
  void I64(T&... v) { (Read(&ByteReader::GetI64, v), ...); }
  template <std::same_as<SimTime>... T>
  void Time(T&... t) { (ReadTime(t), ...); }
  void F64(double& v) { Read(&ByteReader::GetDouble, v); }
  void Bool(bool& v) { Read(&ByteReader::GetBool, v); }
  void Int(int& v) { Read(&ByteReader::GetI64, v); }
  // An enum travels as a u8 below `count`; a larger byte is DATA_LOSS with message `what`.
  template <class E>
  void Enum(E& v, size_t count, const char* what) {
    uint8_t raw = 0;
    Read(&ByteReader::GetU8, raw);
    Require(raw < count, what);
    if (ok()) {
      v = static_cast<E>(raw);
    }
  }
  void RngCursor(Rng& rng) {
    uint64_t words[Rng::kStateWords] = {};
    for (uint64_t& word : words) {
      U64(word);
    }
    if (ok()) {
      rng.RestoreState(words);
    }
  }
  // Replaces `items` with the decoded elements. Nothing is reserved from the decoded count:
  // the loop stops at the first failure, so a corrupt count costs at most the payload's size.
  template <class C, class F>
  void Seq(C& items, F&& field) {
    uint32_t count = 0;
    U32(count);
    items.clear();
    for (uint32_t i = 0; i < count && ok(); ++i) {
      typename C::value_type item{};
      field(item);
      items.insert(items.end(), std::move(item));
    }
  }
  template <class M, class F>
  void Map(M& map, F&& value) {
    uint32_t count = 0;
    U32(count);
    map.clear();
    for (uint32_t i = 0; i < count && ok(); ++i) {
      typename M::key_type key{};
      typename M::mapped_type mapped{};
      U64(key);
      value(mapped);
      map.insert_or_assign(map.end(), key, std::move(mapped));
    }
  }
  template <class U>
  void Durable(U& unit) {
    if (ok()) {
      status_ = unit.LoadDurableState(r_);
    }
  }
  void Require(bool holds, const char* what) {
    if (ok() && !holds) {
      status_ = DataLossError(what);
    }
  }

 private:
  template <class T, class Raw>
  void Read(Status (ByteReader::*get)(Raw*), T& v) {
    if (!ok()) {
      return;
    }
    Raw raw{};
    Status read = (r_.*get)(&raw);
    if (read.ok()) {
      v = static_cast<T>(raw);
    } else {
      status_ = std::move(read);
    }
  }
  void ReadTime(SimTime& t) {
    int64_t seconds = 0;
    Read(&ByteReader::GetI64, seconds);
    if (ok()) {
      t = SimTime::Seconds(seconds);
    }
  }

  ByteReader& r_;
  Status status_;
};

// All-or-nothing decode: `fields(copy, in)` runs on a copy of `target`, which replaces
// `target` only if every field decoded and every Require held.
template <class T, class Fields>
Status WireLoad(ByteReader& r, T& target, Fields&& fields) {
  T decoded = target;
  WireIn in(r);
  fields(decoded, in);
  if (in.ok()) {
    target = std::move(decoded);
  }
  return in.status();
}

}  // namespace mercurial

#endif  // MERCURIAL_SRC_COMMON_WIRE_H_
