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
//   * WireIn's reads are inline too: ByteReader::Read bounds-checks a word and returns bool,
//     and WireIn builds its DATA_LOSS status, out of line, only at the first failure. Recovery
//     decodes a whole snapshot and every replayed tick frame field by field, so a Status per
//     field would be most of its cost.
//   * Seq appends decoded elements one at a time, so a corrupt count costs at most the
//     payload's size. A call site that knows its element's fixed wire size passes it, and the
//     vector first reserves min(count, remaining bytes / that size): never more than the
//     payload can hold.
//   * WireLoad decodes into a copy of the unit, or into an empty unit of the same shape that
//     the caller passes, and commits it only when the whole payload decoded, so a failed load
//     leaves the unit exactly as it was.

#ifndef MERCURIAL_SRC_COMMON_WIRE_H_
#define MERCURIAL_SRC_COMMON_WIRE_H_

#include <algorithm>
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

// The DATA_LOSS message of a short read of a u8, u32 or u64.
template <class T>
inline constexpr const char* kWireTruncated = sizeof(T) == 1   ? "wire payload truncated (u8)"
                                              : sizeof(T) == 4 ? "wire payload truncated (u32)"
                                                               : "wire payload truncated (u64)";

class ByteReader {
 public:
  ByteReader() = default;
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  // Bounds-checked little-endian read of a u8, u32 or u64: false, without moving and without
  // touching `v`, when fewer bytes remain. WireIn reads through it; the Status getters below
  // wrap it for the journal's frame and section parsing.
  template <class T>
    requires std::same_as<T, uint8_t> || std::same_as<T, uint32_t> || std::same_as<T, uint64_t>
  bool Read(T* v) {
    static_assert(std::endian::native == std::endian::little,
                  "wire codec assumes a little-endian host");
    if (remaining() < sizeof(T)) {
      return false;
    }
    std::memcpy(v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  Status GetU8(uint8_t* v) { return Get(v); }
  Status GetU32(uint32_t* v) { return Get(v); }
  Status GetU64(uint64_t* v) { return Get(v); }

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
  template <class T>
  Status Get(T* v) {
    return Read(v) ? Status::Ok() : DataLossError(kWireTruncated<T>);
  }

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
  // The same bytes; each element's fixed wire size matters only to WireIn.
  template <class C, class F>
  void Seq(const C& items, size_t /*element_bytes*/, F&& field) {
    Seq(items, field);
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
  void U8(T&... v) { (Read(v), ...); }
  template <std::same_as<uint32_t>... T>
  void U32(T&... v) { (Read(v), ...); }
  template <WireU64... T>
  void U64(T&... v) { (ReadAs<uint64_t>(v), ...); }
  template <std::same_as<int64_t>... T>
  void I64(T&... v) { (ReadAs<uint64_t>(v), ...); }
  template <std::same_as<SimTime>... T>
  void Time(T&... t) { (ReadTime(t), ...); }
  void F64(double& v) {
    uint64_t raw = 0;
    if (Read(raw)) {
      v = std::bit_cast<double>(raw);
    }
  }
  void Bool(bool& v) {
    uint8_t raw = 0;
    if (Read(raw)) {
      Require(raw <= 1, "wire bool out of range");
      if (ok()) {
        v = raw != 0;
      }
    }
  }
  void Int(int& v) { ReadAs<uint64_t>(v); }
  // An enum travels as a u8 below `count`; a larger byte is DATA_LOSS with message `what`.
  template <class E>
  void Enum(E& v, size_t count, const char* what) {
    uint8_t raw = 0;
    if (Read(raw)) {
      Require(raw < count, what);
      if (ok()) {
        v = static_cast<E>(raw);
      }
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
  // Replaces `items` with the decoded elements. The loop stops at the first failure, so a
  // corrupt count costs at most the payload's size, and nothing is reserved from the count.
  template <class C, class F>
  void Seq(C& items, F&& field) {
    uint32_t count = 0;
    U32(count);
    items.clear();
    AppendElements(items, count, field);
  }
  // The same for a vector whose elements take exactly `element_bytes` each on the wire: it
  // first reserves min(count, remaining bytes / element_bytes), which no corrupt count can push
  // past what the payload holds.
  template <class T, class F>
  void Seq(std::vector<T>& items, size_t element_bytes, F&& field) {
    uint32_t count = 0;
    U32(count);
    items.clear();
    items.reserve(std::min<size_t>(count, r_.remaining() / element_bytes));
    AppendElements(items, count, field);
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
      Fail(what);
    }
  }

 private:
  // Reads one word into `raw`, or records DATA_LOSS if this is the first failure. False once
  // any read or check has failed, leaving `raw` as it was.
  template <class Raw>
  bool Read(Raw& raw) {
    if (!ok()) {
      return false;
    }
    if (r_.Read(&raw)) {
      return true;
    }
    Fail(kWireTruncated<Raw>);
    return false;
  }
  // Appends up to `count` decoded elements, none past the first failure.
  template <class C, class F>
  void AppendElements(C& items, uint32_t count, F& field) {
    for (uint32_t i = 0; i < count; ++i) {
      typename C::value_type item{};
      field(item);
      if (!ok()) {
        return;
      }
      items.insert(items.end(), std::move(item));
    }
  }
  template <class Raw, class T>
  void ReadAs(T& v) {
    Raw raw = 0;
    if (Read(raw)) {
      v = static_cast<T>(raw);
    }
  }
  void ReadTime(SimTime& t) {
    uint64_t raw = 0;
    if (Read(raw)) {
      t = SimTime::Seconds(static_cast<int64_t>(raw));
    }
  }
  // The one place a Status is built: out of line, off every successful read's path.
  [[gnu::cold, gnu::noinline]] void Fail(const char* what) { status_ = DataLossError(what); }

  ByteReader& r_;
  Status status_;
};

// All-or-nothing decode: `fields(decoded, in)` runs on `decoded`, which replaces `target` only
// if every field decoded and every Require held. `decoded` is a copy of `target` unless the
// caller passes its own: a unit whose field list replaces all of its durable state can pass an
// empty unit of the same shape and skip the copy.
template <class T, class Fields>
Status WireLoad(ByteReader& r, T& target, T decoded, Fields&& fields) {
  WireIn in(r);
  fields(decoded, in);
  if (in.ok()) {
    target = std::move(decoded);
  }
  return in.status();
}
template <class T, class Fields>
Status WireLoad(ByteReader& r, T& target, Fields&& fields) {
  return WireLoad(r, target, T(target), fields);
}

}  // namespace mercurial

#endif  // MERCURIAL_SRC_COMMON_WIRE_H_
