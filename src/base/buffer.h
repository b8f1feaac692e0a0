#ifndef TBM_BASE_BUFFER_H_
#define TBM_BASE_BUFFER_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "base/bytes.h"

namespace tbm {

class Buffer;

/// Shared, ref-counted handle to an immutable Buffer. A buffer stays
/// alive for as long as any BufferRef (or any BufferSlice over it)
/// does, wherever it came from — a BLOB store's backing array, a page
/// cache entry, a decoder's output. This is the ownership substrate of
/// the zero-copy read and derivation paths.
using BufferRef = std::shared_ptr<const Buffer>;

/// A ref-counted byte buffer, immutable once published.
///
/// The paper's storage argument (Def. 6, Table 1) needs derivations
/// that change only *timing* to cost orders of magnitude less than the
/// media they reference; that only works if the same physical pixels
/// can be aliased by many logical values. Buffer is that single
/// physical copy: every layer (blob stores, element assembly, codecs,
/// derivation values) holds slices of buffers instead of freshly
/// owned vectors.
///
/// Write-once contract: a producer may fill bytes through
/// `mutable_data()` *before* handing out any slice over them. Bytes
/// below any published slice's extent must never be rewritten.
/// Consumers only ever see const bytes.
class Buffer {
 public:
  /// Takes ownership of `bytes` (no copy — the vector is moved into
  /// the buffer and its heap block becomes the payload).
  static BufferRef FromBytes(Bytes bytes);

  /// Allocates a new buffer holding a copy of `span`.
  static BufferRef CopyOf(ByteSpan span);

  /// Aliases external memory kept alive by `owner` (e.g. a
  /// std::vector<int16_t> viewed as bytes). `data` must stay valid for
  /// `owner`'s lifetime.
  static BufferRef Wrap(const void* data, size_t size,
                        std::shared_ptr<const void> owner);

  /// Like Wrap, but the wrapped memory is producer-writable: the
  /// returned buffer exposes `data` through mutable_data() under the
  /// usual write-once contract. Used for owned vectors that may still
  /// be filled (or, when a value holds the only reference, mutated in
  /// place by the fused derivation executor) before any sibling slice
  /// is published.
  static BufferRef WrapMutable(void* data, size_t size,
                               std::shared_ptr<const void> owner);

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  ByteSpan span() const { return ByteSpan(data_, size_); }

  /// Process-unique identity, used to dedup *resident* byte
  /// accounting: two slices share physical storage iff their buffers
  /// have equal ids. Never 0.
  uint64_t id() const { return id_; }

  /// Fill access for the producing layer (see the write-once contract
  /// above). Null for buffers wrapping external const memory. Const so
  /// a producer can fill spare capacity through a BufferRef — the
  /// contract (never rewrite published bytes) is the real guard.
  uint8_t* mutable_data() const { return writable_; }

 private:
  Buffer(const uint8_t* data, uint8_t* writable, size_t size,
         std::shared_ptr<const void> owner);

  const uint8_t* data_;
  uint8_t* writable_;
  size_t size_;
  std::shared_ptr<const void> owner_;
  uint64_t id_;
};

/// A zero-copy view of a byte range inside a ref-counted Buffer.
///
/// BufferSlice is the library's unit of byte ownership: reading a BLOB
/// range, pulling a chunk, decoding an element and holding a frame's
/// pixels all yield slices, so the bytes are copied (at most) once —
/// when they enter memory — and aliased everywhere after.
///
/// The read API mirrors a const std::vector<uint8_t>, so consumers
/// iterate, index and measure slices exactly as they did owned Bytes.
/// Mutation is *explicitly* copy-on-write: `MutableCopy()` returns an
/// owned Bytes copy; writing it back (assignment from Bytes re-wraps
/// without copying) never affects sibling slices of the old buffer.
///
/// An empty slice needs no buffer; default construction is cheap.
class BufferSlice {
 public:
  BufferSlice() = default;

  /// Views all of `buffer` (which may be null — empty slice).
  BufferSlice(BufferRef buffer)  // NOLINT: implicit by design
      : buffer_(std::move(buffer)) {
    length_ = buffer_ ? buffer_->size() : 0;
  }

  /// Views `[offset, offset + length)` of `buffer`. The range is
  /// clamped to the buffer's extent.
  BufferSlice(BufferRef buffer, size_t offset, size_t length);

  /// Wraps an owned byte vector without copying (the vector is moved
  /// into a fresh buffer). Implicit so the pervasive pre-refactor
  /// idiom `slice_field = BuildBytes()` keeps working, now zero-copy.
  BufferSlice(Bytes bytes)  // NOLINT: implicit by design
      : BufferSlice(bytes.empty() ? nullptr
                                  : Buffer::FromBytes(std::move(bytes))) {}

  /// A slice over a fresh buffer holding a copy of `span`.
  static BufferSlice CopyOf(ByteSpan span);

  const uint8_t* data() const {
    return buffer_ ? buffer_->data() + offset_ : nullptr;
  }
  size_t size() const { return length_; }
  bool empty() const { return length_ == 0; }
  uint8_t operator[](size_t i) const { return data()[i]; }
  const uint8_t* begin() const { return data(); }
  const uint8_t* end() const { return data() + length_; }
  uint8_t front() const { return data()[0]; }
  uint8_t back() const { return data()[length_ - 1]; }

  ByteSpan span() const { return ByteSpan(data(), length_); }

  /// Sub-view sharing the same buffer; `[pos, pos + count)` is clamped
  /// to this slice's extent. O(1), no copy.
  BufferSlice Slice(size_t pos, size_t count) const;

  /// Explicit copy-on-write escape hatch: an owned, independent copy
  /// of the viewed bytes. Writes to it can never reach sibling slices.
  Bytes MutableCopy() const { return Bytes(begin(), end()); }

  /// The underlying buffer (null for empty slices).
  const BufferRef& buffer() const { return buffer_; }

  /// Identity of the underlying buffer, 0 if none. Slices with equal
  /// buffer_id() share physical bytes.
  uint64_t buffer_id() const { return buffer_ ? buffer_->id() : 0; }

  /// Offset of this view within its buffer.
  size_t offset() const { return offset_; }

  /// True iff both slices view the same underlying buffer.
  bool SharesBufferWith(const BufferSlice& other) const {
    return buffer_ != nullptr && buffer_ == other.buffer_;
  }

  /// Byte-wise equality (contents, not identity).
  friend bool operator==(const BufferSlice& a, const BufferSlice& b) {
    return a.length_ == b.length_ &&
           (a.length_ == 0 ||
            std::memcmp(a.data(), b.data(), a.length_) == 0);
  }
  friend bool operator==(const BufferSlice& a, const Bytes& b) {
    return a.length_ == b.size() &&
           (b.empty() || std::memcmp(a.data(), b.data(), b.size()) == 0);
  }
  friend bool operator==(const Bytes& a, const BufferSlice& b) {
    return b == a;
  }

 private:
  BufferRef buffer_;
  size_t offset_ = 0;
  size_t length_ = 0;
};

/// A zero-copy, typed view of element data inside a ref-counted
/// Buffer — the slice form of std::vector<T> for POD sample types.
/// AudioBuffer holds a TypedSlice<int16_t> so audio timing derivations
/// (cut, excerpt) alias their source samples instead of copying them.
///
/// Same contract as BufferSlice: const-vector read API, explicit COW
/// via MutableCopy(), implicit zero-copy wrap of an owned vector.
template <typename T>
class TypedSlice {
  static_assert(std::is_trivially_copyable_v<T>,
                "TypedSlice requires a trivially copyable element type");

 public:
  TypedSlice() = default;

  /// Wraps an owned vector without copying its elements. The buffer is
  /// producer-writable (the vector is exclusively owned here), which
  /// lets the fused derivation executor transform samples in place when
  /// a value holds the only reference to them.
  TypedSlice(std::vector<T> v) {  // NOLINT: implicit by design
    if (v.empty()) return;
    auto owner = std::make_shared<std::vector<T>>(std::move(v));
    count_ = owner->size();
    T* elements = owner->data();  // Read before `owner` is moved from.
    buffer_ =
        Buffer::WrapMutable(elements, count_ * sizeof(T), std::move(owner));
  }

  /// A slice over a fresh buffer copying `[p, p + n)`.
  static TypedSlice CopyOf(const T* p, size_t n) {
    return TypedSlice(std::vector<T>(p, p + n));
  }

  const T* data() const {
    return buffer_ == nullptr
               ? nullptr
               : reinterpret_cast<const T*>(buffer_->data()) + offset_;
  }
  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  const T& operator[](size_t i) const { return data()[i]; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + count_; }
  const T& front() const { return data()[0]; }
  const T& back() const { return data()[count_ - 1]; }

  /// Sub-view (in elements) sharing the same buffer; clamped. O(1).
  TypedSlice Slice(size_t pos, size_t count) const {
    TypedSlice out;
    if (pos >= count_) return out;
    out.buffer_ = buffer_;
    out.offset_ = offset_ + pos;
    out.count_ = std::min(count, count_ - pos);
    if (out.count_ == 0) out.buffer_ = nullptr;
    return out;
  }

  /// Explicit copy-on-write: an owned, independent element copy.
  std::vector<T> MutableCopy() const { return std::vector<T>(begin(), end()); }

  const BufferRef& buffer() const { return buffer_; }
  uint64_t buffer_id() const { return buffer_ ? buffer_->id() : 0; }
  bool SharesBufferWith(const TypedSlice& other) const {
    return buffer_ != nullptr && buffer_ == other.buffer_;
  }

  friend bool operator==(const TypedSlice& a, const TypedSlice& b) {
    return a.count_ == b.count_ &&
           (a.count_ == 0 ||
            std::memcmp(a.data(), b.data(), a.count_ * sizeof(T)) == 0);
  }
  friend bool operator==(const TypedSlice& a, const std::vector<T>& b) {
    return a.count_ == b.size() &&
           (b.empty() ||
            std::memcmp(a.data(), b.data(), b.size() * sizeof(T)) == 0);
  }
  friend bool operator==(const std::vector<T>& a, const TypedSlice& b) {
    return b == a;
  }

 private:
  BufferRef buffer_;
  size_t offset_ = 0;  ///< In elements, relative to the buffer start.
  size_t count_ = 0;   ///< In elements.
};

/// Interleaved 16-bit PCM sample storage (see codec/pcm.h).
using SampleSlice = TypedSlice<int16_t>;

}  // namespace tbm

#endif  // TBM_BASE_BUFFER_H_
