// The column seam of the pool-backed backends: one column, two formats.
//
// Every pool-backed image (storage/image.h) is a set of uint32 or uint8
// columns -- the doc encoding's post/kind/level/parent/tag and every tag
// fragment's pre/post -- and a join reads a column only through a value
// at an index, a forward jump, and the page an index lives on (for
// prefetch hints). A column *format* supplies exactly that:
//
//   * Write: lays a column out on disk pages (optionally collecting the
//     first value of every stride as resident fence keys);
//   * Cursor<T>: At(index, &status), SkipTo(index), PageFor(index) and
//     Hint(index) -- holding at most one pinned page, announcing its
//     readahead page on every page switch;
//   * kValidates and Validate: whether an adopted column image is
//     re-read at open, and that check.
//
// Two formats exist. RawFormat stores values verbatim, kPageSize /
// sizeof(T) per page (2,048 uint32 or 8,192 uint8): a read is one copy
// out of the pinned page, and there is nothing to re-read at open.
// BlockFormat stores block-wise FOR/delta images (encoding/block_codec.h)
// packed first-fit onto pages: a read decodes the block once per visit,
// the column faults a fraction of the raw pages, and Validate re-reads
// every block against the digest of the encoded bytes. Everything above
// this file -- the doc and tag images, the DocAccessor and the
// FragmentCursor -- is written once over the format, so the format is
// the only decision that differs between StorageBackend::kPaged and
// kCompressed. Only this file (and its .cc) may call the block codec
// under src/storage/ (sj-lint rule column-format).

#ifndef STAIRJOIN_STORAGE_COLUMN_H_
#define STAIRJOIN_STORAGE_COLUMN_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "encoding/block_codec.h"
#include "storage/buffer_pool.h"

namespace sj::storage {

// Column pages and digests are defined over little-endian values.
static_assert(std::endian::native == std::endian::little);

/// FNV-1a offset basis.
inline constexpr uint64_t kFnvBasis = 0xCBF29CE484222325ULL;

/// Continues an FNV-1a digest over raw bytes: the one mixing step of the
/// source digests (storage/image.h) and the encoded-block digests.
uint64_t FnvMix(uint64_t h, std::span<const uint8_t> bytes);

/// Continues an FNV-1a digest over a column's little-endian bytes.
template <typename T>
uint64_t FnvMix(uint64_t h, std::span<const T> values) {
  return FnvMix(h, std::span<const uint8_t>(
                       reinterpret_cast<const uint8_t*>(values.data()),
                       values.size_bytes()));
}

/// Keeps at most one page pinned; switching to another page unpins the
/// previous one. Sequential scans touch each page of their range once.
class PageGuard {
 public:
  explicit PageGuard(BufferPool* pool) : pool_(pool) {}
  ~PageGuard() { Release(); }
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;

  /// The bytes of page `id` if it is the held page, else nullptr.
  const uint8_t* Held(PageId id) const {
    return holding_ && id == held_ ? data_ : nullptr;
  }

  /// The bytes of page `id`, pinning it if needed; nullptr on pool
  /// failure (the error lands in `status` if it is still OK).
  const uint8_t* Get(PageId id, Status* status) {
    if (holding_ && id == held_) return data_;
    Release();
    Result<const uint8_t*> pinned = pool_->Pin(id);
    if (!pinned.ok()) {
      if (status->ok()) *status = pinned.status();
      return nullptr;
    }
    data_ = pinned.value();
    held_ = id;
    holding_ = true;
    return data_;
  }

  /// Unpins the held page unless it is page `id`.
  void ReleaseUnless(PageId id) {
    if (holding_ && held_ != id) Release();
  }

  void Release() {
    if (holding_) {
      (void)pool_->Unpin(held_);
      holding_ = false;
    }
  }

  /// True while a page is pinned (i.e. the column is actively scanning).
  bool holding() const { return holding_; }

  /// The pinned page id (meaningful only while holding()).
  PageId held() const { return held_; }

  /// Announces that the next read moves this guard to `page`, with
  /// `next()` as the column's following page (the readahead window): when
  /// the column is actively scanning elsewhere and prefetching is on,
  /// both pages are handed to BufferPool::Prefetch as one batched
  /// fault. Cursors call this right before Get on every page switch, so
  /// sequential boundary crossings batch exactly like SkipTo leaps --
  /// and since a scan that crossed into `page` usually keeps going,
  /// `next` rides the same seek for the cheap per-page transfer cost
  /// instead of its own synchronous fault. `next()` returns `page` at
  /// end-of-column (the duplicate is dropped, leaving a degenerate
  /// single-page hint that Prefetch ignores). No-op when not scanning,
  /// not switching, or prefetch is off -- and then `next()` is never
  /// called, so a format may search for its readahead page in it.
  template <typename NextPage>
  void AnnounceSwitch(PageId page, NextPage next) {
    if (!holding_ || held_ == page || !pool_->prefetch_enabled()) return;
    const PageId hints[2] = {page, next()};
    pool_->Prefetch(hints);
  }

 private:
  BufferPool* pool_;
  PageId held_ = 0;
  bool holding_ = false;
  const uint8_t* data_ = nullptr;
};

/// Appends `target` to the hint list `out` iff `guard` is actively
/// scanning (holding a page) and the jump moves it to a different page
/// -- the two signals that the kernel reads this column and that the
/// read will fault without help.
inline void AddSkipHint(const PageGuard& guard, PageId target, PageId* out,
                        size_t* count) {
  if (guard.holding() && guard.held() != target) out[(*count)++] = target;
}

/// \brief What every format's column cursor shares: the column, the
/// guard of its one pinned page, forward jumps and SkipTo hints. The
/// format cursor `Derived` supplies PageFor(index) and its read path.
template <typename Derived, typename Column>
class ColumnCursorBase {
 public:
  /// A kernel jumps to `index`: drop the held page unless `index` lives
  /// on it (pages in between are never read).
  void SkipTo(uint64_t index) {
    if (index >= col_->values) {
      guard_.Release();
      return;
    }
    guard_.ReleaseUnless(self().PageFor(index));
  }

  /// Adds PageFor(index) to a SkipTo hint list when `index` is in range
  /// and the cursor is scanning another page (AddSkipHint).
  void Hint(uint64_t index, PageId* out, size_t* count) const {
    if (index < col_->values) {
      AddSkipHint(guard_, self().PageFor(index), out, count);
    }
  }

 protected:
  ColumnCursorBase(const Column& col, BufferPool* pool)
      : col_(&col), guard_(pool) {}

  const Column* col_;
  PageGuard guard_;

 private:
  const Derived& self() const { return static_cast<const Derived&>(*this); }
};

// --- raw format -------------------------------------------------------------

/// One column stored verbatim: page i holds values [i * per_page, ...),
/// zero-padded, where per_page = kPageSize / sizeof(value).
struct RawColumn {
  uint64_t values = 0;
  std::vector<PageId> pages;
  /// Bytes of the values themselves (for size reporting).
  uint64_t encoded_bytes = 0;
};

/// \brief Column cursor over a RawColumn of T values (see file comment).
template <typename T>
class RawColumnCursor
    : public ColumnCursorBase<RawColumnCursor<T>, RawColumn> {
  using Base = ColumnCursorBase<RawColumnCursor<T>, RawColumn>;
  using Base::col_;
  using Base::guard_;

 public:
  /// Values per page: the unit of SkipTo readahead and of fence keys.
  static constexpr uint64_t kStride = kPageSize / sizeof(T);

  RawColumnCursor(const RawColumn& col, BufferPool* pool) : Base(col, pool) {}

  /// Value at `index`; 0 after a failure (recorded in *status).
  T At(uint64_t index, Status* status) {
    const size_t p = static_cast<size_t>(index / kStride);
    const uint8_t* page = guard_.Held(col_->pages[p]);
    if (page == nullptr) [[unlikely]] {
      page = Switch(p, status);
      if (page == nullptr) return 0;
    }
    T value;
    std::memcpy(&value, page + (index % kStride) * sizeof(T), sizeof(T));
    return value;
  }

  /// The disk page holding `index`.
  PageId PageFor(uint64_t index) const {
    return col_->pages[static_cast<size_t>(index / kStride)];
  }

 private:
  /// Moves to page `p`, announcing the column's next page as the
  /// readahead window.
  const uint8_t* Switch(size_t p, Status* status) {
    const std::vector<PageId>& pages = col_->pages;
    guard_.AnnounceSwitch(pages[p], [&pages, p] {
      return pages[p + 1 < pages.size() ? p + 1 : p];
    });
    return guard_.Get(pages[p], status);
  }
};

struct RawFormat {
  using Column = RawColumn;
  template <typename T>
  using Cursor = RawColumnCursor<T>;

  /// Lays `values` out verbatim on fresh pages of `disk`; with `fences`,
  /// appends the first value of every page to it.
  template <typename T>
  static Status Write(SimulatedDisk* disk, std::span<const T> values,
                      Column* column, std::vector<T>* fences = nullptr);

  /// Raw pages carry no digest of their own: the source digest of the
  /// image is the whole check, so images skip the Validate pass.
  static constexpr bool kValidates = false;
};

// --- block format -----------------------------------------------------------

/// One encoded block's location in the disk image. Blocks never span
/// pages; several blocks share a page.
struct BlockRef {
  PageId page = 0;
  uint16_t offset = 0;  ///< byte offset of the block inside its page
  uint16_t bytes = 0;   ///< encoded size, header included
};

/// One column stored as FOR/delta blocks: resident block directory plus
/// the digest of the encoded bytes.
struct BlockColumn {
  /// Total decoded values (block b holds values
  /// [b * kBlockValues, ...), the last block possibly short).
  uint64_t values = 0;
  std::vector<BlockRef> blocks;
  /// Pages of this column's image, in allocation order.
  std::vector<PageId> pages;
  /// FNV-1a over the encoded block bytes, in block order.
  uint64_t image_digest = 0;
  /// Total encoded bytes (for compression-ratio reporting).
  uint64_t encoded_bytes = 0;

  /// Number of values decoded from block `b`.
  size_t BlockValueCount(size_t b) const {
    const uint64_t start = static_cast<uint64_t>(b) * encoding::kBlockValues;
    return static_cast<size_t>(
        std::min<uint64_t>(encoding::kBlockValues, values - start));
  }
};

/// \brief Column cursor over a BlockColumn of T values: a PageGuard over
/// the block's page plus the decoded block cached in the frame. A block
/// is decoded at most once per visit; blocks sharing a page cost a
/// single pin per visit. The decoded cache survives SkipTo -- it is a
/// copy.
template <typename T>
class BlockColumnCursor
    : public ColumnCursorBase<BlockColumnCursor<T>, BlockColumn> {
  using Base = ColumnCursorBase<BlockColumnCursor<T>, BlockColumn>;
  using Base::col_;
  using Base::guard_;

 public:
  /// Values per block: the unit of SkipTo readahead and of fence keys.
  static constexpr uint64_t kStride = encoding::kBlockValues;

  BlockColumnCursor(const BlockColumn& col, BufferPool* pool)
      : Base(col, pool) {}

  /// Decoded value at `index`; 0 after a failure (recorded in *status).
  T At(uint64_t index, Status* status) {
    const size_t b = static_cast<size_t>(index / kStride);
    if (b != block_ && !Load(b, status)) return 0;
    return static_cast<T>(decoded_[index % kStride]);
  }

  /// The disk page holding `index`'s block.
  PageId PageFor(uint64_t index) const {
    return col_->blocks[static_cast<size_t>(index / kStride)].page;
  }

 private:
  bool Load(size_t b, Status* status) {
    const BlockRef& ref = col_->blocks[b];
    // The readahead page of a block column is its next *page*: several
    // blocks share a page, so it is the page of the first block past
    // the landing page -- block page ids are non-decreasing (the writer
    // appends), hence the binary search, run only when the hint is sent.
    // Clamps to the landing page on the last page.
    guard_.AnnounceSwitch(ref.page, [this, b, &ref] {
      const std::vector<BlockRef>& blocks = col_->blocks;
      auto it = std::upper_bound(
          blocks.begin() + static_cast<ptrdiff_t>(b), blocks.end(), ref.page,
          [](PageId p, const BlockRef& r) { return p < r.page; });
      return it != blocks.end() ? it->page : ref.page;
    });
    const uint8_t* page = guard_.Get(ref.page, status);
    if (page == nullptr) return false;
    Status decoded = encoding::DecodeBlock(
        page + ref.offset, ref.bytes, col_->BlockValueCount(b), decoded_);
    if (!decoded.ok()) {
      if (status->ok()) *status = decoded;
      return false;
    }
    block_ = b;
    return true;
  }

  size_t block_ = static_cast<size_t>(-1);
  uint32_t decoded_[encoding::kBlockValues];
};

struct BlockFormat {
  using Column = BlockColumn;
  template <typename T>
  using Cursor = BlockColumnCursor<T>;

  /// Encodes `values` block-wise onto `disk`: blocks are packed
  /// first-fit onto fresh pages (never spanning one), the directory and
  /// the image digest land in `column`. With `fences`, appends the first
  /// value of every block to it.
  template <typename T>
  static Status Write(SimulatedDisk* disk, std::span<const T> values,
                      Column* column, std::vector<T>* fences = nullptr);

  static constexpr bool kValidates = true;

  /// Recomputes `column`'s image digest from the disk image and compares
  /// it with the captured one; a mismatch (or a directory entry that
  /// overruns its page) fails with InvalidArgument naming `what`.
  static Status Validate(const SimulatedDisk& disk, const Column& column,
                         const std::string& what);
};

}  // namespace sj::storage

#endif  // STAIRJOIN_STORAGE_COLUMN_H_
