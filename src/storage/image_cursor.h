// The pool-backed DocAccessor and FragmentCursor, written once over the
// column format (storage/column.h).
//
// ImageDocAccessor implements the DocAccessor concept
// (core/doc_accessor.h) over a DocImage, ImageFragmentCursor the
// FragmentCursor concept (core/fragment_cursor.h) over one fragment of a
// TagImage, so the ONE set of join bodies in core/ runs over either
// format unchanged. Every read goes through a column cursor that pins
// the page holding the value through the BufferPool; sequential scans
// hold one page per column, so each page of a range is pinned once.
// SkipTo releases the pages a jump leaves behind, which is how the
// paper's "nodes never touched" becomes disk pages never read -- and, in
// the block format, compressed pages never read, strictly fewer of them
// than raw pages at equal page size.
//
// Error model: pins and block decodes can fail (e.g. every frame pinned
// in an undersized pool). The cursors are sticky-error -- the first
// failure is recorded, subsequent reads return 0 (LowerBound: size())
// without touching the pool, and the join surfaces status() once
// at the end (kernel loops stay branch-lean and remain bounded because
// reads of 0 still advance the scans).
//
// Prefetch (BufferPool::Prefetch, off by default): a column cursor
// announces its readahead page on every page switch, and SkipTo /
// LowerBound announce the landing page of every column being scanned,
// then one stride ahead of it, as one batched fault.

#ifndef STAIRJOIN_STORAGE_IMAGE_CURSOR_H_
#define STAIRJOIN_STORAGE_IMAGE_CURSOR_H_

#include <algorithm>
#include <vector>

#include "core/doc_accessor.h"
#include "core/fragment_cursor.h"
#include "storage/buffer_pool.h"
#include "storage/column.h"
#include "storage/image.h"

namespace sj::storage {

/// \brief DocAccessor over a DocImage behind a buffer pool.
///
/// Borrows the image and the pool; both must outlive the accessor. One
/// accessor holds up to five pinned pages (one per column actually read;
/// the staircase kernels touch at most post/kind/level, the axis cursors
/// additionally parent/tag). Accessors are not thread-safe, but
/// independent accessors may share one pool (BufferPool is internally
/// synchronized) -- the parallel join gives each worker its own.
template <typename Format>
class ImageDocAccessor {
 public:
  ImageDocAccessor(const DocImage<Format>& doc, BufferPool* pool)
      : size_(doc.size()),
        pool_(pool),
        post_(doc.post(), pool),
        kind_(doc.kind(), pool),
        level_(doc.level(), pool),
        parent_(doc.parent(), pool),
        tag_(doc.tag(), pool) {}

  size_t size() const { return size_; }

  uint32_t Post(uint64_t pre) {
    if (!status_.ok()) return 0;
    return post_.At(pre, &status_);
  }
  uint8_t Kind(uint64_t pre) {
    if (!status_.ok()) return 0;
    return kind_.At(pre, &status_);
  }
  uint8_t Level(uint64_t pre) {
    if (!status_.ok()) return 0;
    return level_.At(pre, &status_);
  }
  NodeId Parent(uint64_t pre) {
    if (!status_.ok()) return 0;
    return parent_.At(pre, &status_);
  }
  TagId Tag(uint64_t pre) {
    if (!status_.ok()) return 0;
    return tag_.At(pre, &status_);
  }

  /// A kernel jumps to pre rank `pre`: release the pages the jump leaves
  /// behind so the pool can evict them, and -- when prefetching is on --
  /// announce the landing pages of the columns being scanned, plus a
  /// one-stride readahead window per column (a leap is usually followed
  /// by a forward scan), so the pool faults them in ONE batched read.
  void SkipTo(uint64_t pre) {
    if (pool_->prefetch_enabled() && pre < size_) {
      PageId hints[10];
      size_t count = 0;
      post_.Hint(pre, hints, &count);
      kind_.Hint(pre, hints, &count);
      level_.Hint(pre, hints, &count);
      parent_.Hint(pre, hints, &count);
      tag_.Hint(pre, hints, &count);
      post_.Hint(pre + post_.kStride, hints, &count);
      kind_.Hint(pre + kind_.kStride, hints, &count);
      level_.Hint(pre + level_.kStride, hints, &count);
      parent_.Hint(pre + parent_.kStride, hints, &count);
      tag_.Hint(pre + tag_.kStride, hints, &count);
      if (count > 0) pool_->Prefetch({hints, count});
    }
    post_.SkipTo(pre);
    kind_.SkipTo(pre);
    level_.SkipTo(pre);
    parent_.SkipTo(pre);
    tag_.SkipTo(pre);
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

 private:
  size_t size_;
  BufferPool* pool_;
  typename Format::template Cursor<uint32_t> post_;
  typename Format::template Cursor<uint8_t> kind_;
  typename Format::template Cursor<uint8_t> level_;
  typename Format::template Cursor<uint32_t> parent_;
  typename Format::template Cursor<uint32_t> tag_;
  Status status_;
};

/// \brief FragmentCursor over one fragment of a TagImage behind a buffer
/// pool.
///
/// Borrows the fragment and the pool; both must outlive the cursor. One
/// cursor holds up to two pinned pages (one per column). LowerBound
/// locates the page or block through the resident fence keys and
/// binary-searches inside it, so a whole-fragment search costs at most
/// one page pin.
template <typename Format>
class ImageFragmentCursor {
 public:
  ImageFragmentCursor(const Fragment<Format>& frag, BufferPool* pool)
      : frag_(&frag),
        pool_(pool),
        pre_(frag.pre, pool),
        post_(frag.post, pool) {}

  size_t size() const { return frag_->size; }

  NodeId Pre(size_t slot) {
    if (!status_.ok()) return 0;
    return pre_.At(slot, &status_);
  }

  uint32_t Post(size_t slot) {
    if (!status_.ok()) return 0;
    return post_.At(slot, &status_);
  }

  /// First slot with pre rank >= `pre` (size() if none, or after a
  /// failure). Fence keys narrow the search to one stride.
  size_t LowerBound(uint64_t pre) {
    if (!status_.ok() || frag_->size == 0) return frag_->size;
    const std::vector<NodeId>& fence = frag_->fence_pre;
    if (pre <= fence.front()) return 0;
    // Last stride whose first pre rank is < `pre`; the answer lies in it
    // (or right past its end, which is the next stride's first slot).
    const size_t stride = static_cast<size_t>(
                              std::lower_bound(fence.begin(), fence.end(),
                                               pre) -
                              fence.begin()) -
                          1;
    size_t lo = stride * kStride;
    size_t hi = std::min<size_t>(lo + kStride, frag_->size);
    // A seek lands here next: the pre stride is read immediately below
    // and the join reads the slot's post rank right after, so announce
    // both pages -- plus a one-stride readahead window for the forward
    // scan that follows -- as one batched fault.
    if (pool_->prefetch_enabled()) {
      PageId hints[4];
      size_t count = 0;
      hints[count++] = pre_.PageFor(lo);
      hints[count++] = post_.PageFor(lo);
      if (lo + kStride < frag_->size) {
        hints[count++] = pre_.PageFor(lo + kStride);
        hints[count++] = post_.PageFor(lo + kStride);
      }
      pool_->Prefetch({hints, count});
    }
    while (lo < hi) {
      size_t mid = lo + (hi - lo) / 2;
      if (pre_.At(mid, &status_) < pre) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (!status_.ok()) return frag_->size;
    return lo;
  }

  /// A join jumps to `slot`: drop held pages the jump leaves behind so
  /// the pool can evict them, and -- when prefetching is on -- announce
  /// the landing pages plus a one-stride readahead window per column
  /// (the leapfrog scans forward from the landing slot) as one batched
  /// fault.
  void SkipTo(size_t slot) {
    if (pool_->prefetch_enabled() && slot < frag_->size) {
      PageId hints[4];
      size_t count = 0;
      pre_.Hint(slot, hints, &count);
      post_.Hint(slot, hints, &count);
      pre_.Hint(slot + kStride, hints, &count);
      post_.Hint(slot + kStride, hints, &count);
      if (count > 0) pool_->Prefetch({hints, count});
    }
    pre_.SkipTo(slot);
    post_.SkipTo(slot);
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

 private:
  using Cursor = typename Format::template Cursor<uint32_t>;
  /// Slots per fence key: one page or one block of the pre column.
  static constexpr size_t kStride = Cursor::kStride;

  const Fragment<Format>* frag_;
  BufferPool* pool_;
  Cursor pre_;
  Cursor post_;
  Status status_;
};

/// The cursors of StorageBackend::kPaged and kCompressed.
using PagedDocAccessor = ImageDocAccessor<RawFormat>;
using PagedFragmentCursor = ImageFragmentCursor<RawFormat>;
using CompressedDocAccessor = ImageDocAccessor<BlockFormat>;
using CompressedFragmentCursor = ImageFragmentCursor<BlockFormat>;

static_assert(DocAccessor<PagedDocAccessor>);
static_assert(DocAccessor<CompressedDocAccessor>);
static_assert(FragmentCursor<PagedFragmentCursor>);
static_assert(FragmentCursor<CompressedFragmentCursor>);

}  // namespace sj::storage

#endif  // STAIRJOIN_STORAGE_IMAGE_CURSOR_H_
