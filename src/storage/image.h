// The pool-backed images of one document, generic over the column format.
//
// DocImage lays the doc encoding's post/kind/level/parent/tag columns out
// on disk pages behind a BufferPool; TagImage does the same for every
// element tag's pre/post fragment (core/tag_view.h), keeping the first
// pre rank of every stride resident as fence keys so a fragment search
// locates its page or block without I/O. Both are written once over the
// column format of storage/column.h: DocImage<RawFormat> and
// TagImage<RawFormat> are the paged backend's images,
// DocImage<BlockFormat> and TagImage<BlockFormat> the compressed
// backend's. Only the page or block directories and the fence keys stay
// memory-resident.
//
// Coherence: each image captures the digest of the document columns it
// was written from (DocColumnsDigest / FragmentColumnsDigest), and
// Database::BuildImages compares it against the document at open time,
// so a stale image is rejected with a Status instead of serving a wrong
// answer. ValidateImage additionally re-reads an adopted image through
// the format's own check (block images: every encoded byte).

#ifndef STAIRJOIN_STORAGE_IMAGE_H_
#define STAIRJOIN_STORAGE_IMAGE_H_

#include <memory>
#include <vector>

#include "core/tag_view.h"
#include "encoding/doc_table.h"
#include "storage/buffer_pool.h"
#include "storage/column.h"

namespace sj::storage {

/// FNV-1a digest over the post/kind/level/parent/tag columns. Identifies
/// the encoding a DocImage images (two different documents can share a
/// node count, and two documents with identical structure can still
/// differ in the tag column).
uint64_t DocColumnsDigest(const DocTable& doc);

/// FNV-1a digest identifying the encoding a TagImage images:
/// `doc_digest` (DocColumnsDigest(doc)) continued over the tag column,
/// which decides the fragmentation.
uint64_t FragmentColumnsDigest(const DocTable& doc, uint64_t doc_digest);

/// \brief Column-wise image of a DocTable in one column format.
template <typename Format>
class DocImage {
 public:
  using Column = typename Format::Column;

  /// Writes `doc`'s columns onto `disk` (borrowed; must outlive this).
  /// `doc_digest` is DocColumnsDigest(doc), computed once by the caller
  /// for every image of the document.
  static Result<std::unique_ptr<DocImage>> Create(const DocTable& doc,
                                                  SimulatedDisk* disk,
                                                  uint64_t doc_digest);

  /// Number of encoded nodes.
  size_t size() const { return size_; }
  /// Document height (Eq. (1) bound), copied from the source table.
  uint32_t height() const { return height_; }

  const Column& post() const { return post_; }
  const Column& kind() const { return kind_; }
  const Column& level() const { return level_; }
  const Column& parent() const { return parent_; }
  const Column& tag() const { return tag_; }

  /// DocColumnsDigest of the source table, captured at Create time.
  uint64_t source_digest() const { return source_digest_; }

  /// Total pages of the image.
  size_t page_count() const {
    return post_.pages.size() + kind_.pages.size() + level_.pages.size() +
           parent_.pages.size() + tag_.pages.size();
  }
  /// Total stored bytes over all five columns.
  uint64_t encoded_bytes() const {
    return post_.encoded_bytes + kind_.encoded_bytes + level_.encoded_bytes +
           parent_.encoded_bytes + tag_.encoded_bytes;
  }

  /// Re-reads every column from `disk` through the format's check (a
  /// no-op for a format without one); a corrupt or stale block fails
  /// with InvalidArgument naming the column. Called at open time for
  /// adopted images.
  Status ValidateImage(const SimulatedDisk& disk) const;

 private:
  DocImage() = default;

  size_t size_ = 0;
  uint32_t height_ = 0;
  uint64_t source_digest_ = 0;
  Column post_;
  Column kind_;
  Column level_;
  Column parent_;
  Column tag_;
};

/// \brief One tag's projection in one column format.
template <typename Format>
struct Fragment {
  TagId tag = kNoTag;
  /// Number of element nodes carrying the tag (== slots).
  uint32_t size = 0;
  typename Format::Column pre;
  typename Format::Column post;
  /// First pre rank of every stride of the pre column (one page or one
  /// block), so LowerBound touches at most one of them.
  std::vector<NodeId> fence_pre;
};

/// \brief Fragmentation by tag name: one pre/post image per element tag.
template <typename Format>
class TagImage {
 public:
  /// Writes every fragment of `index` (a TagIndex over `doc`) onto `disk`
  /// (borrowed; must outlive this). Use the document image's disk so one
  /// BufferPool serves both. `frag_digest` is
  /// FragmentColumnsDigest(doc, DocColumnsDigest(doc)).
  static Result<std::unique_ptr<TagImage>> Create(const DocTable& doc,
                                                  const TagIndex& index,
                                                  SimulatedDisk* disk,
                                                  uint64_t frag_digest);

  /// The fragment for `tag` (empty fragment for unknown/attribute-only
  /// tags).
  const Fragment<Format>& fragment(TagId tag) const {
    if (tag == kNoTag || tag >= fragments_.size()) return empty_;
    return fragments_[tag];
  }

  /// Number of element nodes carrying `tag` -- the selectivity statistic
  /// the pushdown cost model uses (resident; reading it faults nothing).
  uint64_t tag_count(TagId tag) const { return fragment(tag).size; }

  /// FragmentColumnsDigest of the source table, captured at Create time.
  uint64_t source_digest() const { return source_digest_; }

  /// Total pages written for all fragments (for the bench report).
  size_t page_count() const { return page_count_; }

  /// Re-reads every fragment through the format's check (a no-op for a
  /// format without one); a corrupt or stale block fails with
  /// InvalidArgument naming the fragment column.
  Status ValidateImage(const SimulatedDisk& disk) const;

 private:
  TagImage() = default;

  std::vector<Fragment<Format>> fragments_;  // indexed by TagId
  Fragment<Format> empty_;
  uint64_t source_digest_ = 0;
  size_t page_count_ = 0;
};

/// The doc and tag images of one format; either may be null.
template <typename Format>
struct ImagePair {
  std::unique_ptr<DocImage<Format>> doc;
  std::unique_ptr<TagImage<Format>> tags;
};

/// The images of StorageBackend::kPaged and kCompressed.
using PagedDocTable = DocImage<RawFormat>;
using PagedTagIndex = TagImage<RawFormat>;
using PagedImages = ImagePair<RawFormat>;
using CompressedDocTable = DocImage<BlockFormat>;
using CompressedTagIndex = TagImage<BlockFormat>;
using CompressedImages = ImagePair<BlockFormat>;

}  // namespace sj::storage

#endif  // STAIRJOIN_STORAGE_IMAGE_H_
