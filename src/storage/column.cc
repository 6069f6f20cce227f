#include "storage/column.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

namespace sj::storage {
namespace {

/// Packs encoded blocks onto disk pages, first-fit in block order; a
/// block never spans pages. Also folds every encoded byte into the
/// column's image digest, so the digest covers exactly what lands on
/// disk.
class BlockPageWriter {
 public:
  explicit BlockPageWriter(SimulatedDisk* disk, BlockColumn* column)
      : disk_(disk), column_(column) {
    column_->image_digest = kFnvBasis;
  }

  Status Append(const uint8_t* data, size_t bytes) {
    if (open_ && used_ + bytes > kPageSize) SJ_RETURN_NOT_OK(Flush());
    if (!open_) {
      id_ = disk_->Allocate();
      column_->pages.push_back(id_);
      std::memset(page_.bytes, 0, kPageSize);
      used_ = 0;
      open_ = true;
    }
    std::memcpy(page_.bytes + used_, data, bytes);
    column_->blocks.push_back({id_, static_cast<uint16_t>(used_),
                               static_cast<uint16_t>(bytes)});
    column_->image_digest = FnvMix(column_->image_digest, {data, bytes});
    column_->encoded_bytes += bytes;
    used_ += bytes;
    return Status::OK();
  }

  Status Flush() {
    if (!open_) return Status::OK();
    open_ = false;
    return disk_->Write(id_, page_);
  }

 private:
  SimulatedDisk* disk_;
  BlockColumn* column_;
  Page page_;
  size_t used_ = 0;
  PageId id_ = 0;
  bool open_ = false;
};

}  // namespace

uint64_t FnvMix(uint64_t h, std::span<const uint8_t> bytes) {
  for (uint8_t byte : bytes) {
    h ^= byte;
    h *= 0x100000001B3ULL;  // FNV prime
  }
  return h;
}

template <typename T>
Status RawFormat::Write(SimulatedDisk* disk, std::span<const T> values,
                        RawColumn* column, std::vector<T>* fences) {
  constexpr size_t kPerPage = RawColumnCursor<T>::kStride;
  column->values = values.size();
  column->encoded_bytes = values.size_bytes();
  for (size_t start = 0; start < values.size(); start += kPerPage) {
    PageId id = disk->Allocate();
    Page page;
    std::memset(page.bytes, 0, kPageSize);
    size_t count = std::min<size_t>(kPerPage, values.size() - start);
    std::memcpy(page.bytes, values.data() + start, count * sizeof(T));
    SJ_RETURN_NOT_OK(disk->Write(id, page));
    column->pages.push_back(id);
    if (fences != nullptr) fences->push_back(values[start]);
  }
  return Status::OK();
}

template <typename T>
Status BlockFormat::Write(SimulatedDisk* disk, std::span<const T> values,
                          BlockColumn* column, std::vector<T>* fences) {
  column->values = values.size();
  BlockPageWriter writer(disk, column);
  uint8_t encoded[encoding::MaxEncodedBlockBytes(encoding::kBlockValues)];
  // The codec packs uint32 values; narrower columns (kind/level) are
  // widened block-wise, and FOR packs their handful of distinct values
  // into a few bits each.
  [[maybe_unused]] uint32_t widened[encoding::kBlockValues];
  for (size_t start = 0; start < values.size();
       start += encoding::kBlockValues) {
    const size_t count =
        std::min(encoding::kBlockValues, values.size() - start);
    std::span<const uint32_t> block;
    if constexpr (std::is_same_v<T, uint32_t>) {
      block = values.subspan(start, count);
    } else {
      std::copy_n(values.data() + start, count, widened);
      block = {widened, count};
    }
    const size_t bytes = encoding::EncodeBlock(block, encoded);
    SJ_RETURN_NOT_OK(writer.Append(encoded, bytes));
    if (fences != nullptr) fences->push_back(values[start]);
  }
  return writer.Flush();
}

Status BlockFormat::Validate(const SimulatedDisk& disk,
                             const BlockColumn& column,
                             const std::string& what) {
  uint64_t h = kFnvBasis;
  Page page;
  PageId loaded = 0;
  bool have_page = false;
  for (const BlockRef& ref : column.blocks) {
    if (static_cast<size_t>(ref.offset) + ref.bytes > kPageSize) {
      return Status::InvalidArgument("compressed image: the " + what +
                                     "'s block directory overruns a page");
    }
    if (!have_page || loaded != ref.page) {
      SJ_RETURN_NOT_OK(disk.Read(ref.page, &page));
      loaded = ref.page;
      have_page = true;
    }
    h = FnvMix(h, {page.bytes + ref.offset, ref.bytes});
  }
  if (h != column.image_digest) {
    return Status::InvalidArgument(
        "corrupt compressed image: the " + what +
        "'s encoded blocks digest to " + std::to_string(h) +
        " but the directory expects " + std::to_string(column.image_digest) +
        "; a block is corrupt or stale");
  }
  return Status::OK();
}

template Status RawFormat::Write(SimulatedDisk*, std::span<const uint32_t>,
                                 RawColumn*, std::vector<uint32_t>*);
template Status RawFormat::Write(SimulatedDisk*, std::span<const uint8_t>,
                                 RawColumn*, std::vector<uint8_t>*);
template Status BlockFormat::Write(SimulatedDisk*, std::span<const uint32_t>,
                                   BlockColumn*, std::vector<uint32_t>*);
template Status BlockFormat::Write(SimulatedDisk*, std::span<const uint8_t>,
                                   BlockColumn*, std::vector<uint8_t>*);

}  // namespace sj::storage
