#include "storage/image.h"

#include <string>

namespace sj::storage {

uint64_t DocColumnsDigest(const DocTable& doc) {
  uint64_t h = kFnvBasis;
  h = FnvMix(h, doc.posts());
  h = FnvMix(h, doc.kinds());
  h = FnvMix(h, doc.levels());
  // The axis cursors read parent and tag through the pool as well, so a
  // stale parent/tag page image must fail the digest check too.
  h = FnvMix(h, doc.parents());
  return FnvMix(h, doc.tags_column());
}

uint64_t FragmentColumnsDigest(const DocTable& doc, uint64_t doc_digest) {
  return FnvMix(doc_digest, doc.tags_column());
}

template <typename Format>
Result<std::unique_ptr<DocImage<Format>>> DocImage<Format>::Create(
    const DocTable& doc, SimulatedDisk* disk, uint64_t doc_digest) {
  if (disk == nullptr) {
    return Status::InvalidArgument("DocImage: disk must not be null");
  }
  auto image = std::unique_ptr<DocImage>(new DocImage());
  image->size_ = doc.size();
  image->height_ = doc.height();
  image->source_digest_ = doc_digest;
  SJ_RETURN_NOT_OK(Format::Write(disk, doc.posts(), &image->post_));
  SJ_RETURN_NOT_OK(Format::Write(disk, doc.kinds(), &image->kind_));
  SJ_RETURN_NOT_OK(Format::Write(disk, doc.levels(), &image->level_));
  SJ_RETURN_NOT_OK(Format::Write(disk, doc.parents(), &image->parent_));
  SJ_RETURN_NOT_OK(Format::Write(disk, doc.tags_column(), &image->tag_));
  return image;
}

template <typename Format>
Status DocImage<Format>::ValidateImage(const SimulatedDisk& disk) const {
  if constexpr (Format::kValidates) {
    SJ_RETURN_NOT_OK(Format::Validate(disk, post_, "post column"));
    SJ_RETURN_NOT_OK(Format::Validate(disk, kind_, "kind column"));
    SJ_RETURN_NOT_OK(Format::Validate(disk, level_, "level column"));
    SJ_RETURN_NOT_OK(Format::Validate(disk, parent_, "parent column"));
    SJ_RETURN_NOT_OK(Format::Validate(disk, tag_, "tag column"));
  }
  return Status::OK();
}

template <typename Format>
Result<std::unique_ptr<TagImage<Format>>> TagImage<Format>::Create(
    const DocTable& doc, const TagIndex& index, SimulatedDisk* disk,
    uint64_t frag_digest) {
  if (disk == nullptr) {
    return Status::InvalidArgument("TagImage: disk must not be null");
  }
  auto image = std::unique_ptr<TagImage>(new TagImage());
  image->source_digest_ = frag_digest;
  image->fragments_.resize(doc.tags().size());
  for (size_t t = 0; t < image->fragments_.size(); ++t) {
    const TagView& view = index.view(static_cast<TagId>(t));
    Fragment<Format>& frag = image->fragments_[t];
    frag.tag = static_cast<TagId>(t);
    frag.size = static_cast<uint32_t>(view.size());
    SJ_RETURN_NOT_OK(Format::Write(disk, std::span<const NodeId>(view.pre),
                                   &frag.pre, &frag.fence_pre));
    SJ_RETURN_NOT_OK(
        Format::Write(disk, std::span<const uint32_t>(view.post), &frag.post));
    image->page_count_ += frag.pre.pages.size() + frag.post.pages.size();
  }
  return image;
}

template <typename Format>
Status TagImage<Format>::ValidateImage(const SimulatedDisk& disk) const {
  if constexpr (Format::kValidates) {
    for (const Fragment<Format>& frag : fragments_) {
      const std::string tag = std::to_string(frag.tag);
      SJ_RETURN_NOT_OK(Format::Validate(disk, frag.pre,
                                        "fragment pre column of tag " + tag));
      SJ_RETURN_NOT_OK(Format::Validate(
          disk, frag.post, "fragment post column of tag " + tag));
    }
  }
  return Status::OK();
}

template class DocImage<RawFormat>;
template class DocImage<BlockFormat>;
template class TagImage<RawFormat>;
template class TagImage<BlockFormat>;

}  // namespace sj::storage
