// Merging cursors: the edited document as a DocAccessor / FragmentCursor.
//
// `DeltaDocAccessor<Base>` and `DeltaFragmentCursor<Base>` present the
// merged (base + overlay) document in dense LOGICAL pre/post ranks while
// satisfying the exact cursor concepts the core kernels are written
// against -- `core/staircase_impl.h`, `axis_impl.h`, `fragment_impl.h`
// and `twig_impl.h` run unmodified over an edited document. Reads that
// resolve to base ranks go through the wrapped backend accessor (and so
// keep charging the BufferPool on paged/compressed backends); reads that
// resolve to inserted nodes are resident array lookups in the Overlay.
//
// The Base cursor is constructed IN PLACE from a factory's returned
// prvalue: paged accessors own non-movable PageGuards, so the wrapper
// can never require moving one.

#ifndef STAIRJOIN_DELTA_DELTA_ACCESSOR_H_
#define STAIRJOIN_DELTA_DELTA_ACCESSOR_H_

#include <algorithm>
#include <cstdint>

#include "core/doc_accessor.h"
#include "core/fragment_cursor.h"
#include "delta/overlay.h"

namespace sj::delta {

/// \brief DocAccessor over the merged document (see file comment).
///
/// Run-aware: the accessor keeps the pre-space run it read last, so a
/// read inside it goes straight to the base accessor at a constant rank
/// offset (or to the resident delta arrays), and the base post and
/// parent ranks it returns translate through reverse runs cached the
/// same way. Only a read outside a cached run searches (RunHint).
///
/// Borrows the overlay (and whatever the base accessor borrows); both
/// must outlive the accessor. Errors surface through the base accessor's
/// sticky status; overlay reads are infallible.
template <typename Base>
class DeltaDocAccessor {
 public:
  /// `make_base()` returns the wrapped backend accessor by value.
  template <typename MakeBase>
  DeltaDocAccessor(const Overlay& overlay, MakeBase make_base)
      : ov_(&overlay), base_(make_base()) {}

  size_t size() const { return ov_->logical_size(); }

  uint32_t Post(uint64_t pre) {
    const Run& r = ov_->LocatePre(pre, &pre_);
    if (r.from_delta) return ov_->DeltaPost(r.Map(pre));
    return static_cast<uint32_t>(
        ov_->BasePostToLogical(base_.Post(r.Map(pre)), &post_));
  }

  uint8_t Kind(uint64_t pre) {
    const Run& r = ov_->LocatePre(pre, &pre_);
    return r.from_delta ? ov_->DeltaKind(r.Map(pre)) : base_.Kind(r.Map(pre));
  }

  uint8_t Level(uint64_t pre) {
    const Run& r = ov_->LocatePre(pre, &pre_);
    return r.from_delta ? ov_->DeltaLevel(r.Map(pre))
                        : base_.Level(r.Map(pre));
  }

  NodeId Parent(uint64_t pre) {
    const Run& r = ov_->LocatePre(pre, &pre_);
    if (r.from_delta) return ov_->DeltaParent(r.Map(pre));
    NodeId bp = base_.Parent(r.Map(pre));
    if (bp == kNilNode) return kNilNode;
    // A surviving node's ancestors all survive (deletes take whole
    // subtrees) and base parents are never rewired, so the map is total.
    return static_cast<NodeId>(ov_->BasePreToLogical(bp, &parent_));
  }

  TagId Tag(uint64_t pre) {
    const Run& r = ov_->LocatePre(pre, &pre_);
    // Base TagIds keep their values in the merged dictionary.
    return r.from_delta ? ov_->DeltaTag(r.Map(pre)) : base_.Tag(r.Map(pre));
  }

  void SkipTo(uint64_t pre) {
    if (pre >= ov_->logical_size()) return;
    const Run& r = ov_->LocatePre(pre, &pre_);
    // A jump into resident data announces the next base rank, so a paged
    // base can still prefetch where the scan re-enters it.
    base_.SkipTo(r.from_delta ? ov_->LowerBoundBasePre(pre, &lower_)
                              : r.Map(pre));
  }

  bool ok() const { return base_.ok(); }
  Status status() const { return base_.status(); }

 private:
  const Overlay* ov_;
  Base base_;
  RunHint pre_;     ///< logical pre -> base pre / delta index
  RunHint post_;    ///< base post -> logical post
  RunHint parent_;  ///< base pre of a parent -> logical pre
  size_t lower_ = 0;
};

static_assert(DocAccessor<DeltaDocAccessor<MemoryDocAccessor>>);

/// \brief FragmentCursor over the merged per-tag fragment.
///
/// Slot segments splice surviving base slots (read through the wrapped
/// backend cursor) with resident delta entries; each segment carries the
/// logical pre of its first node, so LowerBound stays a resident search
/// plus at most one base-cursor LowerBound (fence-key reads). Run-aware
/// like DeltaDocAccessor: the slot run and the pre/post translations of
/// base slots are cached per cursor.
template <typename Base>
class DeltaFragmentCursor {
 public:
  /// `make_base()` returns the wrapped backend cursor over `tag`'s base
  /// fragment by value.
  template <typename MakeBase>
  DeltaFragmentCursor(const Overlay& overlay, TagId tag, MakeBase make_base)
      : ov_(&overlay), fo_(&overlay.fragment(tag)), base_(make_base()) {}

  size_t size() const { return fo_->merged_count; }

  NodeId Pre(size_t slot) {
    const Run& r = fo_->SlotRun(slot, &slot_);
    if (r.from_delta) return fo_->delta_pre[r.Map(slot)];
    return static_cast<NodeId>(
        ov_->BasePreToLogical(base_.Pre(r.Map(slot)), &pre_));
  }

  uint32_t Post(size_t slot) {
    const Run& r = fo_->SlotRun(slot, &slot_);
    if (r.from_delta) return fo_->delta_post[r.Map(slot)];
    return static_cast<uint32_t>(
        ov_->BasePostToLogical(base_.Post(r.Map(slot)), &post_));
  }

  size_t LowerBound(uint64_t pre) {
    const auto& segs = fo_->slots;
    // Last segment whose first node is at or before the target; every
    // earlier slot precedes the target, every later segment follows it.
    const size_t i = FindRun(segs, pre, &lower_,
                             [](const SlotSegment& s) { return s.first_lpre; });
    if (i == segs.size()) return 0;
    const SlotSegment& s = segs[i];
    if (s.from_delta) {
      const uint32_t* lo = fo_->delta_pre.data() + s.src;
      size_t off = static_cast<size_t>(
          std::lower_bound(lo, lo + s.count, pre) - lo);
      return s.lslot + off;
    }
    // Translate the logical target into base pre space (resident), let
    // the base cursor do its fence-key search, clamp to the segment.
    size_t bslot = base_.LowerBound(ov_->LowerBoundBasePre(pre, &lower_base_));
    bslot = std::clamp<size_t>(bslot, s.src, s.src + s.count);
    return s.lslot + (bslot - s.src);
  }

  void SkipTo(size_t slot) {
    if (slot >= fo_->merged_count) return;
    const Run& r = fo_->SlotRun(slot, &slot_);
    if (!r.from_delta) base_.SkipTo(r.Map(slot));
  }

  bool ok() const { return base_.ok(); }
  Status status() const { return base_.status(); }

 private:
  const Overlay* ov_;
  const FragmentOverlay* fo_;
  Base base_;
  RunHint slot_;  ///< merged slot -> base slot / delta entry
  RunHint pre_;   ///< base pre -> logical pre
  RunHint post_;  ///< base post -> logical post
  size_t lower_ = 0;
  size_t lower_base_ = 0;
};

static_assert(FragmentCursor<DeltaFragmentCursor<MemoryFragmentCursor>>);

}  // namespace sj::delta

#endif  // STAIRJOIN_DELTA_DELTA_ACCESSOR_H_
