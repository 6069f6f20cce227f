// The ONE backend-selection point of the engine (internal header).
//
// Every join a step can run -- staircase join, name-test pushdown join,
// axis cursor, positional rank join, node-test filter, twig join -- is
// written once over the DocAccessor / FragmentCursor concepts
// (core/*_impl.h). What differs per backend is only which accessor and
// fragment cursor feed it, and Visit below is where that is decided: an
// exhaustive switch over StorageBackend with no default case, so a new
// backend that misses it is a -Wswitch warning at compile time instead
// of a silent fall-through to the memory path. The two pool-backed
// backends differ only in their column format (storage/column.h), so
// their arms are one call each into the same format-generic helpers;
// adding a format means one column cursor and one `case`.
//
// This file is the only place allowed to compare or switch on
// StorageBackend: sj-lint (tools/lint/sj_lint.py, rule backend-dispatch)
// fails on a comparison or switch anywhere else under src/.

#ifndef STAIRJOIN_XPATH_BACKEND_DISPATCH_H_
#define STAIRJOIN_XPATH_BACKEND_DISPATCH_H_

#include <string>
#include <vector>

#include "core/axis_impl.h"
#include "delta/delta_accessor.h"
#include "storage/image_cursor.h"
#include "xpath/evaluator.h"
#include "xpath/explain_strings.h"

namespace sj::xpath {

class BackendDispatch {
 public:
  /// All three are borrowed. `pool` is the pool the session's reads are
  /// charged to; null exactly when the backend does not UsesPool.
  BackendDispatch(const DatabaseSnapshot& snap, const EvalOptions& opt,
                  storage::BufferPool* pool)
      : snap_(snap), opt_(opt), pool_(pool) {}

  /// True when sessions of backend `b` charge reads to a buffer pool.
  static bool UsesPool(StorageBackend b) {
    switch (b) {
      case StorageBackend::kMemory:
        return false;
      case StorageBackend::kPaged:
      case StorageBackend::kCompressed:
        return true;
    }
    return false;
  }

  /// Fails when `img` holds no image backend `b` reads: the database was
  /// opened without it (sj::Database::CreateSession's user-facing check).
  static Status CheckOpened(StorageBackend b, const DatabaseImages& img) {
    switch (b) {
      case StorageBackend::kMemory:
        return Status::OK();
      case StorageBackend::kPaged:
        return CheckImages(img.paged, "paged");
      case StorageBackend::kCompressed:
        return CheckImages(img.compressed, "compressed");
    }
    return Status::Internal("unreachable");
  }

  /// True when the snapshot carries a non-empty delta overlay: every join
  /// then runs over the merged document via the delta cursors (base
  /// reads still charge the pool; delta reads are resident).
  bool Overlaid() const { return snap_.edited(); }

  /// EXPLAIN label prefix of the backend ("", "paged ", "compressed ";
  /// overlay variants when a delta overlay is active).
  const char* Label() const {
    switch (opt_.backend) {
      case StorageBackend::kMemory:
        return Overlaid() ? explain::kLabelOverlayMemory
                          : explain::kLabelMemory;
      case StorageBackend::kPaged:
        return Overlaid() ? explain::kLabelOverlayPaged : explain::kLabelPaged;
      case StorageBackend::kCompressed:
        return Overlaid() ? explain::kLabelOverlayCompressed
                          : explain::kLabelCompressed;
    }
    return explain::kLabelMemory;
  }

  /// Whether steps charge their reads to a buffer pool (EXPLAIN suffix).
  bool Pooled() const { return UsesPool(opt_.backend); }

  /// Whether the active backend has a fragment index. Pushdown and twig
  /// both require it; each pool-backed backend only qualifies with its
  /// own fragment image -- a memory-resident TagIndex would silently
  /// bypass the buffer pool and charge no faults.
  bool HasFragments() const {
    // Under an overlay the merged per-tag fragments must exist too (they
    // are built from the resident TagIndex at commit time).
    if (Overlaid() && !snap_.overlay()->has_fragments()) return false;
    const DatabaseImages& img = snap_.images();
    switch (opt_.backend) {
      case StorageBackend::kMemory:
        return img.tag_index != nullptr;
      case StorageBackend::kPaged:
        return img.paged.tags != nullptr;
      case StorageBackend::kCompressed:
        return img.compressed.tags != nullptr;
    }
    return false;
  }

  /// Fragment size of `tag` (the pushdown cost model's selectivity);
  /// requires HasFragments().
  uint64_t TagCount(TagId tag) const {
    // Merged count: base survivors plus delta elements of the tag.
    if (Overlaid()) return snap_.overlay()->tag_count(tag);
    const DatabaseImages& img = snap_.images();
    switch (opt_.backend) {
      case StorageBackend::kMemory:
        return img.tag_index->tag_count(tag);
      case StorageBackend::kPaged:
        return img.paged.tags->tag_count(tag);
      case StorageBackend::kCompressed:
        return img.compressed.tags->tag_count(tag);
    }
    return 0;
  }

  /// The cost model's per-page unit of the active backend (cost_model.h
  /// constants; the backend switch lives here, not in the estimator).
  double PageCostUnit() const {
    switch (opt_.backend) {
      case StorageBackend::kMemory:
        return kMemoryPageCost;
      case StorageBackend::kPaged:
        return kPagedPageCost;
      case StorageBackend::kCompressed:
        return kCompressedPageCost;
    }
    return kPagedPageCost;
  }

  /// Staircase join over the whole document, partitioned over
  /// EvalOptions::num_threads workers where the shared driver allows it.
  /// Overlaid snapshots run serially: the delta is expected to be small
  /// until compaction folds it, and EXPLAIN then never names a parallel
  /// join over a merged document.
  Result<NodeSequence> Staircase(const NodeSequence& context, Axis axis,
                                 JoinStats* stats) const;

  /// Name-test pushdown: staircase join over one tag fragment.
  Result<NodeSequence> PushdownView(TagId tag, const NodeSequence& context,
                                    Axis axis, JoinStats* stats) const;

  /// Non-staircase axis step with the node test folded into the scan.
  Result<NodeSequence> AxisCursor(const NodeSequence& context, Axis axis,
                                  const AxisNodeTest& test,
                                  JoinStats* stats) const;

  /// Set-at-a-time positional axis step: per-context groups for rank
  /// predicates, every read charged to the backend.
  Result<internal::PositionalGroups> PositionalAxis(
      const NodeSequence& context, Axis axis, const AxisNodeTest& test,
      JoinStats* stats) const;

  /// Node-test filter pass over a join result (kind/tag reads are
  /// charged to the step's backend, like every other read).
  Result<NodeSequence> Filter(const NodeSequence& nodes,
                              const AxisNodeTest& test) const;

  /// Holistic twig join over the backend's fragment cursors; requires
  /// HasFragments().
  Result<NodeSequence> Twig(const NodeSequence& context,
                            const std::vector<TwigLevel>& levels,
                            JoinStats* stats,
                            std::vector<TwigLevelStats>* level_stats) const;

 private:
  /// The backend switch: calls `fn(make_acc, make_frag)` with the active
  /// backend's accessor factory (`make_acc()` returns a DocAccessor by
  /// value, built in place -- accessors own non-movable PageGuards) and
  /// fragment-cursor factory (`make_frag(tag)`), both wrapped in the
  /// delta cursors when the snapshot is overlaid.
  template <typename R, typename Fn>
  Result<R> Visit(Fn&& fn) const {
    const DatabaseImages& img = snap_.images();
    switch (opt_.backend) {
      case StorageBackend::kMemory:
        return Bind<R>(
            fn, [&img] { return MemoryDocAccessor(*img.doc); },
            [&img](TagId tag) {
              return MemoryFragmentCursor(img.tag_index->view(tag));
            });
      case StorageBackend::kPaged:
        return VisitImages<R>(fn, img.paged);
      case StorageBackend::kCompressed:
        return VisitImages<R>(fn, img.compressed);
    }
    return Status::Internal("unreachable");
  }

  /// Visit's pool-backed arm: the accessor and fragment-cursor factories
  /// over one format's image pair, reading through the session's pool.
  template <typename R, typename Fn, typename Format>
  Result<R> VisitImages(Fn& fn,
                        const storage::ImagePair<Format>& images) const {
    storage::BufferPool* pool = pool_;
    return Bind<R>(
        fn,
        [&images, pool] {
          return storage::ImageDocAccessor<Format>(*images.doc, pool);
        },
        [&images, pool](TagId tag) {
          return storage::ImageFragmentCursor<Format>(
              images.tags->fragment(tag), pool);
        });
  }

  /// CheckOpened's pool-backed arm; `name` is the backend's name.
  template <typename Format>
  static Status CheckImages(const storage::ImagePair<Format>& images,
                            const std::string& name) {
    if (images.doc != nullptr) return Status::OK();
    return Status::InvalidArgument(
        "session requests the " + name + " backend but the database was " +
        "opened without a " + name + " image (DatabaseOptions::build_" +
        name + ")");
  }

  /// Hands `fn` the pristine factories, or their delta-merging wrappers
  /// when the snapshot is overlaid.
  template <typename R, typename Fn, typename MakeAcc, typename MakeFrag>
  Result<R> Bind(Fn& fn, MakeAcc make_acc, MakeFrag make_frag) const {
    if (!Overlaid()) return fn(make_acc, make_frag);
    const delta::Overlay& ov = *snap_.overlay();
    return fn(
        [&ov, make_acc] {
          return delta::DeltaDocAccessor<decltype(make_acc())>(ov, make_acc);
        },
        [&ov, make_frag](TagId tag) {
          return delta::DeltaFragmentCursor<decltype(make_frag(tag))>(
              ov, tag, [&] { return make_frag(tag); });
        });
  }

  const DatabaseSnapshot& snap_;
  const EvalOptions& opt_;
  storage::BufferPool* pool_;
};

}  // namespace sj::xpath

#endif  // STAIRJOIN_XPATH_BACKEND_DISPATCH_H_
