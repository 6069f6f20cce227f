#include "xpath/backend_dispatch.h"

#include <algorithm>
#include <memory>

#include "core/fragment_impl.h"
#include "core/staircase_impl.h"
#include "core/twig_impl.h"

// The operations live in their own translation unit, apart from the
// evaluator: each instantiates its driver for every backend, pristine
// and overlaid, and CMakeLists.txt gives exactly this unit the inlining
// budget that keeps the cursors' per-node reads inside the kernels.

namespace sj::xpath {

Result<NodeSequence> BackendDispatch::Staircase(const NodeSequence& context,
                                                Axis axis,
                                                JoinStats* stats) const {
  unsigned workers = Overlaid() ? 1 : opt_.num_threads;
  if (pool_ != nullptr) {
    // Each worker holds up to three pinned pages (the staircase kernels
    // read only post/kind/level, never parent/tag), and the driver's own
    // accessor holds one more during pruning; leave room so no worker
    // starves the pool.
    const size_t budget = (pool_->capacity() - 1) / 3;
    workers = static_cast<unsigned>(
        std::min<size_t>(workers, std::max<size_t>(1, budget)));
  }
  return Visit<NodeSequence>([&](auto make_acc, auto) {
    return internal::ParallelStaircaseJoinOver(make_acc, context, axis,
                                               opt_.staircase, workers, stats);
  });
}

Result<NodeSequence> BackendDispatch::PushdownView(TagId tag,
                                                   const NodeSequence& context,
                                                   Axis axis,
                                                   JoinStats* stats) const {
  return Visit<NodeSequence>([&](auto make_acc, auto make_frag) {
    auto frag = make_frag(tag);
    auto acc = make_acc();
    return internal::FragmentStaircaseJoinOver(frag, acc, context, axis,
                                               opt_.staircase, stats);
  });
}

Result<NodeSequence> BackendDispatch::AxisCursor(const NodeSequence& context,
                                                 Axis axis,
                                                 const AxisNodeTest& test,
                                                 JoinStats* stats) const {
  return Visit<NodeSequence>([&](auto make_acc, auto) {
    auto acc = make_acc();
    return internal::AxisStepOver(acc, context, axis, test, stats);
  });
}

Result<internal::PositionalGroups> BackendDispatch::PositionalAxis(
    const NodeSequence& context, Axis axis, const AxisNodeTest& test,
    JoinStats* stats) const {
  return Visit<internal::PositionalGroups>([&](auto make_acc, auto) {
    auto acc = make_acc();
    return internal::PositionalAxisStepOver(acc, context, axis, test, stats);
  });
}

Result<NodeSequence> BackendDispatch::Filter(const NodeSequence& nodes,
                                             const AxisNodeTest& test) const {
  return Visit<NodeSequence>([&](auto make_acc, auto) -> Result<NodeSequence> {
    auto acc = make_acc();
    NodeSequence out = internal::FilterSequenceOver(acc, nodes, test);
    if (!acc.ok()) return acc.status();
    return out;
  });
}

Result<NodeSequence> BackendDispatch::Twig(
    const NodeSequence& context, const std::vector<TwigLevel>& levels,
    JoinStats* stats, std::vector<TwigLevelStats>* level_stats) const {
  return Visit<NodeSequence>([&](auto make_acc, auto make_frag) {
    // One cursor per level, heap-allocated: pool-backed cursors own
    // non-movable PageGuards, so the generic body borrows pointers.
    using Cursor = decltype(make_frag(TagId{}));
    std::vector<std::unique_ptr<Cursor>> owned;
    std::vector<Cursor*> cursors;
    owned.reserve(levels.size());
    cursors.reserve(levels.size());
    for (const TwigLevel& level : levels) {
      owned.emplace_back(new Cursor(make_frag(level.tag)));
      cursors.push_back(owned.back().get());
    }
    auto acc = make_acc();
    return internal::TwigJoinOver(cursors, acc, context, levels,
                                  opt_.staircase, stats, level_stats);
  });
}

}  // namespace sj::xpath
