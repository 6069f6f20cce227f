// Shared test helpers: random documents, the paper's Fig. 1/2 example, and
// a region-definition oracle that computes axis results straight from the
// pre/post predicates (independent of both the staircase join and the
// naive baseline, so the three implementations cross-check each other).

#ifndef STAIRJOIN_TESTS_TEST_UTIL_H_
#define STAIRJOIN_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "core/axis.h"
#include "core/tag_view.h"
#include "encoding/builder.h"
#include "encoding/doc_table.h"
#include "encoding/loader.h"
#include "storage/image.h"
#include "util/rng.h"

namespace sj::testing {

/// The 10-node document of paper Fig. 1/2:
///   a(b(c), d, e(f(g, h), i(j)))
/// with pre/post ranks a(0,9) b(1,1) c(2,0) d(3,2) e(4,8) f(5,5) g(6,3)
/// h(7,4) i(8,7) j(9,6).
inline constexpr const char* kPaperExampleXml =
    "<a><b><c/></b><d/><e><f><g/><h/></f><i><j/></i></e></a>";

/// Loads the paper example; aborts the test process on failure.
std::unique_ptr<DocTable> LoadPaperExample();

/// Writes `doc`'s column image in `Format` onto `disk`; aborts the test
/// process on failure.
template <typename Format>
std::unique_ptr<storage::DocImage<Format>> MakeDocImage(
    const DocTable& doc, storage::SimulatedDisk* disk) {
  return storage::DocImage<Format>::Create(doc, disk,
                                           storage::DocColumnsDigest(doc))
      .value();
}

/// Writes `doc`'s tag fragments in `Format` onto `disk`; aborts the test
/// process on failure.
template <typename Format>
std::unique_ptr<storage::TagImage<Format>> MakeTagImage(
    const DocTable& doc, storage::SimulatedDisk* disk) {
  return storage::TagImage<Format>::Create(
             doc, TagIndex(doc), disk,
             storage::FragmentColumnsDigest(doc,
                                            storage::DocColumnsDigest(doc)))
      .value();
}

/// The column formats of the pool-backed backends, for typed tests over
/// both: the paged (raw) and compressed (block) formats.
using ColumnFormats =
    ::testing::Types<storage::RawFormat, storage::BlockFormat>;

/// Names ColumnFormats instantiations after their backends.
struct ColumnFormatName {
  template <typename Format>
  static std::string GetName(int) {
    return std::is_same_v<Format, storage::RawFormat> ? "Paged" : "Compressed";
  }
};

/// Random-document knobs.
struct RandomDocOptions {
  size_t target_nodes = 200;
  uint32_t max_children = 5;
  uint32_t attribute_percent = 20;  ///< chance an element gets an attribute
  uint32_t text_percent = 30;       ///< chance a leaf slot is a text node
  uint32_t comment_percent = 5;
  uint32_t pi_percent = 3;
  uint32_t tag_alphabet = 6;  ///< number of distinct element names
};

/// \brief Generates a random document (as XML text) with mixed node kinds.
std::string RandomDocumentXml(uint64_t seed, const RandomDocOptions& options);

/// \brief Generates and encodes a random document.
std::unique_ptr<DocTable> RandomDocument(uint64_t seed,
                                         const RandomDocOptions& options = {});

/// \brief Picks a random document-order, duplicate-free context sequence.
NodeSequence RandomContext(Rng& rng, const DocTable& doc,
                           uint32_t percent_of_doc);

/// \brief Axis results straight from the pre/post (and parent) predicates:
/// result = { v | exists c in context : v in axis-region(c) }, document
/// order, duplicate free. Attribute filtering follows the library default
/// (self nodes exempt); `keep_attributes` disables it.
NodeSequence RegionOracle(const DocTable& doc, const NodeSequence& context,
                          Axis axis, bool keep_attributes = false);

}  // namespace sj::testing

#endif  // STAIRJOIN_TESTS_TEST_UTIL_H_
