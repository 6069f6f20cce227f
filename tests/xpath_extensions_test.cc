// Tests for the XPath extensions beyond the paper's fragment: positional
// predicates (forward and reverse axes), union expressions, and the
// multi-document collection (paper footnote 1).

#include <gtest/gtest.h>

#include "api/database.h"
#include "core/tag_view.h"
#include "encoding/collection.h"
#include "encoding/loader.h"
#include "test_util.h"
#include "xmlgen/xmark.h"
#include "xpath/parser.h"

namespace sj::xpath {
namespace {

/// A memory-backend session over `doc` (the database takes ownership).
struct Db {
  explicit Db(std::unique_ptr<DocTable> doc)
      : db(Database::FromTable(std::move(doc)).value()),
        session(std::move(db->CreateSession()).value()) {}

  /// Runs `q` (from the document root, or from `context` for relative
  /// paths) and returns its nodes; a failed run fails the test.
  NodeSequence Run(const std::string& q,
                   std::optional<NodeSequence> context = std::nullopt) {
    auto r = context.has_value() ? session.Run(q, *context) : session.Run(q);
    EXPECT_TRUE(r.ok()) << q << ": " << r.status();
    return r.ok() ? r.value().nodes : NodeSequence{};
  }

  std::unique_ptr<Database> db;
  Session session;
};

constexpr const char* kListDoc =
    "<list><item>a</item><item>b</item><item>c</item>"
    "<group><item>d</item><item>e</item></group></list>";

class PositionalTest : public ::testing::Test {
 protected:
  std::vector<std::string> Texts(const NodeSequence& nodes) {
    const DocTable& doc = db_.db->doc();
    std::vector<std::string> out;
    for (NodeId v : nodes) {
      for (NodeId u = v + 1; u < doc.size() && doc.IsDescendant(u, v); ++u) {
        if (doc.kind(u) == NodeKind::kText) {
          out.emplace_back(doc.value(u));
          break;
        }
      }
    }
    return out;
  }

  NodeSequence Eval(const std::string& q) { return db_.Run(q); }

  Db db_{LoadDocument(kListDoc).value()};
};

TEST_F(PositionalTest, ChildPosition) {
  EXPECT_EQ(Texts(Eval("/child::item[1]")),
            (std::vector<std::string>{"a"}));
  EXPECT_EQ(Texts(Eval("/child::item[3]")),
            (std::vector<std::string>{"c"}));
  EXPECT_TRUE(Eval("/child::item[4]").empty());  // only 3 direct items
}

TEST_F(PositionalTest, LastFunction) {
  EXPECT_EQ(Texts(Eval("/child::item[last()]")),
            (std::vector<std::string>{"c"}));
  EXPECT_EQ(Texts(Eval("/descendant::item[last()]")),
            (std::vector<std::string>{"e"}));
}

TEST_F(PositionalTest, PositionIsPerContextNode) {
  // child::item[1] from (list, group): the first item of EACH context.
  EXPECT_EQ(Texts(Eval("/descendant-or-self::*/child::item[1]")),
            (std::vector<std::string>{"a", "d"}));
}

TEST_F(PositionalTest, ReverseAxisCountsOutward) {
  // ancestor::*[1] of the nested items is the nearest ancestor (group).
  const DocTable& doc = db_.db->doc();
  NodeSequence nested = Eval("/child::group/child::item");
  ASSERT_EQ(nested.size(), 2u);
  NodeSequence r = db_.Run("ancestor::*[1]", NodeSequence{nested[0]});
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(doc.tags().Name(doc.tag(r[0])), "group");
  r = db_.Run("ancestor::*[2]", NodeSequence{nested[0]});
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(doc.tags().Name(doc.tag(r[0])), "list");
}

TEST_F(PositionalTest, PositionalCombinesWithExists) {
  // Second item that has a text child == "b".
  EXPECT_EQ(Texts(Eval("/child::item[child::text()][2]")),
            (std::vector<std::string>{"b"}));
  // Positional then existence.
  EXPECT_EQ(Texts(Eval("/child::item[2][child::text()]")),
            (std::vector<std::string>{"b"}));
}

TEST_F(PositionalTest, ParserRejectsPositionZero) {
  EXPECT_FALSE(ParseXPath("item[0]").ok());
  EXPECT_TRUE(ParseXPath("item[1]").ok());
  EXPECT_TRUE(ParseXPath("item[last()]").ok());
}

TEST_F(PositionalTest, ToStringRoundTrip) {
  for (const char* q : {"child::item[2]", "child::item[last()]",
                        "descendant::item[1][child::text()]"}) {
    LocationPath p = ParseXPath(q).value();
    EXPECT_EQ(ToString(p), q);
  }
}

TEST(UnionTest, MergesBranchesInDocumentOrder) {
  Db db(LoadDocument(kListDoc).value());
  const DocTable& doc = db.db->doc();
  NodeSequence u = db.Run("/child::group | /child::item");
  // items (pre 1,3,5) come before group (pre 7) in document order.
  ASSERT_EQ(u.size(), 4u);
  EXPECT_TRUE(IsDocumentOrder(u));
  EXPECT_EQ(doc.tags().Name(doc.tag(u[3])), "group");
}

TEST(UnionTest, DeduplicatesOverlappingBranches) {
  Db db(LoadDocument(kListDoc).value());
  NodeSequence a = db.Run("//item | //item");
  NodeSequence b = db.Run("//item");
  EXPECT_EQ(a, b);
}

TEST(UnionTest, SingleBranchEqualsPlainPath) {
  // A one-branch union parses to exactly the plain path, so the two
  // evaluate identically; and the evaluation finds all five items.
  const UnionExpr u = ParseXPathUnion("/descendant::item").value();
  ASSERT_EQ(u.branches.size(), 1u);
  EXPECT_EQ(ToString(u.branches[0]),
            ToString(ParseXPath("/descendant::item").value()));
  Db db(LoadDocument(kListDoc).value());
  EXPECT_EQ(db.Run("/descendant::item").size(), 5u);
}

TEST(UnionTest, ParseErrors) {
  EXPECT_FALSE(ParseXPathUnion("a |").ok());
  EXPECT_FALSE(ParseXPathUnion("| a").ok());
  EXPECT_FALSE(ParseXPathUnion("a | b |").ok());
}

TEST(UnionTest, ExplainCoversEveryBranch) {
  Db db(LoadDocument(kListDoc).value());
  auto r = db.session.Run("/child::group/child::item | /child::item");
  ASSERT_TRUE(r.ok()) << r.status();
  // Two steps from the first branch + one from the second: clearing the
  // trace per branch used to leave only the final branch visible.
  ASSERT_EQ(r.value().trace.size(), 3u);
  EXPECT_NE(r.value().trace[0].description.find("group"), std::string::npos);
  EXPECT_NE(r.value().Explain().find("step 3"), std::string::npos);
  // A following plain run starts a fresh trace again.
  auto single = db.session.Run("/child::item");
  ASSERT_TRUE(single.ok()) << single.status();
  EXPECT_EQ(single.value().trace.size(), 1u);
}

TEST(PredicateTest, AbsolutePredicatePathsAreContextInvariant) {
  Db db(LoadDocument(kListDoc).value());
  // The verdict comes from the document root, not the context node: all
  // nodes survive a true absolute predicate, none survive a false one
  // (evaluated once per step, reused for every context node).
  EXPECT_EQ(db.Run("//item[/child::group]"), db.Run("//item"));
  EXPECT_TRUE(db.Run("//item[/child::nope]").empty());
  // Same on the positional (per-context) fallback path.
  EXPECT_EQ(db.Run("/child::item[2][/child::group]"),
            db.Run("/child::item[2]"));
  EXPECT_TRUE(db.Run("/child::item[2][/child::nope]").empty());
}

// --- Collections (paper footnote 1) -----------------------------------------

TEST(CollectionTest, GathersDocumentsUnderVirtualRoot) {
  CollectionBuilder builder;
  ASSERT_TRUE(builder.AddDocumentText("<a><b/></a>").ok());
  ASSERT_TRUE(builder.AddDocumentText("<a><b/><b/></a>").ok());
  ASSERT_TRUE(builder.AddDocumentText("<c/>").ok());
  EXPECT_EQ(builder.document_count(), 3u);
  auto doc = builder.Finish().value();
  NodeSequence roots = builder.document_roots();
  ASSERT_EQ(roots.size(), 3u);
  EXPECT_EQ(doc->tags().Name(doc->tag(doc->root())), "collection");
  EXPECT_EQ(doc->level(roots[0]), 1u);

  // Queries span all documents.
  Db db(std::move(doc));
  EXPECT_EQ(db.Run("/descendant::b").size(), 3u);
  EXPECT_EQ(db.Run("/child::a").size(), 2u);
}

TEST(CollectionTest, DocumentOfAttributesResults) {
  CollectionBuilder builder;
  ASSERT_TRUE(builder.AddDocumentText("<a><b/></a>").ok());
  ASSERT_TRUE(builder.AddDocumentText("<a><b x=\"1\"/></a>").ok());
  NodeSequence roots = builder.document_roots();
  Db db(builder.Finish().value());
  const DocTable& doc = db.db->doc();

  NodeSequence bs = db.Run("/descendant::b");
  ASSERT_EQ(bs.size(), 2u);
  EXPECT_EQ(DocumentOf(roots, doc, bs[0]), 0u);
  EXPECT_EQ(DocumentOf(roots, doc, bs[1]), 1u);
  EXPECT_EQ(DocumentOf(roots, doc, roots[1]), 1u);
  // The virtual root belongs to no document.
  EXPECT_EQ(DocumentOf(roots, doc, doc.root()), roots.size());
}

TEST(CollectionTest, MixesParsedAndGeneratedDocuments) {
  CollectionBuilder builder;
  ASSERT_TRUE(builder.AddDocumentText("<site><x/></site>").ok());
  xmlgen::XMarkOptions opt;
  opt.size_mb = 0.2;
  ASSERT_TRUE(builder
                  .AddDocumentEvents([&](xml::EventHandler* h) {
                    return xmlgen::GenerateXMark(opt, h);
                  })
                  .ok());
  auto doc = builder.Finish().value();
  EXPECT_EQ(builder.document_roots().size(), 2u);
  Db db(std::move(doc));
  // Both site elements, one per document.
  EXPECT_EQ(db.Run("/child::site").size(), 2u);
  // The XMark content is reachable through the virtual root.
  EXPECT_GT(db.Run("/descendant::bidder").size(), 0u);
}

TEST(CollectionTest, Errors) {
  CollectionBuilder empty;
  EXPECT_FALSE(empty.Finish().ok());
  CollectionBuilder builder;
  ASSERT_TRUE(builder.AddDocumentText("<a/>").ok());
  EXPECT_FALSE(builder.AddDocumentText("not xml").ok());
  auto doc = builder.Finish();
  // The failed document's prefix was absorbed; the collection still
  // finishes with the successfully added document... unless the parse
  // failure left an unbalanced element, which Finish reports.
  (void)doc;
  CollectionBuilder done;
  ASSERT_TRUE(done.AddDocumentText("<a/>").ok());
  ASSERT_TRUE(done.Finish().ok());
  EXPECT_FALSE(done.Finish().ok());
  EXPECT_FALSE(done.AddDocumentText("<b/>").ok());
}

}  // namespace
}  // namespace sj::xpath
