// Tests for XPath evaluation through the public Database/Session facade:
// hand-checked queries on a small document, staircase engine == naive
// engine on random documents x random queries, pushdown equivalence,
// predicates, and the EXPLAIN trace carried inside QueryResult.

#include <gtest/gtest.h>

#include <string>

#include "api/database.h"
#include "core/tag_view.h"
#include "encoding/loader.h"
#include "test_util.h"
#include "util/rng.h"
#include "xpath/parser.h"

namespace sj {
namespace {

// <site>
//   <people><person id="p0"><name>n</name><profile><education>e
//     </education></profile></person>
//            <person id="p1"><name>m</name></person></people>
//   <auctions><auction><bidder><increase>i</increase></bidder>
//             <bidder><increase>j</increase></bidder></auction></auctions>
// </site>
constexpr const char* kSmallDoc =
    "<site><people><person id=\"p0\"><name>n</name><profile><education>e"
    "</education></profile></person><person id=\"p1\"><name>m</name>"
    "</person></people><auctions><auction><bidder><increase>i</increase>"
    "</bidder><bidder><increase>j</increase></bidder></auction></auctions>"
    "</site>";

class XPathEvaluatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions open;
    open.build_paged = false;  // backend equivalence lives in other suites
    db_ = Database::FromXml(kSmallDoc, open).value();
    doc_ = &db_->doc();
  }

  QueryResult RunQuery(const std::string& q, SessionOptions opts = {}) {
    auto session = db_->CreateSession(opts);
    EXPECT_TRUE(session.ok()) << session.status();
    auto r = session.value().Run(q);
    EXPECT_TRUE(r.ok()) << q << ": " << r.status();
    return r.ok() ? std::move(r).value() : QueryResult{};
  }

  NodeSequence Eval(const std::string& q, SessionOptions opts = {}) {
    return RunQuery(q, opts).nodes;
  }

  /// Names (tags / "#text" etc.) of the result nodes, for readable asserts.
  std::vector<std::string> Names(const NodeSequence& nodes) {
    std::vector<std::string> out;
    for (NodeId v : nodes) {
      switch (doc_->kind(v)) {
        case NodeKind::kElement:
          out.push_back(doc_->tags().Name(doc_->tag(v)));
          break;
        case NodeKind::kAttribute:
          out.push_back("@" + doc_->tags().Name(doc_->tag(v)));
          break;
        case NodeKind::kText:
          out.push_back("#text:" + std::string(doc_->value(v)));
          break;
        default:
          out.push_back("#other");
      }
    }
    return out;
  }

  std::unique_ptr<Database> db_;
  const DocTable* doc_ = nullptr;
};

TEST_F(XPathEvaluatorTest, DescendantNameTest) {
  EXPECT_EQ(Names(Eval("/descendant::education")),
            (std::vector<std::string>{"education"}));
  EXPECT_EQ(Names(Eval("/descendant::person")),
            (std::vector<std::string>{"person", "person"}));
}

TEST_F(XPathEvaluatorTest, PaperQ2Shape) {
  NodeSequence bidders = Eval("/descendant::increase/ancestor::bidder");
  EXPECT_EQ(Names(bidders), (std::vector<std::string>{"bidder", "bidder"}));
}

TEST_F(XPathEvaluatorTest, Q2RewriteEquivalence) {
  EXPECT_EQ(Eval("/descendant::increase/ancestor::bidder"),
            Eval("/descendant::bidder[descendant::increase]"));
}

TEST_F(XPathEvaluatorTest, ChildStepsFollowDocumentStructure) {
  EXPECT_EQ(Names(Eval("/child::people/child::person/child::name")),
            (std::vector<std::string>{"name", "name"}));
  // Default axis is child.
  EXPECT_EQ(Eval("/people/person/name"),
            Eval("/child::people/child::person/child::name"));
}

TEST_F(XPathEvaluatorTest, AttributesOnlyViaAttributeAxis) {
  EXPECT_EQ(Names(Eval("/descendant::person/attribute::id")),
            (std::vector<std::string>{"@id", "@id"}));
  // descendant never returns attributes.
  for (NodeId v : Eval("/descendant::node()")) {
    EXPECT_NE(doc_->kind(v), NodeKind::kAttribute);
  }
}

TEST_F(XPathEvaluatorTest, TextNodes) {
  auto texts = Names(Eval("/descendant::education/child::text()"));
  ASSERT_EQ(texts.size(), 1u);
  EXPECT_EQ(texts[0], "#text:e");
}

TEST_F(XPathEvaluatorTest, ParentAndSelf) {
  EXPECT_EQ(Names(Eval("/descendant::profile/parent::*")),
            (std::vector<std::string>{"person"}));
  EXPECT_EQ(Names(Eval("/self::site")), (std::vector<std::string>{"site"}));
  EXPECT_TRUE(Eval("/self::nosuch").empty());
}

TEST_F(XPathEvaluatorTest, FollowingPreceding) {
  // people precedes auctions.
  NodeSequence foll = Eval("/child::people/following::auction");
  EXPECT_EQ(Names(foll), (std::vector<std::string>{"auction"}));
  NodeSequence prec = Eval("/child::auctions/preceding::name");
  EXPECT_EQ(prec.size(), 2u);
}

TEST_F(XPathEvaluatorTest, SiblingAxes) {
  EXPECT_EQ(Names(Eval("/child::people/following-sibling::*")),
            (std::vector<std::string>{"auctions"}));
  EXPECT_EQ(Names(Eval("/child::auctions/preceding-sibling::*")),
            (std::vector<std::string>{"people"}));
}

TEST_F(XPathEvaluatorTest, PredicateFiltersContext) {
  EXPECT_EQ(Names(Eval("/descendant::person[child::profile]")).size(), 1u);
  EXPECT_EQ(Names(Eval("/descendant::person[child::name]")).size(), 2u);
  EXPECT_TRUE(Eval("/descendant::person[child::nosuch]").empty());
}

TEST_F(XPathEvaluatorTest, UnknownTagYieldsEmpty) {
  EXPECT_TRUE(Eval("/descendant::doesnotexist").empty());
  EXPECT_TRUE(Eval("/descendant::doesnotexist/ancestor::person").empty());
}

TEST_F(XPathEvaluatorTest, DoubleSlash) {
  EXPECT_EQ(Eval("//education"), Eval("/descendant::education"));
  EXPECT_EQ(Eval("//person//increase").size(), 0u);
  EXPECT_EQ(Eval("//auction//increase").size(), 2u);
}

TEST_F(XPathEvaluatorTest, UnionMergesBranches) {
  EXPECT_EQ(Eval("/descendant::name | /descendant::increase").size(), 4u);
  // Branch traces are concatenated, not replaced.
  QueryResult r = RunQuery("/descendant::name | /descendant::increase");
  EXPECT_EQ(r.trace.size(), 2u);
}

TEST_F(XPathEvaluatorTest, PushdownModesAgree) {
  for (const char* q :
       {"/descendant::education", "/descendant::increase/ancestor::bidder",
        "/descendant::person/descendant::name"}) {
    SessionOptions never, always;
    never.hints.pushdown = PushdownMode::kNever;
    always.hints.pushdown = PushdownMode::kAlways;
    EXPECT_EQ(Eval(q, never), Eval(q, always)) << q;
  }
}

TEST_F(XPathEvaluatorTest, TraceRecordsStrategy) {
  SessionOptions opts;
  opts.hints.pushdown = PushdownMode::kAlways;
  QueryResult r = RunQuery("/descendant::education", opts);
  ASSERT_EQ(r.trace.size(), 1u);
  EXPECT_NE(r.trace[0].description.find("pushdown"), std::string::npos);
  EXPECT_NE(r.Explain().find("step 1"), std::string::npos);
  EXPECT_EQ(r.totals.result_size, r.nodes.size());
  opts.hints.pushdown = PushdownMode::kNever;
  QueryResult r2 = RunQuery("/descendant::education", opts);
  ASSERT_EQ(r2.trace.size(), 1u);
  EXPECT_EQ(r2.trace[0].description.find("pushdown"), std::string::npos);
}

TEST_F(XPathEvaluatorTest, RelativePathUsesGivenContext) {
  Session session = std::move(db_->CreateSession()).value();
  // From the first bidder only one increase is reachable.
  NodeSequence bidders =
      session.Run("/descendant::bidder").value().nodes;
  ASSERT_EQ(bidders.size(), 2u);
  EXPECT_EQ(session.Run("descendant::increase", {bidders[0]})
                .value().nodes.size(),
            1u);
  EXPECT_EQ(session.Run("descendant::increase", bidders).value().nodes.size(),
            2u);
}

TEST_F(XPathEvaluatorTest, EngineModesAgreeOnSmallDoc) {
  for (const char* q :
       {"/descendant::name", "/descendant::increase/ancestor::bidder",
        "/descendant::person/following::increase",
        "/child::people/descendant-or-self::*"}) {
    SessionOptions naive;
    naive.hints.engine = EngineMode::kNaive;
    EXPECT_EQ(Eval(q), Eval(q, naive)) << q;
  }
}

// --- Random cross-engine properties -----------------------------------------

/// Generates a random location path (as query text, so it runs through
/// the same parse + evaluate pipeline as a facade caller) over the test
/// tag alphabet.
std::string RandomQuery(Rng& rng) {
  static const char* kTags[] = {"t0", "t1", "t2", "t3", "t4", "t5"};
  static const char* kAxes[] = {
      "descendant", "descendant-or-self", "ancestor",
      "ancestor-or-self", "following", "preceding",
      "child", "parent", "self",
      "following-sibling", "preceding-sibling"};
  std::string q;
  size_t steps = 1 + rng.Below(3);
  for (size_t i = 0; i < steps; ++i) {
    q += "/";
    q += kAxes[rng.Below(std::size(kAxes))];
    q += "::";
    switch (rng.Below(4)) {
      case 0:
        q += "node()";
        break;
      case 1:
        q += "*";
        break;
      default:
        q += kTags[rng.Below(std::size(kTags))];
        break;
    }
    if (rng.Percent(20)) {
      q += std::string("[") + (rng.Percent(50) ? "child" : "descendant") +
           "::" + kTags[rng.Below(std::size(kTags))] + "]";
    }
  }
  return q;
}

class XPathEnginePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(XPathEnginePropertyTest, StaircaseEqualsNaiveEngine) {
  DatabaseOptions open;
  open.build_paged = false;
  auto db = Database::FromTable(sj::testing::RandomDocument(GetParam()),
                                open).value();
  Rng rng(GetParam() * 31 + 7);
  for (int trial = 0; trial < 25; ++trial) {
    std::string q = RandomQuery(rng);
    SessionOptions fast;
    fast.hints.pushdown =
        trial % 2 == 0 ? PushdownMode::kAlways : PushdownMode::kNever;
    SessionOptions naive;
    naive.hints.engine = EngineMode::kNaive;
    auto a = std::move(db->CreateSession(fast)).value().Run(q);
    auto b = std::move(db->CreateSession(naive)).value().Run(q);
    ASSERT_TRUE(a.ok()) << q << a.status();
    ASSERT_TRUE(b.ok()) << q << b.status();
    EXPECT_EQ(a.value().nodes, b.value().nodes)
        << q << " seed " << GetParam();
    EXPECT_TRUE(IsDocumentOrder(a.value().nodes));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XPathEnginePropertyTest,
                         ::testing::Values(301, 302, 303, 304, 305));

TEST(XPathEvaluatorErrorTest, BadInputs) {
  DatabaseOptions open;
  open.build_paged = false;
  auto db = Database::FromXml(kSmallDoc, open).value();
  Session session = std::move(db->CreateSession()).value();
  EXPECT_FALSE(session.Run("///").ok());
  EXPECT_FALSE(session.Run("child::a", {5, 2}).ok());   // unsorted context
  EXPECT_FALSE(session.Run("child::a", {9999}).ok());   // out of range
}

TEST(XPathEvaluatorErrorTest, DeepPredicateNestingEndsInStatus) {
  // "a[a[...]]" nested `depth` times; `step` is the nested step's text.
  auto nested = [](const std::string& step, int depth) {
    std::string q = step;
    for (int i = 0; i < depth; ++i) q += "[" + step;
    return q + std::string(depth, ']');
  };
  // Hostile depth: a Status from the parser and from a session, never a
  // stack overflow.
  const std::string hostile = nested("a", 10000);
  auto parsed = xpath::ParseXPathUnion(hostile);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  auto db = Database::FromXml("<a><a/></a>").value();
  Session session = std::move(db->CreateSession()).value();
  auto run = session.Run(hostile);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  // Depth 1,000 still parses, and evaluates every level: each self::a
  // predicate holds, so the recursion reaches the innermost one.
  const std::string deep = nested("self::a", 1000);
  EXPECT_TRUE(xpath::ParseXPathUnion(deep).ok());
  auto r = session.Run(deep);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value().nodes, NodeSequence{0});
}

TEST(DatabaseOpenTest, PagedBackendRequiresPagedImage) {
  struct Case {
    StorageBackend backend;
    bool DatabaseOptions::*build;
    const char* name;
  } cases[] = {
      {StorageBackend::kPaged, &DatabaseOptions::build_paged, "paged"},
      {StorageBackend::kCompressed, &DatabaseOptions::build_compressed,
       "compressed"},
  };
  for (const Case& c : cases) {
    DatabaseOptions open;
    open.*c.build = false;
    auto db = Database::FromXml(kSmallDoc, open).value();
    SessionOptions options;
    options.backend = c.backend;
    auto session = db->CreateSession(options);
    EXPECT_FALSE(session.ok()) << c.name;
    EXPECT_NE(session.status().ToString().find(c.name), std::string::npos)
        << session.status();
  }
}

}  // namespace
}  // namespace sj
