#include "xpath/parser.h"

#include <cctype>
#include <string>

namespace sj::xpath {
namespace {

bool IsNameStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsNameChar(char c) {
  return IsNameStart(c) || std::isdigit(static_cast<unsigned char>(c)) ||
         c == '-' || c == '.';
}

struct AxisSpelling {
  std::string_view name;
  Axis axis;
};

// Longest spellings first so that "ancestor-or-self" wins over "ancestor".
constexpr AxisSpelling kAxes[] = {
    {"ancestor-or-self", Axis::kAncestorOrSelf},
    {"descendant-or-self", Axis::kDescendantOrSelf},
    {"following-sibling", Axis::kFollowingSibling},
    {"preceding-sibling", Axis::kPrecedingSibling},
    {"ancestor", Axis::kAncestor},
    {"descendant", Axis::kDescendant},
    {"following", Axis::kFollowing},
    {"preceding", Axis::kPreceding},
    {"attribute", Axis::kAttribute},
    {"parent", Axis::kParent},
    {"child", Axis::kChild},
    {"self", Axis::kSelf},
};

class Parser {
 public:
  explicit Parser(std::string_view input) : input_(input) {}

  Result<LocationPath> Parse() {
    SJ_ASSIGN_OR_RETURN(LocationPath path, ParsePath());
    SkipSpace();
    if (!AtEnd()) return Error("trailing characters after path");
    return path;
  }

  Result<UnionExpr> ParseUnion() {
    UnionExpr expr;
    for (;;) {
      SJ_ASSIGN_OR_RETURN(LocationPath path, ParsePath());
      expr.branches.push_back(std::move(path));
      SkipSpace();
      if (!Consume("|")) break;
    }
    SkipSpace();
    if (!AtEnd()) return Error("trailing characters after union");
    return expr;
  }

 private:
  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return AtEnd() ? '\0' : input_[pos_]; }

  bool Consume(std::string_view token) {
    if (!input_.substr(pos_).starts_with(token)) return false;
    pos_ += token.size();
    return true;
  }

  void SkipSpace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      ++pos_;
    }
  }

  Status Error(std::string msg) const {
    return Status::ParseError("XPath, offset " + std::to_string(pos_) + ": " +
                              std::move(msg));
  }

  Result<std::string> ParseName() {
    SkipSpace();
    if (AtEnd() || !IsNameStart(Peek())) return Error("expected a name");
    size_t start = pos_;
    while (!AtEnd() && IsNameChar(Peek())) ++pos_;
    // Allow one namespace-prefix colon (kept as part of the name).
    if (!AtEnd() && Peek() == ':' && pos_ + 1 < input_.size() &&
        input_[pos_ + 1] != ':' && IsNameStart(input_[pos_ + 1])) {
      ++pos_;
      while (!AtEnd() && IsNameChar(Peek())) ++pos_;
    }
    return std::string(input_.substr(start, pos_ - start));
  }

  /// descendant-or-self::node() -- what '//' abbreviates.
  static Step DescendantOrSelfNode() {
    Step step;
    step.axis = Axis::kDescendantOrSelf;
    step.test.kind = NodeTestKind::kAnyNode;
    return step;
  }

  Result<LocationPath> ParsePath() {
    LocationPath path;
    SkipSpace();
    if (Consume("//")) {
      path.absolute = true;
      path.steps.push_back(DescendantOrSelfNode());
    } else if (Consume("/")) {
      path.absolute = true;
      SkipSpace();
      if (AtEnd()) return path;  // "/" alone: the document element
    }
    SJ_RETURN_NOT_OK(ParseRelative(&path));
    return path;
  }

  Status ParseRelative(LocationPath* path) {
    for (;;) {
      SJ_ASSIGN_OR_RETURN(Step step, ParseStep());
      path->steps.push_back(std::move(step));
      SkipSpace();
      if (Consume("//")) {
        path->steps.push_back(DescendantOrSelfNode());
        continue;
      }
      if (Consume("/")) continue;
      return Status::OK();
    }
  }

  Result<Step> ParseStep() {
    SkipSpace();
    Step step;
    if (Consume("..")) {
      step.axis = Axis::kParent;
      step.test.kind = NodeTestKind::kAnyNode;
      return step;
    }
    if (Peek() == '.' ) {
      ++pos_;
      step.axis = Axis::kSelf;
      step.test.kind = NodeTestKind::kAnyNode;
      return step;
    }
    if (Consume("@")) {
      step.axis = Axis::kAttribute;
    } else {
      // Try an explicit axis specifier.
      bool found = false;
      for (const AxisSpelling& spelling : kAxes) {
        if (input_.substr(pos_).starts_with(spelling.name) &&
            input_.substr(pos_ + spelling.name.size()).starts_with("::")) {
          pos_ += spelling.name.size() + 2;
          step.axis = spelling.axis;
          found = true;
          break;
        }
      }
      if (!found) step.axis = Axis::kChild;  // default axis
    }
    SJ_ASSIGN_OR_RETURN(step.test, ParseNodeTest());
    // Predicates.
    for (;;) {
      SkipSpace();
      if (!Consume("[")) break;
      SkipSpace();
      Predicate pred;
      if (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        uint64_t n = 0;
        while (!AtEnd() &&
               std::isdigit(static_cast<unsigned char>(Peek()))) {
          n = n * 10 + static_cast<uint64_t>(Peek() - '0');
          if (n > 0xFFFFFFFFull) return Error("position out of range");
          ++pos_;
        }
        if (n == 0) return Error("positions are 1-based");
        pred.kind = Predicate::Kind::kPosition;
        pred.position = static_cast<uint32_t>(n);
      } else if (Consume("last()")) {
        pred.kind = Predicate::Kind::kLast;
      } else {
        if (++depth_ > kMaxPredicateDepth) {
          return Status::InvalidArgument(
              "XPath, offset " + std::to_string(pos_) +
              ": predicates nested deeper than " +
              std::to_string(kMaxPredicateDepth));
        }
        SJ_ASSIGN_OR_RETURN(LocationPath path, ParsePath());
        --depth_;
        if (path.steps.empty() && !path.absolute) {
          return Error("empty predicate");
        }
        pred.kind = Predicate::Kind::kExists;
        pred.path = std::make_unique<LocationPath>(std::move(path));
      }
      SkipSpace();
      if (!Consume("]")) return Error("expected ']'");
      step.predicates.push_back(std::move(pred));
    }
    return step;
  }

  Result<NodeTest> ParseNodeTest() {
    SkipSpace();
    NodeTest test;
    if (Consume("*")) {
      test.kind = NodeTestKind::kAnyName;
      return test;
    }
    if (Consume("node()")) {
      test.kind = NodeTestKind::kAnyNode;
      return test;
    }
    if (Consume("text()")) {
      test.kind = NodeTestKind::kText;
      return test;
    }
    if (Consume("comment()")) {
      test.kind = NodeTestKind::kComment;
      return test;
    }
    if (Consume("processing-instruction(")) {
      test.kind = NodeTestKind::kPi;
      SkipSpace();
      if (Peek() != ')') {
        SJ_ASSIGN_OR_RETURN(test.name, ParseName());
        SkipSpace();
      }
      if (!Consume(")")) return Error("expected ')'");
      return test;
    }
    test.kind = NodeTestKind::kName;
    SJ_ASSIGN_OR_RETURN(test.name, ParseName());
    return test;
  }

  std::string_view input_;
  size_t pos_ = 0;
  /// Predicate nesting of the path being parsed.
  size_t depth_ = 0;
};

}  // namespace

Result<LocationPath> ParseXPath(std::string_view input) {
  Parser parser(input);
  return parser.Parse();
}

Result<UnionExpr> ParseXPathUnion(std::string_view input) {
  Parser parser(input);
  return parser.ParseUnion();
}

}  // namespace sj::xpath
