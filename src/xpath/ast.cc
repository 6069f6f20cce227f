#include "xpath/ast.h"

namespace sj::xpath {

Predicate::Predicate() = default;
Predicate::~Predicate() = default;
Predicate::Predicate(Predicate&&) noexcept = default;
Predicate& Predicate::operator=(Predicate&&) noexcept = default;

Predicate::Predicate(const Predicate& other)
    : kind(other.kind),
      path(other.path ? std::make_unique<LocationPath>(*other.path)
                      : nullptr),
      position(other.position) {}

Predicate& Predicate::operator=(const Predicate& other) {
  if (this != &other) {
    kind = other.kind;
    path = other.path ? std::make_unique<LocationPath>(*other.path) : nullptr;
    position = other.position;
  }
  return *this;
}

std::string ToString(const Predicate& pred) {
  std::string out = "[";
  switch (pred.kind) {
    case Predicate::Kind::kExists:
      if (pred.path) out += ToString(*pred.path);
      break;
    case Predicate::Kind::kPosition:
      out += std::to_string(pred.position);
      break;
    case Predicate::Kind::kLast:
      out += "last()";
      break;
  }
  out += ']';
  return out;
}

std::string ToString(const Step& step) {
  std::string out(AxisName(step.axis));
  out += "::";
  switch (step.test.kind) {
    case NodeTestKind::kName:
      out += step.test.name;
      break;
    case NodeTestKind::kAnyName:
      out += "*";
      break;
    case NodeTestKind::kAnyNode:
      out += "node()";
      break;
    case NodeTestKind::kText:
      out += "text()";
      break;
    case NodeTestKind::kComment:
      out += "comment()";
      break;
    case NodeTestKind::kPi:
      out += "processing-instruction(";
      out += step.test.name;
      out += ")";
      break;
  }
  for (const Predicate& pred : step.predicates) {
    out += ToString(pred);
  }
  return out;
}

std::string ToString(const LocationPath& path) {
  std::string out;
  if (path.absolute) out += "/";
  for (size_t i = 0; i < path.steps.size(); ++i) {
    if (i > 0) out += "/";
    out += ToString(path.steps[i]);
  }
  return out;
}

std::string ToString(const UnionExpr& expr) {
  std::string out;
  for (size_t i = 0; i < expr.branches.size(); ++i) {
    if (i > 0) out += " | ";
    out += ToString(expr.branches[i]);
  }
  return out;
}

}  // namespace sj::xpath
