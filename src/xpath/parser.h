// Recursive-descent parser for the XPath location-path fragment.

#ifndef STAIRJOIN_XPATH_PARSER_H_
#define STAIRJOIN_XPATH_PARSER_H_

#include <cstddef>
#include <string_view>

#include "util/result.h"
#include "xpath/ast.h"

namespace sj::xpath {

/// Deepest predicate nesting (`a[b[c]]` nests 2) the parser accepts.
/// Parsing, planning and predicate evaluation all recurse once per
/// level, so hostile input past this bound is rejected with
/// InvalidArgument instead of overflowing the stack.
inline constexpr size_t kMaxPredicateDepth = 1024;

/// \brief Parses an XPath location path.
///
/// Grammar (abbreviations expanded during parsing):
///   path      := '/'? relative | '//' relative
///   relative  := step (('/' | '//') step)*
///   step      := axis '::' nodetest pred* | '@' nodetest pred*
///              | nodetest pred* | '.' | '..'
///   nodetest  := NAME | '*' | 'node()' | 'text()' | 'comment()'
///              | 'processing-instruction(' NAME? ')'
///   pred      := '[' relative-or-absolute path ']'
///
/// `//` expands to `/descendant-or-self::node()/`. Predicates may also be
/// positional: `[N]` (1-based, in axis order) or `[last()]`. Returns
/// ParseError with a position for malformed input, InvalidArgument for
/// predicates nested deeper than kMaxPredicateDepth.
Result<LocationPath> ParseXPath(std::string_view input);

/// \brief Parses a union of location paths: `p1 | p2 | ...`.
Result<UnionExpr> ParseXPathUnion(std::string_view input);

}  // namespace sj::xpath

#endif  // STAIRJOIN_XPATH_PARSER_H_
