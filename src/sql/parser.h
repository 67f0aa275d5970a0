// Recursive-descent parser for the middleware dialect (see sql/ast.h).
#ifndef PERIODK_SQL_PARSER_H_
#define PERIODK_SQL_PARSER_H_

#include <string>

#include "common/status.h"
#include "sql/ast.h"

namespace periodk {
namespace sql {

/// Deepest nesting the parser accepts (docs/sql_reference.md §1): each
/// subquery, each expression nested in parentheses, a function call,
/// CASE or IN, each unary NOT / minus and each operator of a left-deep
/// chain (a + b + ..., AND/OR, UNION ALL) adds a level.  Deeper input
/// is a ParseError rather than a stack overflow in the recursive
/// descent (or in the binder, rewriter and executor that walk the
/// resulting tree).
inline constexpr int kMaxNestingDepth = 256;

/// Parses one statement:
///   [SEQ VT (] query [)] [ORDER BY ...]
/// where query is a UNION ALL / EXCEPT ALL tree of SELECT blocks.
[[nodiscard]] Result<Statement> Parse(const std::string& sql);

}  // namespace sql
}  // namespace periodk

#endif  // PERIODK_SQL_PARSER_H_
