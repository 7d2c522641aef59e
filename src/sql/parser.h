// Recursive-descent parser for the mini-SQL dialect. Produces a validated
// hfq::Query bound to a catalog.
//
// Grammar (keywords case-insensitive):
//   query      := SELECT select_list FROM from_list
//                 [WHERE predicate (AND predicate)*]
//                 [GROUP BY column (',' column)*] [';']
//   select_list:= '*' | item (',' item)*
//   item       := column | func '(' ('*' | column) ')'
//   func       := COUNT | SUM | MIN | MAX | AVG
//   from_list  := table [[AS] alias] (',' table [[AS] alias])*
//   predicate  := column op (column | literal)
//   column     := ident '.' ident | ident          (unqualified columns must
//                                                   be unambiguous)
//   op         := '=' '<>' '!=' '<' '<=' '>' '>='
#ifndef HFQ_SQL_PARSER_H_
#define HFQ_SQL_PARSER_H_

#include <string>

#include "catalog/catalog.h"
#include "plan/query.h"
#include "util/status.h"

namespace hfq {

/// Parses `sql` into a Query validated against `catalog`. `name` becomes
/// the query's name: a label for logs and reports that also seeds the
/// latency simulator's noise. No cache keys on it.
Result<Query> ParseSql(const std::string& sql, const Catalog& catalog,
                       const std::string& name = "adhoc");

}  // namespace hfq

#endif  // HFQ_SQL_PARSER_H_
