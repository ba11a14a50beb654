// Recursive-descent parser for the GhostDB SQL dialect.
#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "sql/ast.h"

namespace ghostdb::sql {

/// Parses one statement (a trailing ';' is accepted).
Result<Statement> Parse(const std::string& input);

/// Parses a ';'-separated script into statements.
Result<std::vector<Statement>> ParseScript(const std::string& input);

/// Normalized query shape: the token stream with every literal replaced by
/// '?'. Two statements differing only in constants share one shape. No
/// engine code calls it (every statement is planned from its own text);
/// the end-to-end benchmark's `sql.shape` layer times it.
Result<std::string> QueryShape(const std::string& input);

}  // namespace ghostdb::sql
