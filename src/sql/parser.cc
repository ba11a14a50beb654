#include "sql/parser.h"

#include <cerrno>
#include <cstdlib>

#include "sql/lexer.h"

namespace ghostdb::sql {

namespace {

/// Token cursor with typed expectation helpers.
class Cursor {
 public:
  explicit Cursor(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Peek2() const {
    return tokens_[std::min(pos_ + 1, tokens_.size() - 1)];
  }
  Token Take() { return tokens_[pos_++]; }

  bool AtKeyword(const std::string& kw) const {
    return Peek().type == TokenType::kKeyword && Peek().text == kw;
  }
  bool AtSymbol(const std::string& sym) const {
    return Peek().type == TokenType::kSymbol && Peek().text == sym;
  }
  bool TryKeyword(const std::string& kw) {
    if (AtKeyword(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool TrySymbol(const std::string& sym) {
    if (AtSymbol(sym)) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status ExpectKeyword(const std::string& kw) {
    if (!TryKeyword(kw)) {
      return Status::InvalidArgument("expected " + kw + " near '" +
                                     Peek().text + "' (byte " +
                                     std::to_string(Peek().offset) + ")");
    }
    return Status::OK();
  }
  Status ExpectSymbol(const std::string& sym) {
    if (!TrySymbol(sym)) {
      return Status::InvalidArgument("expected '" + sym + "' near '" +
                                     Peek().text + "' (byte " +
                                     std::to_string(Peek().offset) + ")");
    }
    return Status::OK();
  }
  Result<std::string> ExpectIdentifier(const char* what) {
    if (Peek().type != TokenType::kIdentifier) {
      return Status::InvalidArgument(std::string("expected ") + what +
                                     " near '" + Peek().text + "'");
    }
    return Take().text;
  }

 private:
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

Result<catalog::Value> ParseLiteral(Cursor& cur) {
  const Token& t = cur.Peek();
  switch (t.type) {
    case TokenType::kInteger: {
      long long v = std::strtoll(t.text.c_str(), nullptr, 10);
      cur.Take();
      if (v >= INT32_MIN && v <= INT32_MAX) {
        return catalog::Value::Int32(static_cast<int32_t>(v));
      }
      return catalog::Value::Int64(v);
    }
    case TokenType::kFloat: {
      double v = std::strtod(t.text.c_str(), nullptr);
      cur.Take();
      return catalog::Value::Double(v);
    }
    case TokenType::kString: {
      std::string s = t.text;
      cur.Take();
      return catalog::Value::String(std::move(s));
    }
    default:
      return Status::InvalidArgument("expected literal near '" + t.text +
                                     "'");
  }
}

Result<ColumnRef> ParseColumnRef(Cursor& cur) {
  GHOSTDB_ASSIGN_OR_RETURN(std::string first,
                           cur.ExpectIdentifier("column reference"));
  ColumnRef ref;
  if (cur.TrySymbol(".")) {
    GHOSTDB_ASSIGN_OR_RETURN(std::string second,
                             cur.ExpectIdentifier("column name"));
    ref.table = first;
    ref.column = second;
  } else {
    ref.column = first;
  }
  return ref;
}

/// An aggregate-or-column item: `AGG(col)`, `COUNT(*)`, or a plain column
/// reference — the grammar shared by the SELECT list and (for grouped
/// queries) ORDER BY keys.
Result<SelectItem> ParseAggregateOrColumn(Cursor& cur) {
  SelectItem item;
  exec::AggFunc agg = exec::AggFunc::kNone;
  if (cur.TryKeyword("COUNT")) agg = exec::AggFunc::kCount;
  else if (cur.TryKeyword("SUM")) agg = exec::AggFunc::kSum;
  else if (cur.TryKeyword("AVG")) agg = exec::AggFunc::kAvg;
  else if (cur.TryKeyword("MIN")) agg = exec::AggFunc::kMin;
  else if (cur.TryKeyword("MAX")) agg = exec::AggFunc::kMax;
  if (agg != exec::AggFunc::kNone) {
    GHOSTDB_RETURN_NOT_OK(cur.ExpectSymbol("("));
    if (agg == exec::AggFunc::kCount && cur.TrySymbol("*")) {
      item.agg = exec::AggFunc::kCountStar;
    } else {
      GHOSTDB_ASSIGN_OR_RETURN(item.ref, ParseColumnRef(cur));
      item.agg = agg;
    }
    GHOSTDB_RETURN_NOT_OK(cur.ExpectSymbol(")"));
  } else {
    GHOSTDB_ASSIGN_OR_RETURN(item.ref, ParseColumnRef(cur));
  }
  return item;
}

Result<catalog::CompareOp> ParseCompareOp(Cursor& cur) {
  if (cur.Peek().type != TokenType::kSymbol) {
    return Status::InvalidArgument("expected comparison operator near '" +
                                   cur.Peek().text + "'");
  }
  Token token = cur.Take();
  const std::string& sym = token.text;
  if (sym == "=") return catalog::CompareOp::kEq;
  if (sym == "<>" || sym == "!=") return catalog::CompareOp::kNe;
  if (sym == "<") return catalog::CompareOp::kLt;
  if (sym == "<=") return catalog::CompareOp::kLe;
  if (sym == ">") return catalog::CompareOp::kGt;
  if (sym == ">=") return catalog::CompareOp::kGe;
  return Status::InvalidArgument("unknown operator '" + sym + "'");
}

Result<Statement> ParseCreateTable(Cursor& cur) {
  GHOSTDB_RETURN_NOT_OK(cur.ExpectKeyword("CREATE"));
  GHOSTDB_RETURN_NOT_OK(cur.ExpectKeyword("TABLE"));
  CreateTableStmt stmt;
  GHOSTDB_ASSIGN_OR_RETURN(stmt.def.name, cur.ExpectIdentifier("table name"));
  GHOSTDB_RETURN_NOT_OK(cur.ExpectSymbol("("));
  bool first_column = true;
  while (true) {
    GHOSTDB_ASSIGN_OR_RETURN(std::string col_name,
                             cur.ExpectIdentifier("column name"));
    catalog::ColumnDef col;
    col.name = col_name;
    // Type.
    if (cur.TryKeyword("INT") || cur.TryKeyword("INTEGER")) {
      col.type = catalog::DataType::kInt32;
      col.width = 4;
    } else if (cur.TryKeyword("BIGINT")) {
      col.type = catalog::DataType::kInt64;
      col.width = 8;
    } else if (cur.TryKeyword("FLOAT") || cur.TryKeyword("DOUBLE")) {
      col.type = catalog::DataType::kDouble;
      col.width = 8;
    } else if (cur.TryKeyword("CHAR")) {
      col.type = catalog::DataType::kString;
      GHOSTDB_RETURN_NOT_OK(cur.ExpectSymbol("("));
      if (cur.Peek().type != TokenType::kInteger) {
        return Status::InvalidArgument("expected CHAR width");
      }
      col.width = static_cast<uint32_t>(
          std::strtoul(cur.Take().text.c_str(), nullptr, 10));
      GHOSTDB_RETURN_NOT_OK(cur.ExpectSymbol(")"));
    } else {
      return Status::InvalidArgument("expected a type for column '" +
                                     col_name + "' near '" + cur.Peek().text +
                                     "'");
    }
    if (cur.TryKeyword("REFERENCES")) {
      GHOSTDB_ASSIGN_OR_RETURN(col.references,
                               cur.ExpectIdentifier("referenced table"));
    }
    if (cur.TryKeyword("HIDDEN")) col.hidden = true;

    // `id INT` as the first column declares the implicit surrogate key and
    // is not stored as a regular column (the paper's CREATE TABLE examples
    // list it explicitly).
    bool is_surrogate = first_column && col.name == "id" &&
                        col.type == catalog::DataType::kInt32 &&
                        col.references.empty() && !col.hidden;
    if (!is_surrogate) stmt.def.columns.push_back(std::move(col));
    first_column = false;

    if (cur.TrySymbol(",")) continue;
    GHOSTDB_RETURN_NOT_OK(cur.ExpectSymbol(")"));
    break;
  }
  if (cur.TryKeyword("HIDDEN")) stmt.def.hidden = true;
  cur.TrySymbol(";");
  return Statement{std::move(stmt)};
}

Result<Statement> ParseInsert(Cursor& cur) {
  GHOSTDB_RETURN_NOT_OK(cur.ExpectKeyword("INSERT"));
  GHOSTDB_RETURN_NOT_OK(cur.ExpectKeyword("INTO"));
  InsertStmt stmt;
  GHOSTDB_ASSIGN_OR_RETURN(stmt.table, cur.ExpectIdentifier("table name"));
  GHOSTDB_RETURN_NOT_OK(cur.ExpectKeyword("VALUES"));
  GHOSTDB_RETURN_NOT_OK(cur.ExpectSymbol("("));
  while (true) {
    GHOSTDB_ASSIGN_OR_RETURN(catalog::Value v, ParseLiteral(cur));
    stmt.values.push_back(std::move(v));
    if (cur.TrySymbol(",")) continue;
    GHOSTDB_RETURN_NOT_OK(cur.ExpectSymbol(")"));
    break;
  }
  cur.TrySymbol(";");
  return Statement{std::move(stmt)};
}

Result<Statement> ParseSelect(Cursor& cur) {
  SelectStmt stmt;
  if (cur.TryKeyword("EXPLAIN")) stmt.explain = true;
  GHOSTDB_RETURN_NOT_OK(cur.ExpectKeyword("SELECT"));
  if (cur.TryKeyword("DISTINCT")) stmt.distinct = true;
  if (cur.TrySymbol("*")) {
    stmt.star = true;
  } else {
    while (true) {
      // Aggregate functions: COUNT(*|col) / SUM / AVG / MIN / MAX (col).
      GHOSTDB_ASSIGN_OR_RETURN(SelectItem item, ParseAggregateOrColumn(cur));
      stmt.items.push_back(std::move(item));
      if (!cur.TrySymbol(",")) break;
    }
  }
  GHOSTDB_RETURN_NOT_OK(cur.ExpectKeyword("FROM"));
  while (true) {
    GHOSTDB_ASSIGN_OR_RETURN(std::string table,
                             cur.ExpectIdentifier("table name"));
    FromTable entry{table, ""};
    // Optional alias: `Measurements M`; qualified references then use the
    // alias.
    if (cur.Peek().type == TokenType::kIdentifier) {
      entry.alias = cur.Take().text;
    }
    stmt.from.push_back(std::move(entry));
    if (!cur.TrySymbol(",")) break;
  }
  if (cur.TryKeyword("WHERE")) {
    while (true) {
      // Either `ref op literal`, `ref = ref` (join), or
      // `ref BETWEEN lit AND lit`.
      GHOSTDB_ASSIGN_OR_RETURN(ColumnRef left, ParseColumnRef(cur));
      if (cur.TryKeyword("BETWEEN")) {
        GHOSTDB_ASSIGN_OR_RETURN(catalog::Value lo, ParseLiteral(cur));
        GHOSTDB_RETURN_NOT_OK(cur.ExpectKeyword("AND"));
        GHOSTDB_ASSIGN_OR_RETURN(catalog::Value hi, ParseLiteral(cur));
        stmt.predicates.push_back(
            {left, catalog::CompareOp::kGe, std::move(lo)});
        stmt.predicates.push_back(
            {left, catalog::CompareOp::kLe, std::move(hi)});
      } else {
        GHOSTDB_ASSIGN_OR_RETURN(catalog::CompareOp op, ParseCompareOp(cur));
        if (cur.Peek().type == TokenType::kIdentifier) {
          if (op != catalog::CompareOp::kEq) {
            return Status::InvalidArgument(
                "joins must be equi-joins (key = foreign key)");
          }
          GHOSTDB_ASSIGN_OR_RETURN(ColumnRef right, ParseColumnRef(cur));
          stmt.joins.push_back({std::move(left), std::move(right)});
        } else {
          GHOSTDB_ASSIGN_OR_RETURN(catalog::Value v, ParseLiteral(cur));
          stmt.predicates.push_back({std::move(left), op, std::move(v)});
        }
      }
      if (!cur.TryKeyword("AND")) break;
    }
  }
  if (cur.TryKeyword("GROUP")) {
    GHOSTDB_RETURN_NOT_OK(cur.ExpectKeyword("BY"));
    while (true) {
      GHOSTDB_ASSIGN_OR_RETURN(ColumnRef key, ParseColumnRef(cur));
      stmt.group_by.push_back(std::move(key));
      if (!cur.TrySymbol(",")) break;
    }
  }
  if (cur.TryKeyword("ORDER")) {
    GHOSTDB_RETURN_NOT_OK(cur.ExpectKeyword("BY"));
    while (true) {
      OrderExpr key;
      GHOSTDB_ASSIGN_OR_RETURN(SelectItem item, ParseAggregateOrColumn(cur));
      key.column = std::move(item.ref);
      key.agg = item.agg;
      if (cur.TryKeyword("DESC")) {
        key.descending = true;
      } else {
        cur.TryKeyword("ASC");
      }
      stmt.order_by.push_back(std::move(key));
      if (!cur.TrySymbol(",")) break;
    }
  }
  if (cur.TryKeyword("LIMIT")) {
    if (cur.Peek().type != TokenType::kInteger) {
      return Status::InvalidArgument("expected integer after LIMIT near '" +
                                     cur.Peek().text + "'");
    }
    std::string text = cur.Take().text;
    errno = 0;
    uint64_t limit = std::strtoull(text.c_str(), nullptr, 10);
    if (errno == ERANGE) {
      return Status::InvalidArgument("LIMIT value '" + text +
                                     "' is out of range");
    }
    stmt.limit = limit;
  }
  cur.TrySymbol(";");
  return Statement{std::move(stmt)};
}

Result<Statement> ParseOne(Cursor& cur) {
  if (cur.AtKeyword("CREATE")) return ParseCreateTable(cur);
  if (cur.AtKeyword("INSERT")) return ParseInsert(cur);
  if (cur.AtKeyword("SELECT") || cur.AtKeyword("EXPLAIN")) {
    return ParseSelect(cur);
  }
  return Status::InvalidArgument("expected CREATE, INSERT, SELECT or EXPLAIN "
                                 "near '" + cur.Peek().text + "'");
}

}  // namespace

Result<Statement> Parse(const std::string& input) {
  GHOSTDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(input));
  Cursor cur(std::move(tokens));
  GHOSTDB_ASSIGN_OR_RETURN(Statement stmt, ParseOne(cur));
  if (cur.Peek().type != TokenType::kEnd) {
    return Status::InvalidArgument("trailing input near '" + cur.Peek().text +
                                   "'");
  }
  return stmt;
}

Result<std::string> QueryShape(const std::string& input) {
  GHOSTDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(input));
  std::string shape;
  for (const Token& t : tokens) {
    if (t.type == TokenType::kEnd) break;
    // The optional statement terminator is not part of the shape:
    // "SELECT ..." and "SELECT ...;" share one shape.
    if (t.type == TokenType::kSymbol && t.text == ";") continue;
    if (!shape.empty()) shape.push_back(' ');
    switch (t.type) {
      case TokenType::kInteger:
      case TokenType::kFloat:
      case TokenType::kString:
        shape.push_back('?');
        break;
      default:
        shape += t.text;
        break;
    }
  }
  return shape;
}

Result<std::vector<Statement>> ParseScript(const std::string& input) {
  GHOSTDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(input));
  Cursor cur(std::move(tokens));
  std::vector<Statement> out;
  while (cur.Peek().type != TokenType::kEnd) {
    GHOSTDB_ASSIGN_OR_RETURN(Statement stmt, ParseOne(cur));
    out.push_back(std::move(stmt));
  }
  return out;
}

}  // namespace ghostdb::sql
