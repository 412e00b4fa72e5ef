#include "mallard/parser/parser.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>

#include "mallard/common/string_util.h"

namespace mallard {

namespace {

bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }
bool IsWordStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsWordChar(char c) { return IsWordStart(c) || IsDigit(c); }

}  // namespace

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

Result<std::vector<Token>> Parser::Tokenize(const std::string& sql) {
  std::vector<Token> tokens;
  // About one token per four characters: one allocation for most queries.
  tokens.reserve(sql.size() / 4 + 2);
  const size_t n = sql.size();
  size_t i = 0;
  while (i < n) {
    char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      i++;
      continue;
    }
    if (c == '-' && i + 1 < n && sql[i + 1] == '-') {
      while (i < n && sql[i] != '\n') i++;
      continue;
    }
    size_t start = i;
    if (IsWordStart(c)) {
      while (i < n && IsWordChar(sql[i])) i++;
      tokens.push_back(
          {TokenType::kIdentifier, sql.substr(start, i - start), start, i});
      continue;
    }
    if (IsDigit(c) || (c == '.' && i + 1 < n && IsDigit(sql[i + 1]))) {
      bool is_float = false;
      while (i < n &&
             (IsDigit(sql[i]) || sql[i] == '.' || sql[i] == 'e' ||
              sql[i] == 'E' ||
              ((sql[i] == '+' || sql[i] == '-') && i > start &&
               (sql[i - 1] == 'e' || sql[i - 1] == 'E')))) {
        if (sql[i] == '.' || sql[i] == 'e' || sql[i] == 'E') is_float = true;
        i++;
      }
      tokens.push_back({is_float ? TokenType::kFloat : TokenType::kInteger,
                        sql.substr(start, i - start), start, i});
      continue;
    }
    if (c == '\'' || c == '"') {
      // String literal ('' escapes a quote) or quoted identifier.
      std::string value;
      i++;
      bool closed = false;
      while (i < n) {
        if (sql[i] == c) {
          if (c == '\'' && i + 1 < n && sql[i + 1] == '\'') {
            value += '\'';
            i += 2;
            continue;
          }
          closed = true;
          i++;
          break;
        }
        value += sql[i++];
      }
      if (!closed) {
        return Status::Parser(c == '\'' ? "unterminated string literal"
                                        : "unterminated quoted identifier");
      }
      tokens.push_back({c == '\'' ? TokenType::kString : TokenType::kIdentifier,
                        std::move(value), start, i});
      continue;
    }
    // Prepared-statement parameter placeholders.
    if (c == '?') {
      i++;
      tokens.push_back({TokenType::kParameter, "", start, i});
      continue;
    }
    if (c == '$') {
      i++;
      while (i < n && IsDigit(sql[i])) i++;
      if (i == start + 1) {
        return Status::Parser("expected parameter number after '$'");
      }
      tokens.push_back({TokenType::kParameter,
                        sql.substr(start + 1, i - start - 1), start, i});
      continue;
    }
    if (c == '<' || c == '>' || c == '=' || c == '!') {
      i++;
      if (i < n && (sql[i] == '=' || (c == '<' && sql[i] == '>'))) i++;
      tokens.push_back(
          {TokenType::kOperator, sql.substr(start, i - start), start, i});
      continue;
    }
    if (std::strchr("(),;.*+-/%", c) != nullptr && c != '\0') {
      i++;
      tokens.push_back({TokenType::kSymbol, std::string(1, c), start, i});
      continue;
    }
    return Status::Parser(StringUtil::Format(
        "unexpected character '%c' at position %zu", c, i));
  }
  tokens.push_back({TokenType::kEnd, "", n, n});
  return tokens;
}

Value Parser::LiteralValue(const Token& token) {
  switch (token.type) {
    case TokenType::kInteger: {
      int64_t v = std::strtoll(token.text.c_str(), nullptr, 10);
      if (v >= INT32_MIN && v <= INT32_MAX) {
        return Value::Integer(static_cast<int32_t>(v));
      }
      return Value::BigInt(v);
    }
    case TokenType::kFloat:
      return Value::Double(std::strtod(token.text.c_str(), nullptr));
    default:
      return Value::Varchar(token.text);
  }
}

bool Parser::NegateNumber(Value* value) {
  switch (value->type()) {
    case TypeId::kInteger:
      *value = Value::Integer(-value->GetInteger());
      return true;
    case TypeId::kBigInt:
      *value = Value::BigInt(-value->GetBigInt());
      return true;
    case TypeId::kDouble:
      *value = Value::Double(-value->GetDouble());
      return true;
    default:
      return false;
  }
}

bool Parser::IsReserved(const std::string& word) {
  static const char* kReserved[] = {
      "SELECT", "FROM",  "WHERE", "GROUP",  "HAVING", "ORDER",  "LIMIT",
      "OFFSET", "JOIN",  "INNER", "LEFT",   "CROSS",  "ON",     "AS",
      "AND",    "OR",    "NOT",   "IN",     "LIKE",   "BETWEEN", "IS",
      "NULL",   "CASE",  "WHEN",  "THEN",   "ELSE",   "END",    "CAST",
      "UNION",  "BY",    "ASC",   "DESC",   "DISTINCT", "VALUES", "SET",
      "INSERT", "UPDATE", "DELETE", "CREATE", "DROP", "COPY",   "INTO",
      "SEMI",   "ANTI",  "USING",
  };
  for (const char* kw : kReserved) {
    if (StringUtil::CIEquals(word, kw)) return true;
  }
  return false;
}

namespace {

// ---------------------------------------------------------------------------
// Parser implementation
// ---------------------------------------------------------------------------

class ParserImpl {
 public:
  ParserImpl(std::vector<Token> tokens, const std::string& sql)
      : tokens_(std::move(tokens)), sql_(sql) {}

  Result<std::vector<std::unique_ptr<SQLStatement>>> ParseStatements() {
    std::vector<std::unique_ptr<SQLStatement>> result;
    while (!AtEnd()) {
      if (MatchSymbol(";")) continue;
      MALLARD_ASSIGN_OR_RETURN(auto stmt, ParseStatement());
      result.push_back(std::move(stmt));
      if (!AtEnd() && !MatchSymbol(";")) {
        return Error("expected ';' between statements");
      }
    }
    return result;
  }

 private:
  // --- token helpers ------------------------------------------------------
  const Token& Peek(size_t ahead = 0) const {
    size_t i = std::min(position_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }
  bool AtEnd() const { return Peek().type == TokenType::kEnd; }
  const Token& Advance() { return tokens_[position_++]; }
  bool PeekKeyword(const std::string& kw, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.type == TokenType::kIdentifier && StringUtil::CIEquals(t.text, kw);
  }
  bool MatchKeyword(const std::string& kw) {
    if (PeekKeyword(kw)) {
      position_++;
      return true;
    }
    return false;
  }
  Status ExpectKeyword(const std::string& kw) {
    if (!MatchKeyword(kw)) {
      return Status::Parser("expected keyword " + kw + " near '" +
                            Peek().text + "'");
    }
    return Status::OK();
  }
  bool MatchSymbol(const std::string& sym) {
    if (Peek().type == TokenType::kSymbol && Peek().text == sym) {
      position_++;
      return true;
    }
    return false;
  }
  Status ExpectSymbol(const std::string& sym) {
    if (!MatchSymbol(sym)) {
      return Status::Parser("expected '" + sym + "' near '" + Peek().text +
                            "'");
    }
    return Status::OK();
  }
  Status Error(const std::string& message) const {
    return Status::Parser(message + " near '" + Peek().text + "'");
  }
  /// A non-reserved identifier: an alias may follow without AS.
  bool PeekAlias() const {
    return Peek().type == TokenType::kIdentifier &&
           !Parser::IsReserved(Peek().text);
  }
  Result<std::string> ExpectIdentifier() {
    if (Peek().type != TokenType::kIdentifier) {
      return Status::Parser("expected identifier near '" + Peek().text + "'");
    }
    return Advance().text;
  }

  // --- statements ---------------------------------------------------------

  Result<std::unique_ptr<SQLStatement>> ParseStatement() {
    if (PeekKeyword("SELECT")) {
      MALLARD_ASSIGN_OR_RETURN(auto select, ParseSelect());
      return std::unique_ptr<SQLStatement>(select.release());
    }
    if (PeekKeyword("CREATE")) return ParseCreate();
    if (PeekKeyword("DROP")) return ParseDrop();
    if (PeekKeyword("INSERT")) return ParseInsert();
    if (PeekKeyword("UPDATE")) return ParseUpdate();
    if (PeekKeyword("DELETE")) return ParseDelete();
    if (PeekKeyword("COPY")) return ParseCopy();
    if (PeekKeyword("BEGIN") || PeekKeyword("COMMIT") ||
        PeekKeyword("ROLLBACK") || PeekKeyword("ABORT")) {
      auto stmt = std::make_unique<TransactionStatement>();
      if (MatchKeyword("BEGIN")) {
        MatchKeyword("TRANSACTION");
        stmt->kind = TransactionStatement::Kind::kBegin;
      } else if (MatchKeyword("COMMIT")) {
        stmt->kind = TransactionStatement::Kind::kCommit;
      } else {
        Advance();
        stmt->kind = TransactionStatement::Kind::kRollback;
      }
      return std::unique_ptr<SQLStatement>(stmt.release());
    }
    if (PeekKeyword("PRAGMA")) {
      Advance();
      auto stmt = std::make_unique<PragmaStatement>();
      MALLARD_ASSIGN_OR_RETURN(stmt->name, ExpectIdentifier());
      if (Peek().type == TokenType::kOperator && Peek().text == "=") {
        Advance();
        stmt->value = Advance().text;
      } else if (MatchSymbol("(")) {
        stmt->value = Advance().text;
        MALLARD_RETURN_NOT_OK(ExpectSymbol(")"));
      }
      return std::unique_ptr<SQLStatement>(stmt.release());
    }
    if (PeekKeyword("EXPLAIN")) {
      Advance();
      auto stmt = std::make_unique<ExplainStatement>();
      MALLARD_ASSIGN_OR_RETURN(stmt->inner, ParseStatement());
      return std::unique_ptr<SQLStatement>(stmt.release());
    }
    if (PeekKeyword("CHECKPOINT")) {
      Advance();
      return std::unique_ptr<SQLStatement>(new CheckpointStatement());
    }
    return Error("unrecognized statement");
  }

  Result<std::unique_ptr<SelectStatement>> ParseSelect() {
    MALLARD_RETURN_NOT_OK(ExpectKeyword("SELECT"));
    auto stmt = std::make_unique<SelectStatement>();
    if (MatchKeyword("DISTINCT")) stmt->distinct = true;
    // Select list.
    do {
      MALLARD_ASSIGN_OR_RETURN(auto expr, ParseExpression());
      if (MatchKeyword("AS")) {
        MALLARD_ASSIGN_OR_RETURN(expr->alias, ExpectIdentifier());
      } else if (PeekAlias()) {
        expr->alias = Advance().text;
      }
      stmt->select_list.push_back(std::move(expr));
    } while (MatchSymbol(","));
    if (MatchKeyword("FROM")) {
      MALLARD_ASSIGN_OR_RETURN(stmt->from, ParseTableRefList());
    }
    if (MatchKeyword("WHERE")) {
      MALLARD_ASSIGN_OR_RETURN(stmt->where, ParseExpression());
    }
    if (MatchKeyword("GROUP")) {
      MALLARD_RETURN_NOT_OK(ExpectKeyword("BY"));
      do {
        MALLARD_ASSIGN_OR_RETURN(auto expr, ParseExpression());
        stmt->group_by.push_back(std::move(expr));
      } while (MatchSymbol(","));
    }
    if (MatchKeyword("HAVING")) {
      MALLARD_ASSIGN_OR_RETURN(stmt->having, ParseExpression());
    }
    if (MatchKeyword("ORDER")) {
      MALLARD_RETURN_NOT_OK(ExpectKeyword("BY"));
      do {
        OrderByItem item;
        MALLARD_ASSIGN_OR_RETURN(item.expr, ParseExpression());
        if (MatchKeyword("DESC")) {
          item.ascending = false;
        } else {
          MatchKeyword("ASC");
        }
        stmt->order_by.push_back(std::move(item));
      } while (MatchSymbol(","));
    }
    if (MatchKeyword("LIMIT")) {
      if (Peek().type != TokenType::kInteger) {
        return Error("expected integer after LIMIT");
      }
      stmt->limit = std::strtoll(Advance().text.c_str(), nullptr, 10);
    }
    if (MatchKeyword("OFFSET")) {
      if (Peek().type != TokenType::kInteger) {
        return Error("expected integer after OFFSET");
      }
      stmt->offset = std::strtoll(Advance().text.c_str(), nullptr, 10);
    }
    return stmt;
  }

  Result<std::unique_ptr<TableRef>> ParseTableRefList() {
    MALLARD_ASSIGN_OR_RETURN(auto left, ParseJoinChain());
    while (MatchSymbol(",")) {
      MALLARD_ASSIGN_OR_RETURN(auto right, ParseJoinChain());
      auto join = std::make_unique<TableRef>(TableRef::Type::kJoin);
      join->is_cross = true;
      join->left = std::move(left);
      join->right = std::move(right);
      left = std::move(join);
    }
    return left;
  }

  Result<std::unique_ptr<TableRef>> ParseJoinChain() {
    MALLARD_ASSIGN_OR_RETURN(auto left, ParseSingleTable());
    while (true) {
      JoinType join_type = JoinType::kInner;
      bool is_cross = false;
      if (PeekKeyword("JOIN") || PeekKeyword("INNER")) {
        MatchKeyword("INNER");
        MALLARD_RETURN_NOT_OK(ExpectKeyword("JOIN"));
      } else if (PeekKeyword("LEFT")) {
        Advance();
        MatchKeyword("OUTER");
        MALLARD_RETURN_NOT_OK(ExpectKeyword("JOIN"));
        join_type = JoinType::kLeft;
      } else if (PeekKeyword("SEMI")) {
        Advance();
        MALLARD_RETURN_NOT_OK(ExpectKeyword("JOIN"));
        join_type = JoinType::kSemi;
      } else if (PeekKeyword("ANTI")) {
        Advance();
        MALLARD_RETURN_NOT_OK(ExpectKeyword("JOIN"));
        join_type = JoinType::kAnti;
      } else if (PeekKeyword("CROSS")) {
        Advance();
        MALLARD_RETURN_NOT_OK(ExpectKeyword("JOIN"));
        is_cross = true;
      } else {
        break;
      }
      MALLARD_ASSIGN_OR_RETURN(auto right, ParseSingleTable());
      auto join = std::make_unique<TableRef>(TableRef::Type::kJoin);
      join->join_type = join_type;
      join->is_cross = is_cross;
      join->left = std::move(left);
      join->right = std::move(right);
      if (!is_cross) {
        MALLARD_RETURN_NOT_OK(ExpectKeyword("ON"));
        MALLARD_ASSIGN_OR_RETURN(join->condition, ParseExpression());
      }
      left = std::move(join);
    }
    return left;
  }

  Result<std::unique_ptr<TableRef>> ParseSingleTable() {
    if (MatchSymbol("(")) {
      // Derived table: (SELECT ...) alias
      auto ref = std::make_unique<TableRef>(TableRef::Type::kSubquery);
      MALLARD_ASSIGN_OR_RETURN(ref->subquery, ParseSelect());
      MALLARD_RETURN_NOT_OK(ExpectSymbol(")"));
      MatchKeyword("AS");
      if (PeekAlias()) {
        ref->alias = Advance().text;
      }
      return ref;
    }
    MALLARD_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier());
    if (StringUtil::CIEquals(name, "read_csv") && MatchSymbol("(")) {
      auto ref = std::make_unique<TableRef>(TableRef::Type::kCsv);
      if (Peek().type != TokenType::kString) {
        return Error("read_csv expects a path string");
      }
      ref->csv_path = Advance().text;
      MALLARD_RETURN_NOT_OK(ExpectSymbol(")"));
      MatchKeyword("AS");
      if (PeekAlias()) {
        ref->alias = Advance().text;
      }
      if (ref->alias.empty()) ref->alias = "read_csv";
      return ref;
    }
    auto ref = std::make_unique<TableRef>(TableRef::Type::kBase);
    ref->name = name;
    MatchKeyword("AS");
    if (PeekAlias()) {
      ref->alias = Advance().text;
    } else {
      ref->alias = name;
    }
    return ref;
  }

  Result<std::unique_ptr<SQLStatement>> ParseCreate() {
    MALLARD_RETURN_NOT_OK(ExpectKeyword("CREATE"));
    bool or_replace = false;
    if (MatchKeyword("OR")) {
      MALLARD_RETURN_NOT_OK(ExpectKeyword("REPLACE"));
      or_replace = true;
    }
    if (MatchKeyword("VIEW")) {
      auto stmt = std::make_unique<CreateViewStatement>();
      stmt->or_replace = or_replace;
      MALLARD_ASSIGN_OR_RETURN(stmt->name, ExpectIdentifier());
      if (MatchSymbol("(")) {
        do {
          MALLARD_ASSIGN_OR_RETURN(auto alias, ExpectIdentifier());
          stmt->aliases.push_back(alias);
        } while (MatchSymbol(","));
        MALLARD_RETURN_NOT_OK(ExpectSymbol(")"));
      }
      MALLARD_RETURN_NOT_OK(ExpectKeyword("AS"));
      // Store the raw SQL of the select.
      size_t start_pos = Peek().begin;
      MALLARD_ASSIGN_OR_RETURN(auto select, ParseSelect());
      (void)select;
      size_t end_pos = Peek().begin;
      stmt->select_sql = sql_.substr(start_pos, end_pos - start_pos);
      return std::unique_ptr<SQLStatement>(stmt.release());
    }
    MALLARD_RETURN_NOT_OK(ExpectKeyword("TABLE"));
    auto stmt = std::make_unique<CreateTableStatement>();
    if (MatchKeyword("IF")) {
      MALLARD_RETURN_NOT_OK(ExpectKeyword("NOT"));
      MALLARD_RETURN_NOT_OK(ExpectKeyword("EXISTS"));
      stmt->if_not_exists = true;
    }
    MALLARD_ASSIGN_OR_RETURN(stmt->name, ExpectIdentifier());
    if (MatchKeyword("AS")) {
      MALLARD_ASSIGN_OR_RETURN(stmt->as_select, ParseSelect());
      return std::unique_ptr<SQLStatement>(stmt.release());
    }
    MALLARD_RETURN_NOT_OK(ExpectSymbol("("));
    do {
      ColumnDefinition col;
      MALLARD_ASSIGN_OR_RETURN(col.name, ExpectIdentifier());
      MALLARD_ASSIGN_OR_RETURN(std::string type_name, ExpectIdentifier());
      MALLARD_ASSIGN_OR_RETURN(col.type, TypeIdFromString(type_name));
      // Swallow optional type parameters: VARCHAR(32), DECIMAL(12,2).
      if (MatchSymbol("(")) {
        while (!MatchSymbol(")")) {
          if (AtEnd()) return Error("unterminated type parameters");
          Advance();
        }
      }
      // Swallow simple column constraints.
      while (PeekKeyword("NOT") || PeekKeyword("NULL") ||
             PeekKeyword("PRIMARY") || PeekKeyword("KEY") ||
             PeekKeyword("UNIQUE")) {
        Advance();
      }
      stmt->columns.push_back(std::move(col));
    } while (MatchSymbol(","));
    MALLARD_RETURN_NOT_OK(ExpectSymbol(")"));
    return std::unique_ptr<SQLStatement>(stmt.release());
  }

  Result<std::unique_ptr<SQLStatement>> ParseDrop() {
    MALLARD_RETURN_NOT_OK(ExpectKeyword("DROP"));
    auto stmt = std::make_unique<DropStatement>();
    if (MatchKeyword("VIEW")) {
      stmt->is_view = true;
    } else {
      MALLARD_RETURN_NOT_OK(ExpectKeyword("TABLE"));
    }
    if (MatchKeyword("IF")) {
      MALLARD_RETURN_NOT_OK(ExpectKeyword("EXISTS"));
      stmt->if_exists = true;
    }
    MALLARD_ASSIGN_OR_RETURN(stmt->name, ExpectIdentifier());
    return std::unique_ptr<SQLStatement>(stmt.release());
  }

  Result<std::unique_ptr<SQLStatement>> ParseInsert() {
    MALLARD_RETURN_NOT_OK(ExpectKeyword("INSERT"));
    MALLARD_RETURN_NOT_OK(ExpectKeyword("INTO"));
    auto stmt = std::make_unique<InsertStatement>();
    MALLARD_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier());
    if (MatchSymbol("(")) {
      do {
        MALLARD_ASSIGN_OR_RETURN(auto col, ExpectIdentifier());
        stmt->columns.push_back(col);
      } while (MatchSymbol(","));
      MALLARD_RETURN_NOT_OK(ExpectSymbol(")"));
    }
    if (MatchKeyword("VALUES")) {
      do {
        MALLARD_RETURN_NOT_OK(ExpectSymbol("("));
        std::vector<PExpr> row;
        do {
          MALLARD_ASSIGN_OR_RETURN(auto expr, ParseExpression());
          row.push_back(std::move(expr));
        } while (MatchSymbol(","));
        MALLARD_RETURN_NOT_OK(ExpectSymbol(")"));
        stmt->values.push_back(std::move(row));
      } while (MatchSymbol(","));
      return std::unique_ptr<SQLStatement>(stmt.release());
    }
    MALLARD_ASSIGN_OR_RETURN(stmt->select, ParseSelect());
    return std::unique_ptr<SQLStatement>(stmt.release());
  }

  Result<std::unique_ptr<SQLStatement>> ParseUpdate() {
    MALLARD_RETURN_NOT_OK(ExpectKeyword("UPDATE"));
    auto stmt = std::make_unique<UpdateStatement>();
    MALLARD_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier());
    MALLARD_RETURN_NOT_OK(ExpectKeyword("SET"));
    do {
      MALLARD_ASSIGN_OR_RETURN(auto column, ExpectIdentifier());
      if (!(Peek().type == TokenType::kOperator && Peek().text == "=")) {
        return Error("expected '=' in UPDATE assignment");
      }
      Advance();
      MALLARD_ASSIGN_OR_RETURN(auto expr, ParseExpression());
      stmt->assignments.emplace_back(column, std::move(expr));
    } while (MatchSymbol(","));
    if (MatchKeyword("WHERE")) {
      MALLARD_ASSIGN_OR_RETURN(stmt->where, ParseExpression());
    }
    return std::unique_ptr<SQLStatement>(stmt.release());
  }

  Result<std::unique_ptr<SQLStatement>> ParseDelete() {
    MALLARD_RETURN_NOT_OK(ExpectKeyword("DELETE"));
    MALLARD_RETURN_NOT_OK(ExpectKeyword("FROM"));
    auto stmt = std::make_unique<DeleteStatement>();
    MALLARD_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier());
    if (MatchKeyword("WHERE")) {
      MALLARD_ASSIGN_OR_RETURN(stmt->where, ParseExpression());
    }
    return std::unique_ptr<SQLStatement>(stmt.release());
  }

  Result<std::unique_ptr<SQLStatement>> ParseCopy() {
    MALLARD_RETURN_NOT_OK(ExpectKeyword("COPY"));
    auto stmt = std::make_unique<CopyStatement>();
    MALLARD_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier());
    if (MatchKeyword("FROM")) {
      stmt->is_from = true;
    } else {
      MALLARD_RETURN_NOT_OK(ExpectKeyword("TO"));
      stmt->is_from = false;
    }
    if (Peek().type != TokenType::kString) {
      return Error("COPY expects a quoted path");
    }
    stmt->path = Advance().text;
    return std::unique_ptr<SQLStatement>(stmt.release());
  }

  // --- expressions ----------------------------------------------------------

  Result<PExpr> ParseExpression() { return ParseOr(); }

  Result<PExpr> ParseOr() {
    MALLARD_ASSIGN_OR_RETURN(auto left, ParseAnd());
    while (MatchKeyword("OR")) {
      MALLARD_ASSIGN_OR_RETURN(auto right, ParseAnd());
      auto node = std::make_unique<ParsedExpression>(PExprType::kConjunction);
      node->is_and = false;
      node->children.push_back(std::move(left));
      node->children.push_back(std::move(right));
      left = std::move(node);
    }
    return left;
  }

  Result<PExpr> ParseAnd() {
    MALLARD_ASSIGN_OR_RETURN(auto left, ParseNot());
    while (MatchKeyword("AND")) {
      MALLARD_ASSIGN_OR_RETURN(auto right, ParseNot());
      auto node = std::make_unique<ParsedExpression>(PExprType::kConjunction);
      node->is_and = true;
      node->children.push_back(std::move(left));
      node->children.push_back(std::move(right));
      left = std::move(node);
    }
    return left;
  }

  Result<PExpr> ParseNot() {
    if (MatchKeyword("NOT")) {
      MALLARD_ASSIGN_OR_RETURN(auto child, ParseNot());
      auto node = std::make_unique<ParsedExpression>(PExprType::kNot);
      node->children.push_back(std::move(child));
      return PExpr(std::move(node));
    }
    return ParsePredicate();
  }

  Result<PExpr> ParsePredicate() {
    MALLARD_ASSIGN_OR_RETURN(auto left, ParseAddSub());
    while (true) {
      if (Peek().type == TokenType::kOperator) {
        std::string op = Advance().text;
        CompareOp cmp;
        if (op == "=") {
          cmp = CompareOp::kEqual;
        } else if (op == "<>" || op == "!=") {
          cmp = CompareOp::kNotEqual;
        } else if (op == "<") {
          cmp = CompareOp::kLess;
        } else if (op == "<=") {
          cmp = CompareOp::kLessEqual;
        } else if (op == ">") {
          cmp = CompareOp::kGreater;
        } else if (op == ">=") {
          cmp = CompareOp::kGreaterEqual;
        } else {
          return Error("unknown operator " + op);
        }
        MALLARD_ASSIGN_OR_RETURN(auto right, ParseAddSub());
        auto node =
            std::make_unique<ParsedExpression>(PExprType::kComparison);
        node->compare_op = cmp;
        node->children.push_back(std::move(left));
        node->children.push_back(std::move(right));
        left = std::move(node);
        continue;
      }
      bool negated = false;
      size_t save = position_;
      if (MatchKeyword("NOT")) {
        negated = true;
        if (!PeekKeyword("IN") && !PeekKeyword("LIKE") &&
            !PeekKeyword("BETWEEN")) {
          position_ = save;
          break;
        }
      }
      if (MatchKeyword("IS")) {
        bool not_null = MatchKeyword("NOT");
        MALLARD_RETURN_NOT_OK(ExpectKeyword("NULL"));
        auto node = std::make_unique<ParsedExpression>(PExprType::kIsNull);
        node->negated = not_null;
        node->children.push_back(std::move(left));
        left = std::move(node);
        continue;
      }
      if (MatchKeyword("BETWEEN")) {
        MALLARD_ASSIGN_OR_RETURN(auto low, ParseAddSub());
        MALLARD_RETURN_NOT_OK(ExpectKeyword("AND"));
        MALLARD_ASSIGN_OR_RETURN(auto high, ParseAddSub());
        auto node = std::make_unique<ParsedExpression>(PExprType::kBetween);
        node->negated = negated;
        node->children.push_back(std::move(left));
        node->children.push_back(std::move(low));
        node->children.push_back(std::move(high));
        left = std::move(node);
        continue;
      }
      if (MatchKeyword("IN")) {
        MALLARD_RETURN_NOT_OK(ExpectSymbol("("));
        auto node = std::make_unique<ParsedExpression>(PExprType::kInList);
        node->negated = negated;
        node->children.push_back(std::move(left));
        do {
          MALLARD_ASSIGN_OR_RETURN(auto item, ParseExpression());
          node->children.push_back(std::move(item));
        } while (MatchSymbol(","));
        MALLARD_RETURN_NOT_OK(ExpectSymbol(")"));
        left = std::move(node);
        continue;
      }
      if (MatchKeyword("LIKE")) {
        MALLARD_ASSIGN_OR_RETURN(auto pattern, ParseAddSub());
        auto node = std::make_unique<ParsedExpression>(PExprType::kLike);
        node->negated = negated;
        node->children.push_back(std::move(left));
        node->children.push_back(std::move(pattern));
        left = std::move(node);
        continue;
      }
      break;
    }
    return left;
  }

  Result<PExpr> ParseAddSub() {
    MALLARD_ASSIGN_OR_RETURN(auto left, ParseMulDiv());
    while (Peek().type == TokenType::kSymbol &&
           (Peek().text == "+" || Peek().text == "-")) {
      ArithOp op = Advance().text == "+" ? ArithOp::kAdd : ArithOp::kSubtract;
      MALLARD_ASSIGN_OR_RETURN(auto right, ParseMulDiv());
      auto node = std::make_unique<ParsedExpression>(PExprType::kArithmetic);
      node->arith_op = op;
      node->children.push_back(std::move(left));
      node->children.push_back(std::move(right));
      left = std::move(node);
    }
    return left;
  }

  Result<PExpr> ParseMulDiv() {
    MALLARD_ASSIGN_OR_RETURN(auto left, ParseUnary());
    while (Peek().type == TokenType::kSymbol &&
           (Peek().text == "*" || Peek().text == "/" || Peek().text == "%")) {
      std::string op = Advance().text;
      MALLARD_ASSIGN_OR_RETURN(auto right, ParseUnary());
      auto node = std::make_unique<ParsedExpression>(PExprType::kArithmetic);
      node->arith_op = op == "*" ? ArithOp::kMultiply
                                 : (op == "/" ? ArithOp::kDivide
                                              : ArithOp::kModulo);
      node->children.push_back(std::move(left));
      node->children.push_back(std::move(right));
      left = std::move(node);
    }
    return left;
  }

  Result<PExpr> ParseUnary() {
    if (Peek().type == TokenType::kSymbol && Peek().text == "-") {
      Advance();
      MALLARD_ASSIGN_OR_RETURN(auto child, ParseUnary());
      if (child->type == PExprType::kConstant &&
          Parser::NegateNumber(&child->constant)) {
        return child;
      }
      auto node = std::make_unique<ParsedExpression>(PExprType::kArithmetic);
      node->arith_op = ArithOp::kSubtract;
      auto zero = std::make_unique<ParsedExpression>(PExprType::kConstant);
      zero->constant = Value::Integer(0);
      node->children.push_back(std::move(zero));
      node->children.push_back(std::move(child));
      return PExpr(std::move(node));
    }
    if (Peek().type == TokenType::kSymbol && Peek().text == "+") {
      Advance();
      return ParseUnary();
    }
    return ParsePrimary();
  }

  Result<PExpr> ParsePrimary() {
    const Token& token = Peek();
    switch (token.type) {
      case TokenType::kInteger:
      case TokenType::kFloat:
      case TokenType::kString: {
        Advance();
        auto node = std::make_unique<ParsedExpression>(PExprType::kConstant);
        node->constant = Parser::LiteralValue(token);
        return PExpr(std::move(node));
      }
      case TokenType::kSymbol:
        if (token.text == "(") {
          Advance();
          MALLARD_ASSIGN_OR_RETURN(auto expr, ParseExpression());
          MALLARD_RETURN_NOT_OK(ExpectSymbol(")"));
          return expr;
        }
        if (token.text == "*") {
          Advance();
          return PExpr(std::make_unique<ParsedExpression>(PExprType::kStar));
        }
        return Error("unexpected symbol in expression");
      case TokenType::kParameter: {
        Advance();
        auto node = std::make_unique<ParsedExpression>(PExprType::kParameter);
        if (token.text.empty()) {
          // Positional '?': takes the next slot after everything seen so
          // far, so mixing with $N never aliases an explicit slot.
          node->parameter_index = next_positional_parameter_++;
        } else {
          constexpr int64_t kMaxParameterNumber = 65535;
          int64_t n = std::strtoll(token.text.c_str(), nullptr, 10);
          if (n < 1) {
            return Error("parameter numbers start at $1");
          }
          if (n > kMaxParameterNumber) {
            return Error("parameter number exceeds the maximum of $65535");
          }
          node->parameter_index = static_cast<idx_t>(n - 1);
          next_positional_parameter_ =
              std::max(next_positional_parameter_, static_cast<idx_t>(n));
        }
        return PExpr(std::move(node));
      }
      case TokenType::kIdentifier:
        return ParseIdentifierExpression();
      default:
        return Error("unexpected token in expression");
    }
  }

  Result<PExpr> ParseIdentifierExpression() {
    // Keyword-led expression forms.
    if (PeekKeyword("NULL")) {
      Advance();
      auto node = std::make_unique<ParsedExpression>(PExprType::kConstant);
      node->constant = Value();
      return PExpr(std::move(node));
    }
    if (PeekKeyword("TRUE") || PeekKeyword("FALSE")) {
      bool v = PeekKeyword("TRUE");
      Advance();
      auto node = std::make_unique<ParsedExpression>(PExprType::kConstant);
      node->constant = Value::Boolean(v);
      return PExpr(std::move(node));
    }
    if (PeekKeyword("DATE") && Peek(1).type == TokenType::kString) {
      Advance();
      std::string text = Advance().text;
      MALLARD_ASSIGN_OR_RETURN(int32_t days, date::FromString(text));
      auto node = std::make_unique<ParsedExpression>(PExprType::kConstant);
      node->constant = Value::Date(days);
      return PExpr(std::move(node));
    }
    if (PeekKeyword("TIMESTAMP") && Peek(1).type == TokenType::kString) {
      Advance();
      std::string text = Advance().text;
      MALLARD_ASSIGN_OR_RETURN(Value v,
                               Value::Varchar(text).CastTo(TypeId::kTimestamp));
      auto node = std::make_unique<ParsedExpression>(PExprType::kConstant);
      node->constant = v;
      return PExpr(std::move(node));
    }
    if (PeekKeyword("INTERVAL")) {
      // INTERVAL '<n>' DAY|MONTH|YEAR — represented as an integer constant
      // of days/months/years with the unit recorded in `name`; only valid
      // in date +/- interval arithmetic, which the binder folds.
      Advance();
      if (Peek().type != TokenType::kString &&
          Peek().type != TokenType::kInteger) {
        return Error("expected quantity after INTERVAL");
      }
      std::string quantity = Advance().text;
      MALLARD_ASSIGN_OR_RETURN(std::string unit, ExpectIdentifier());
      auto node = std::make_unique<ParsedExpression>(PExprType::kConstant);
      node->constant =
          Value::Integer(static_cast<int32_t>(std::strtoll(
              quantity.c_str(), nullptr, 10)));
      node->name = "interval_" + StringUtil::Lower(unit);
      return PExpr(std::move(node));
    }
    if (PeekKeyword("CAST")) {
      Advance();
      MALLARD_RETURN_NOT_OK(ExpectSymbol("("));
      MALLARD_ASSIGN_OR_RETURN(auto child, ParseExpression());
      MALLARD_RETURN_NOT_OK(ExpectKeyword("AS"));
      MALLARD_ASSIGN_OR_RETURN(std::string type_name, ExpectIdentifier());
      MALLARD_ASSIGN_OR_RETURN(TypeId type, TypeIdFromString(type_name));
      if (MatchSymbol("(")) {
        while (!MatchSymbol(")")) {
          if (AtEnd()) return Error("unterminated type parameters");
          Advance();
        }
      }
      MALLARD_RETURN_NOT_OK(ExpectSymbol(")"));
      auto node = std::make_unique<ParsedExpression>(PExprType::kCast);
      node->cast_type = type;
      node->children.push_back(std::move(child));
      return PExpr(std::move(node));
    }
    if (PeekKeyword("CASE")) {
      Advance();
      auto node = std::make_unique<ParsedExpression>(PExprType::kCase);
      // Optional CASE <expr> WHEN form.
      PExpr base;
      if (!PeekKeyword("WHEN")) {
        MALLARD_ASSIGN_OR_RETURN(base, ParseExpression());
      }
      while (MatchKeyword("WHEN")) {
        MALLARD_ASSIGN_OR_RETURN(auto when, ParseExpression());
        if (base) {
          auto eq = std::make_unique<ParsedExpression>(PExprType::kComparison);
          eq->compare_op = CompareOp::kEqual;
          eq->children.push_back(base->Copy());
          eq->children.push_back(std::move(when));
          when = std::move(eq);
        }
        MALLARD_RETURN_NOT_OK(ExpectKeyword("THEN"));
        MALLARD_ASSIGN_OR_RETURN(auto then, ParseExpression());
        node->children.push_back(std::move(when));
        node->children.push_back(std::move(then));
      }
      if (MatchKeyword("ELSE")) {
        MALLARD_ASSIGN_OR_RETURN(auto else_expr, ParseExpression());
        node->has_else = true;
        node->children.push_back(std::move(else_expr));
      }
      MALLARD_RETURN_NOT_OK(ExpectKeyword("END"));
      return PExpr(std::move(node));
    }
    // Plain identifier: column ref, qualified ref, or function call.
    // Reserved words cannot start an expression (catches "SELECT FROM").
    if (Parser::IsReserved(Peek().text)) {
      return Error("unexpected keyword in expression");
    }
    std::string first = Advance().text;
    if (MatchSymbol("(")) {
      auto node = std::make_unique<ParsedExpression>(PExprType::kFunction);
      node->name = StringUtil::Lower(first);
      if (MatchSymbol(")")) return PExpr(std::move(node));
      if (MatchSymbol("*")) {
        // COUNT(*)
        MALLARD_RETURN_NOT_OK(ExpectSymbol(")"));
        node->children.push_back(
            std::make_unique<ParsedExpression>(PExprType::kStar));
        return PExpr(std::move(node));
      }
      MatchKeyword("DISTINCT");  // parsed, not supported: binder rejects
      do {
        MALLARD_ASSIGN_OR_RETURN(auto arg, ParseExpression());
        node->children.push_back(std::move(arg));
      } while (MatchSymbol(","));
      MALLARD_RETURN_NOT_OK(ExpectSymbol(")"));
      return PExpr(std::move(node));
    }
    auto node = std::make_unique<ParsedExpression>(PExprType::kColumnRef);
    if (MatchSymbol(".")) {
      node->table_name = first;
      MALLARD_ASSIGN_OR_RETURN(node->name, ExpectIdentifier());
    } else {
      node->name = first;
    }
    return PExpr(std::move(node));
  }

  std::vector<Token> tokens_;
  const std::string& sql_;
  size_t position_ = 0;
  idx_t next_positional_parameter_ = 0;  // index assigned to the next '?'
};

}  // namespace

Result<Parser::Statements> Parser::Parse(const std::string& sql) {
  MALLARD_ASSIGN_OR_RETURN(auto tokens, Tokenize(sql));
  return Parse(std::move(tokens), sql);
}

Result<Parser::Statements> Parser::Parse(std::vector<Token> tokens,
                                         const std::string& sql) {
  ParserImpl impl(std::move(tokens), sql);
  return impl.ParseStatements();
}

}  // namespace mallard
