#ifndef MALLARD_PARSER_PARSER_H_
#define MALLARD_PARSER_PARSER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mallard/common/result.h"
#include "mallard/common/value.h"
#include "mallard/parser/ast.h"

namespace mallard {

enum class TokenType : uint8_t {
  kIdentifier,  // bare word or "quoted identifier" (text without quotes)
  kInteger,
  kFloat,
  kString,     // text is the unescaped contents
  kSymbol,     // one of ( ) , ; . * + - / %
  kOperator,   // = <> != < <= > >=
  kParameter,  // ? (text empty) or $N (text = N)
  kEnd,
};

/// One lexeme of a SQL string. `[begin, end)` is its byte span in the
/// source, quotes and `$` included; kEnd spans the empty tail.
struct Token {
  TokenType type;
  std::string text;
  size_t begin;
  size_t end;
};

/// Hand-written recursive-descent SQL parser covering the analytical
/// dialect of the engine: SELECT (joins, GROUP BY, HAVING, ORDER BY,
/// LIMIT, DISTINCT), DDL, DML, COPY, PRAGMA, transactions, EXPLAIN.
class Parser {
 public:
  using Statements = std::vector<std::unique_ptr<SQLStatement>>;

  /// Splits `sql` into tokens (whitespace and `--` comments dropped),
  /// ending with one kEnd token. The only code that reads SQL text
  /// character by character.
  static Result<std::vector<Token>> Tokenize(const std::string& sql);

  /// Parses a semicolon-separated list of statements.
  static Result<Statements> Parse(const std::string& sql);

  /// Parses tokens as Tokenize returned them, possibly edited (the plan
  /// cache swaps literals for kParameter tokens); `sql` is the text
  /// their spans point into.
  static Result<Statements> Parse(std::vector<Token> tokens,
                                  const std::string& sql);

  /// The constant a kInteger, kFloat or kString token denotes, typed as
  /// an expression types it: int32-fitting integers INTEGER, larger
  /// ones BIGINT, floats DOUBLE, strings VARCHAR.
  static Value LiteralValue(const Token& token);

  /// Folds a unary minus into an INTEGER, BIGINT or DOUBLE constant, as
  /// `-5` parses; false (value untouched) for other types.
  static bool NegateNumber(Value* value);

  /// True for the words that cannot name a column (SELECT, WHERE, ...).
  static bool IsReserved(const std::string& word);
};

}  // namespace mallard

#endif  // MALLARD_PARSER_PARSER_H_
