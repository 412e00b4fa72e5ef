#include "mallard/main/plan_cache.h"

#include "mallard/common/string_util.h"

namespace mallard {

namespace {

bool IsWord(const Token& token, const char* word) {
  return token.type == TokenType::kIdentifier &&
         StringUtil::CIEquals(token.text, word);
}

bool IsSymbol(const Token& token, char symbol) {
  return token.type == TokenType::kSymbol && token.text[0] == symbol;
}

/// The grammar demands a real literal token after these words (LIMIT 5,
/// DATE '...', INTERVAL '1' DAY), so the literal stays in place.
bool KeepsLiteral(const Token& prev) {
  return IsWord(prev, "LIMIT") || IsWord(prev, "OFFSET") ||
         IsWord(prev, "DATE") || IsWord(prev, "TIMESTAMP") ||
         IsWord(prev, "INTERVAL");
}

/// Whether a `-` after `prev` is unary, which ParseUnary folds into the
/// number that follows, rather than subtraction. Misjudging is safe: a
/// unary minus taken for subtraction stays `- ?` (same value), and a
/// subtraction taken for unary leaves `operand ?`, which the parser
/// rejects, so the statement runs uncached.
bool MinusIsUnary(const Token& prev) {
  switch (prev.type) {
    case TokenType::kOperator:
      return true;
    case TokenType::kSymbol:
      return prev.text[0] != ')';
    case TokenType::kIdentifier:
      // A keyword leads an operand, except the two that end one.
      return Parser::IsReserved(prev.text) && !IsWord(prev, "NULL") &&
             !IsWord(prev, "END");
    default:
      return false;
  }
}

char TypeTag(TypeId type) {
  switch (type) {
    case TypeId::kInteger:
      return 'i';
    case TypeId::kBigInt:
      return 'l';
    case TypeId::kDouble:
      return 'd';
    default:
      return 's';
  }
}

}  // namespace

NormalizedQuery NormalizeQueryText(const std::string& sql) {
  NormalizedQuery out;
  auto lexed = Parser::Tokenize(sql);
  if (!lexed.ok()) return out;
  std::vector<Token>& tokens = *lexed;
  // Only plannable statements are worth caching; everything else (DDL,
  // PRAGMA, COPY, transactions) bypasses the cache.
  const Token& first = tokens[0];
  if (!IsWord(first, "SELECT") && !IsWord(first, "INSERT") &&
      !IsWord(first, "UPDATE") && !IsWord(first, "DELETE")) {
    return out;
  }
  std::string tags;
  // CAST(x AS TYPE(...)): the parser skips the type's parameters up to
  // the first ')', so literals there must stay put.
  bool in_cast_type = false;
  // Tokens are rewritten in place: `w` trails the read index by the
  // folded minus signs dropped so far.
  size_t w = 0;
  for (size_t r = 0; r < tokens.size(); r++) {
    Token token = std::move(tokens[r]);
    switch (token.type) {
      case TokenType::kParameter:
        // Explicit parameters: this text belongs to Prepare, not the
        // transparent cache (mixing would renumber the user's slots).
        return out;
      case TokenType::kIdentifier:
        // read_csv scans a file whose contents can change between
        // executions: never cache the plan.
        if (StringUtil::CIEquals(token.text, "read_csv")) return out;
        break;
      case TokenType::kSymbol:
        // Only a trailing semicolon: an entry holds exactly one plan.
        if (IsSymbol(token, ';') && tokens[r + 1].type != TokenType::kEnd) {
          return out;
        }
        if (IsSymbol(token, '(') && w >= 2 &&
            tokens[w - 1].type == TokenType::kIdentifier &&
            IsWord(tokens[w - 2], "AS")) {
          in_cast_type = true;
        }
        if (IsSymbol(token, ')')) in_cast_type = false;
        break;
      case TokenType::kInteger:
      case TokenType::kFloat:
      case TokenType::kString: {
        if (in_cast_type || KeepsLiteral(tokens[w - 1])) break;
        Value value = Parser::LiteralValue(token);
        if (token.type != TokenType::kString &&
            IsSymbol(tokens[w - 1], '-') && MinusIsUnary(tokens[w - 2])) {
          // The parser classifies the positive text, then negates, so
          // -2147483648 stays BigInt.
          Parser::NegateNumber(&value);
          token.begin = tokens[--w].begin;
        }
        tags += TypeTag(value.type());
        out.literals.push_back(std::move(value));
        token.type = TokenType::kParameter;
        token.text.clear();
        break;
      }
      default:
        break;
    }
    tokens[w++] = std::move(token);
  }
  tokens.resize(w);

  out.key.reserve(sql.size() + tags.size() + 1);
  size_t cursor = 0;
  for (const Token& token : tokens) {
    if (token.type == TokenType::kEnd) break;
    if (token.begin > cursor && cursor > 0) out.key += ' ';
    if (token.type == TokenType::kParameter) {
      out.key += '?';
    } else {
      out.key.append(sql, token.begin, token.end - token.begin);
    }
    cursor = token.end;
  }
  // The type tags are letters after a '\x01', which no token text ends
  // with, so a key splits back into tokens and tags one way only.
  out.key += '\x01';
  out.key += tags;
  out.tokens = std::move(tokens);
  out.cacheable = true;
  return out;
}

// ---------------------------------------------------------------------------

SharedPlanCache::EntryPtr SharedPlanCache::Acquire(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    stats_.misses++;
    return nullptr;
  }
  stats_.hits++;
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  return it->second.entry;
}

void SharedPlanCache::Unfile(
    std::unordered_map<std::string, Slot>::iterator it,
    std::vector<EntryPtr>* dead) {
  lru_.erase(it->second.lru_pos);
  dead->push_back(std::move(it->second.entry));
  entries_.erase(it);
}

SharedPlanCache::EntryPtr SharedPlanCache::Insert(
    std::unique_ptr<Entry> entry) {
  EntryPtr shared = std::move(entry);
  std::vector<EntryPtr> dead;  // freed after the lock is released
  std::lock_guard<std::mutex> lock(mutex_);
  // Two connections planned the same miss concurrently: the resident
  // entry stays filed.
  if (entries_.count(shared->key)) return shared;
  while (entries_.size() >= capacity_ && !lru_.empty()) {
    Unfile(entries_.find(lru_.back()->key), &dead);
    stats_.evictions++;
  }
  lru_.push_front(shared.get());
  entries_.emplace(shared->key, Slot{shared, lru_.begin()});
  return shared;
}

void SharedPlanCache::Replace(const EntryPtr& stale, const EntryPtr& fresh) {
  EntryPtr old;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(stale->key);
  if (it == entries_.end() || it->second.entry != stale) return;
  old = std::move(it->second.entry);
  it->second.entry = fresh;
  *it->second.lru_pos = fresh.get();
}

void SharedPlanCache::Drop(const EntryPtr& entry) {
  std::vector<EntryPtr> dead;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(entry->key);
  if (it == entries_.end() || it->second.entry != entry) return;
  Unfile(it, &dead);
  stats_.evictions++;
}

void SharedPlanCache::Clear() {
  std::unordered_map<std::string, Slot> dead;
  std::lock_guard<std::mutex> lock(mutex_);
  dead.swap(entries_);
  lru_.clear();
}

idx_t SharedPlanCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

PlanCacheStats SharedPlanCache::GetStats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  PlanCacheStats stats = stats_;
  stats.entries = entries_.size();
  return stats;
}

void SharedPlanCache::RecordUncacheable() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.uncacheable++;
}

void SharedPlanCache::RecordInvalidation() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.invalidations++;
}

}  // namespace mallard
