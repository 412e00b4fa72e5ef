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

SharedPlanCache::Entry* SharedPlanCache::Acquire(const std::string& key,
                                                 bool* busy) {
  *busy = false;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    stats_.misses++;
    return nullptr;
  }
  Entry* entry = it->second.get();
  if (entry->in_use) {
    // Plans hold mutable operator state: one execution at a time. The
    // loser plans fresh and uncached instead of waiting.
    stats_.busy_skips++;
    *busy = true;
    return nullptr;
  }
  stats_.hits++;
  entry->in_use = true;
  lru_.splice(lru_.begin(), lru_, entry->lru_pos);
  return entry;
}

std::unique_ptr<SharedPlanCache::Entry> SharedPlanCache::Detach(Entry* entry) {
  auto it = entries_.find(entry->key);
  std::unique_ptr<Entry> owned = std::move(it->second);
  entries_.erase(it);
  lru_.erase(entry->lru_pos);
  return owned;
}

void SharedPlanCache::Release(Entry* entry, bool keep) {
  std::unique_ptr<Entry> reaped;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    entry->in_use = false;
    if (entry->orphaned) {
      for (auto it = orphans_.begin(); it != orphans_.end(); ++it) {
        if (it->get() == entry) {
          reaped = std::move(*it);
          orphans_.erase(it);
          break;
        }
      }
    } else if (!keep) {
      reaped = Detach(entry);
      stats_.evictions++;
    } else {
      lru_.splice(lru_.begin(), lru_, entry->lru_pos);
    }
    stats_.entries = entries_.size();
  }
  // `reaped` destroys the plan outside the lock.
}

SharedPlanCache::Entry* SharedPlanCache::Insert(std::unique_ptr<Entry> entry) {
  Entry* raw = entry.get();
  raw->in_use = true;
  std::vector<std::unique_ptr<Entry>> evicted;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(raw->key);
  if (it != entries_.end()) {
    // Two connections planned the same miss concurrently; the resident
    // entry wins if idle (drop ours after this execution), ours replaces
    // it otherwise is impossible to file — run it orphaned either way.
    raw->orphaned = true;
    orphans_.push_back(std::move(entry));
    return raw;
  }
  while (entries_.size() >= capacity_ && !lru_.empty()) {
    // Evict from the cold end, skipping entries mid-execution.
    bool evicted_one = false;
    for (auto lru_it = lru_.rbegin(); lru_it != lru_.rend(); ++lru_it) {
      if (!(*lru_it)->in_use) {
        evicted.push_back(Detach(*lru_it));
        stats_.evictions++;
        evicted_one = true;
        break;
      }
    }
    if (!evicted_one) break;  // everything busy: admit over capacity
  }
  raw->lru_pos = lru_.insert(lru_.begin(), raw);
  entries_.emplace(raw->key, std::move(entry));
  stats_.entries = entries_.size();
  return raw;
}

void SharedPlanCache::Clear() {
  std::vector<std::unique_ptr<Entry>> reaped;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& pair : entries_) {
      if (pair.second->in_use) {
        pair.second->orphaned = true;
        orphans_.push_back(std::move(pair.second));
      } else {
        reaped.push_back(std::move(pair.second));
      }
    }
    entries_.clear();
    lru_.clear();
    stats_.entries = 0;
  }
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
