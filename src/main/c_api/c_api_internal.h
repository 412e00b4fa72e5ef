// Internal handle layout of the C ABI (src/include/mallard/c_api/mallard.h).
// This header is NOT part of the public surface: bindings see only the
// opaque typedefs; the structs below may change freely between versions.
//
// Lifetime model: handles reference-count the objects under them so the
// C side can destroy handles in any order. A ConnectionState outlives
// the `mallard_connection` wrapper for as long as statements or streams
// derived from it exist; mallard_disconnect() flips `closed`, which
// every later operation checks before touching the engine.
#ifndef MALLARD_MAIN_C_API_C_API_INTERNAL_H_
#define MALLARD_MAIN_C_API_C_API_INTERNAL_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mallard/c_api/mallard.h"
#include "mallard/main/connection.h"
#include "mallard/main/database.h"
#include "mallard/main/prepared_statement.h"
#include "mallard/main/query_result.h"

namespace mallard {
namespace c_api {

/// Connection plus everything it needs to stay valid. Declaration order
/// matters: members are destroyed bottom-up, so the Connection goes
/// before the Database it points into.
struct ConnectionState {
  std::shared_ptr<Database> db;
  std::unique_ptr<Connection> connection;
  /// Set by mallard_disconnect(); operations on dependent handles check
  /// this and fail with "connection is closed" instead of executing.
  bool closed = false;
};

/// Maps the engine's TypeId onto the frozen C enum.
mallard_type ToCType(TypeId type);

/// Maps the engine's StatusCode onto the frozen C error-class enum.
mallard_error_code ToCErrorCode(StatusCode code);

/// Allocates an errored mallard_result carrying `message` and an error
/// class (never throws; returns nullptr if even the allocation fails).
mallard_result* NewErrorResult(const std::string& message,
                               mallard_error_code code = MALLARD_ERROR_GENERIC);

/// True when the handle chain down to the engine Connection is intact
/// and not closed.
inline bool ConnectionLive(const std::shared_ptr<ConnectionState>& state) {
  return state != nullptr && !state->closed && state->connection != nullptr;
}

constexpr char kClosedConnectionError[] = "connection is closed";

/// One (chunk, column) slice of a result rendered as NUL-terminated
/// strings: row i's string starts at bytes[offsets[i]]. NULL rows keep
/// an offset but are answered from the vector's validity.
struct RenderedSlice {
  std::string bytes;  // never modified once rendered
  std::vector<size_t> offsets;
};

}  // namespace c_api
}  // namespace mallard

// --- Opaque handle definitions (layouts private to src/main/c_api/) ---

struct mallard_database {
  std::shared_ptr<mallard::Database> db;
};

struct mallard_connection {
  std::shared_ptr<mallard::c_api::ConnectionState> state;
};

struct mallard_result {
  // Null when the result carries an error instead of rows.
  std::unique_ptr<mallard::MaterializedQueryResult> result;
  bool has_error = false;
  std::string error;
  mallard_error_code error_code = MALLARD_ERROR_NONE;
  // Backing store for mallard_value_varchar(), one slot per (chunk,
  // column) at chunk * column_count + column, filled the first time any
  // row of that slice is read. A filled slice is never written again, so
  // the pointers it hands out live as long as the result handle, as the
  // C contract requires.
  std::vector<std::unique_ptr<mallard::c_api::RenderedSlice>> varchar_slices;
};

struct mallard_prepared_statement {
  // Keeps the connection (and through it the database) alive; declared
  // before the statement so the statement is destroyed first.
  std::shared_ptr<mallard::c_api::ConnectionState> connection;
  // Shared (not unique) so open streams can pin the plan they borrow.
  // Null when Prepare itself failed.
  std::shared_ptr<mallard::PreparedStatement> statement;
  bool has_error = false;
  std::string error;  // latest prepare/bind/execute failure
};

struct mallard_stream {
  // Destruction order (bottom-up): stream first — its Close() touches
  // both the borrowed plan and the connection — then statement, then
  // connection state.
  std::shared_ptr<mallard::c_api::ConnectionState> connection;
  std::shared_ptr<mallard::PreparedStatement> statement;
  std::unique_ptr<mallard::StreamingQueryResult> stream;
  bool has_error = false;
  std::string error;
};

#endif  // MALLARD_MAIN_C_API_C_API_INTERNAL_H_
