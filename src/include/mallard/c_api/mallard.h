/**
 * @file mallard.h
 * @brief Stable C ABI for embedding the mallard analytical engine.
 *
 * This header is the public C contract of mallard: a pure-C99,
 * opaque-handle API designed so that any host language with a C FFI
 * (Python, R, Go, Julia, ...) can link the engine straight into its
 * process — no client/server round-trips, following the embedded
 * design of "Data Management for Data Science — Towards Embedded
 * Analytics" (CIDR 2020). Everything a binding needs is declared here;
 * no other mallard header is required (or C-compatible).
 *
 * ## ABI rules
 *
 * - Every handle type is opaque. Handles are created and destroyed
 *   exclusively through the functions below; their layout is not part
 *   of the ABI and may change between versions.
 * - No C++ exception ever crosses this boundary. Every entry point
 *   catches internal failures and converts them to ::MALLARD_ERROR
 *   plus a retrievable message (mallard_result_error(),
 *   mallard_prepare_error(), mallard_stream_error()).
 * - Functions taking `NULL` or already-closed handles fail gracefully:
 *   state-returning calls return ::MALLARD_ERROR, accessors return
 *   0 / false / NULL. They never crash.
 *
 * ## Ownership and lifetime
 *
 * - Destroy functions take a pointer-to-handle and set it to NULL so
 *   double-destroy is harmless.
 * - Handles are internally reference counted: a connection keeps its
 *   database alive, a prepared statement keeps its connection alive,
 *   and a stream keeps its statement alive. You may therefore call
 *   mallard_close() / mallard_disconnect() in any order relative to
 *   dependent handles without crashing; the underlying instance shuts
 *   down when the last dependent handle is destroyed. Operations
 *   through a statement or stream whose connection has been
 *   disconnected return an error ("connection is closed") rather than
 *   executing.
 * - Every `const char *` returned by a result accessor
 *   (mallard_column_name(), mallard_value_varchar(),
 *   mallard_result_error()) is owned by the result handle and stays
 *   valid until mallard_destroy_result() on that handle. Do not
 *   free() it. The same rule binds mallard_prepare_error() to its
 *   statement and mallard_stream_error() to its stream.
 *
 * ## Thread safety
 *
 * A database handle may be shared across threads; open one connection
 * per thread. A connection — and every statement, result and stream
 * derived from it — must be used by one thread at a time.
 */
#ifndef MALLARD_C_API_MALLARD_H_
#define MALLARD_C_API_MALLARD_H_

#include <stdbool.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

/*===========================================================================
 * Types
 *===========================================================================*/

/** Success/failure state returned by fallible C API calls. */
typedef enum mallard_state {
  MALLARD_SUCCESS = 0,
  MALLARD_ERROR = 1
} mallard_state;

/**
 * Column/value type tags. These values are frozen: new types may be
 * appended, existing values never change meaning.
 */
typedef enum mallard_type {
  MALLARD_TYPE_INVALID = 0,
  MALLARD_TYPE_BOOLEAN = 1,   /**< accessor: mallard_value_boolean() */
  MALLARD_TYPE_INTEGER = 2,   /**< int32; accessor: mallard_value_int32() */
  MALLARD_TYPE_BIGINT = 3,    /**< int64; accessor: mallard_value_int64() */
  MALLARD_TYPE_DOUBLE = 4,    /**< accessor: mallard_value_double() */
  MALLARD_TYPE_VARCHAR = 5,   /**< accessor: mallard_value_varchar() */
  MALLARD_TYPE_DATE = 6,      /**< days since 1970-01-01 as int32 */
  MALLARD_TYPE_TIMESTAMP = 7  /**< microseconds since epoch as int64 */
} mallard_type;

/** An embedded database instance (a file on disk or in-memory). */
typedef struct mallard_database mallard_database;
/** A connection: the unit of transactional context. One per thread. */
typedef struct mallard_connection mallard_connection;
/** A materialized query result (also used for fetched stream chunks). */
typedef struct mallard_result mallard_result;
/** A parsed-and-planned statement with typed parameter slots. */
typedef struct mallard_prepared_statement mallard_prepared_statement;
/** An open streaming result; chunks are pulled with
 *  mallard_stream_fetch_chunk(). */
typedef struct mallard_stream mallard_stream;

/*===========================================================================
 * Database / connection lifecycle
 *===========================================================================*/

/**
 * Opens (creating if needed) the database at `path`. `NULL`, `""` and
 * `":memory:"` all open a transient in-memory database.
 *
 * @param path          filesystem path or ":memory:"/NULL/"".
 * @param out_database  receives the new handle on success; set to NULL
 *                      on failure.
 * @return ::MALLARD_SUCCESS or ::MALLARD_ERROR.
 */
mallard_state mallard_open(const char *path, mallard_database **out_database);

/**
 * Releases a database handle and sets `*database` to NULL. The
 * instance shuts down (persistent databases are checkpointed) once the
 * last connection/statement/stream referencing it is destroyed too.
 * Safe on NULL / already-closed handles.
 */
void mallard_close(mallard_database **database);

/**
 * Opens a connection on `database`.
 *
 * @param database        an open database handle.
 * @param out_connection  receives the new handle on success; set to
 *                        NULL on failure.
 * @return ::MALLARD_SUCCESS or ::MALLARD_ERROR.
 */
mallard_state mallard_connect(mallard_database *database,
                              mallard_connection **out_connection);

/**
 * Closes a connection and sets `*connection` to NULL. An active
 * explicit transaction is rolled back. Statements and streams created
 * from this connection remain valid handles but every subsequent
 * operation on them reports "connection is closed". Safe on NULL.
 */
void mallard_disconnect(mallard_connection **connection);

/**
 * @return the message of the most recent mallard_open() /
 *         mallard_connect() failure on the calling thread, or NULL if
 *         the latest such call succeeded. Thread-local storage, valid
 *         until the next mallard_open()/mallard_connect() on this
 *         thread; do not free(). (Query/statement/stream failures
 *         carry their messages on their own handles instead — see
 *         mallard_result_error() and friends.)
 */
const char *mallard_open_error(void);

/**
 * @return the mallard release string, e.g. "mallard 0.2.0". Static
 *         storage; never freed.
 */
const char *mallard_version(void);

/*===========================================================================
 * Ad-hoc queries
 *===========================================================================*/

/**
 * Parses and executes `sql` (possibly several ';'-separated
 * statements), materializing the result of the last one.
 *
 * A result handle is produced in `*out_result` even on failure, so the
 * error message can be read with mallard_result_error(); destroy it
 * with mallard_destroy_result() either way.
 *
 * @return ::MALLARD_SUCCESS, or ::MALLARD_ERROR on parse/bind/execution
 *         failure or closed handles.
 */
mallard_state mallard_query(mallard_connection *connection, const char *sql,
                            mallard_result **out_result);

/**
 * Requests cancellation of the statement `connection` is currently
 * running (or, if none is running, of its next one). The statement
 * stops at its next chunk boundary and reports an "Interrupted" error
 * through the normal result channel; the connection stays usable.
 *
 * The one connection call that is safe from any thread — this is how a
 * UI thread cancels a long query the worker thread launched through
 * this handle. Safe on NULL/closed handles (no-op).
 *
 * @return ::MALLARD_SUCCESS, or ::MALLARD_ERROR for a NULL/closed
 *         handle.
 */
mallard_state mallard_interrupt(mallard_connection *connection);

/*===========================================================================
 * Result access
 *===========================================================================*/

/**
 * Destroys a result (or fetched stream chunk) and sets `*result` to
 * NULL, invalidating every string pointer previously returned from it.
 * Safe on NULL.
 */
void mallard_destroy_result(mallard_result **result);

/**
 * @return the error message carried by a failed result, or NULL if the
 *         result is OK. Owned by the result handle.
 */
const char *mallard_result_error(mallard_result *result);

/**
 * Machine-readable class of a result's error, for callers that must
 * distinguish "retry later" (IO) from "restore or salvage" (CORRUPTION)
 * from "replace the RAM" (HARDWARE) without parsing message text.
 * Values are frozen for ABI stability; new classes may only be appended.
 */
typedef enum mallard_error_code {
  MALLARD_ERROR_NONE = 0,        /* result carries rows, not an error */
  MALLARD_ERROR_GENERIC = 1,     /* any error class not listed below */
  MALLARD_ERROR_IO = 2,          /* I/O failure after bounded retries */
  MALLARD_ERROR_CORRUPTION = 3,  /* checksum or invariant violation */
  MALLARD_ERROR_INTERRUPTED = 4, /* interrupt or statement timeout */
  MALLARD_ERROR_HARDWARE = 5     /* failed memory/hardware self-test */
} mallard_error_code;

/**
 * @return the machine-readable class of a failed result's error, or
 *         MALLARD_ERROR_NONE when the result is OK (or NULL).
 */
mallard_error_code mallard_result_error_code(mallard_result *result);

/** @return number of rows; 0 for errored/NULL results. */
uint64_t mallard_row_count(mallard_result *result);

/** @return number of columns; 0 for errored/NULL results. */
uint64_t mallard_column_count(mallard_result *result);

/**
 * @return name of column `column` (0-based), or NULL when out of
 *         range. Owned by the result handle.
 */
const char *mallard_column_name(mallard_result *result, uint64_t column);

/**
 * @return type tag of column `column` (0-based), or
 *         ::MALLARD_TYPE_INVALID when out of range.
 */
mallard_type mallard_column_type(mallard_result *result, uint64_t column);

/**
 * @return true when the value at (`column`, `row`) is SQL NULL.
 *         Out-of-range coordinates also report true (there is no value
 *         there).
 */
bool mallard_value_is_null(mallard_result *result, uint64_t column,
                           uint64_t row);

/**
 * Scalar value accessors. Coordinates are 0-based. The value is cast
 * to the requested C type when the column type differs (e.g. reading
 * an INTEGER column through mallard_value_double()); NULLs,
 * out-of-range coordinates and impossible casts yield 0 / false / 0.0.
 */
bool mallard_value_boolean(mallard_result *result, uint64_t column,
                           uint64_t row);
int32_t mallard_value_int32(mallard_result *result, uint64_t column,
                            uint64_t row);
int64_t mallard_value_int64(mallard_result *result, uint64_t column,
                            uint64_t row);
double mallard_value_double(mallard_result *result, uint64_t column,
                            uint64_t row);

/**
 * String accessor: the value rendered as a NUL-terminated string
 * (non-VARCHAR values are formatted, e.g. dates as "YYYY-MM-DD").
 *
 * The first read of any row renders that row's whole column slice of
 * the result chunk holding it; later reads of the slice only look it
 * up. The pointer lifetime is unchanged: a returned pointer keeps its
 * address and bytes, whatever else is read, until the result is
 * destroyed.
 *
 * @return the string, or NULL for SQL NULL / out-of-range coordinates.
 *         Owned by the result handle; valid until
 *         mallard_destroy_result().
 */
const char *mallard_value_varchar(mallard_result *result, uint64_t column,
                                  uint64_t row);

/*===========================================================================
 * Prepared statements
 *===========================================================================*/

/**
 * Parses and plans a single statement with `?` / `$N` parameter
 * placeholders. Repeated bind + execute cycles skip the SQL front-end
 * entirely — this is the API for high-frequency embedded loops
 * (dashboards, sensor ingest).
 *
 * A statement handle is produced in `*out_statement` even on failure so
 * the message can be read with mallard_prepare_error(); destroy it with
 * mallard_destroy_prepare() either way. A failed statement rejects all
 * binds and executes.
 *
 * @return ::MALLARD_SUCCESS or ::MALLARD_ERROR.
 */
mallard_state mallard_prepare(mallard_connection *connection, const char *sql,
                              mallard_prepared_statement **out_statement);

/**
 * Destroys a prepared statement and sets `*statement` to NULL. Safe on
 * NULL. Results already materialized from the statement stay valid;
 * open streams on the statement keep it internally alive until they
 * are destroyed.
 */
void mallard_destroy_prepare(mallard_prepared_statement **statement);

/**
 * @return the statement's latest error — the prepare failure, or the
 *         most recent failed bind/execute — or NULL if the last
 *         operation succeeded. Owned by the statement handle.
 */
const char *mallard_prepare_error(mallard_prepared_statement *statement);

/** @return number of parameter slots; 0 for failed/NULL statements. */
uint64_t mallard_nparams(mallard_prepared_statement *statement);

/**
 * @return the type inferred for parameter `index` (1-based) at plan
 *         time; ::MALLARD_TYPE_INVALID when the context did not
 *         constrain it or `index` is out of range.
 */
mallard_type mallard_param_type(mallard_prepared_statement *statement,
                                uint64_t index);

/**
 * Parameter binding. `index` is 1-based ($1 is the first parameter;
 * `?` placeholders number left to right). Values are cast to the
 * inferred parameter type eagerly, so mismatches surface at bind time
 * — on failure the message is available via mallard_prepare_error().
 * Bound values persist across executes until rebound.
 *
 * For mallard_bind_varchar() the string is copied; the caller keeps
 * ownership of `value`.
 *
 * @return ::MALLARD_SUCCESS or ::MALLARD_ERROR.
 */
mallard_state mallard_bind_null(mallard_prepared_statement *statement,
                                uint64_t index);
mallard_state mallard_bind_boolean(mallard_prepared_statement *statement,
                                   uint64_t index, bool value);
mallard_state mallard_bind_int32(mallard_prepared_statement *statement,
                                 uint64_t index, int32_t value);
mallard_state mallard_bind_int64(mallard_prepared_statement *statement,
                                 uint64_t index, int64_t value);
mallard_state mallard_bind_double(mallard_prepared_statement *statement,
                                  uint64_t index, double value);
mallard_state mallard_bind_varchar(mallard_prepared_statement *statement,
                                   uint64_t index, const char *value);

/**
 * Executes with the current bindings, materializing the full result.
 * Unbound parameters are an error. Re-executable: no re-parse or
 * re-plan between calls.
 *
 * Like mallard_query(), `*out_result` is produced even on failure and
 * must be destroyed either way.
 *
 * @return ::MALLARD_SUCCESS or ::MALLARD_ERROR.
 */
mallard_state mallard_execute_prepared(mallard_prepared_statement *statement,
                                       mallard_result **out_result);

/*===========================================================================
 * Streaming execution
 *===========================================================================*/

/**
 * Executes a prepared SELECT with the current bindings, streaming
 * chunks as the engine produces them — the host application becomes
 * the root operator of the plan instead of waiting for a full
 * materialization.
 *
 * While the stream is open the statement cannot be re-executed (the
 * attempt errors); destroy the stream first.
 *
 * @param out_stream  receives the stream handle on success; set to
 *                    NULL on failure (read the message with
 *                    mallard_prepare_error()).
 * @return ::MALLARD_SUCCESS or ::MALLARD_ERROR.
 */
mallard_state mallard_execute_prepared_streaming(
    mallard_prepared_statement *statement, mallard_stream **out_stream);

/**
 * Pulls the next chunk of rows from a stream.
 *
 * On success `*out_chunk` is either a result handle holding one chunk
 * of rows (read it with the regular result accessors, then
 * mallard_destroy_result() it) or NULL when the stream is exhausted.
 * On failure `*out_chunk` is NULL and the message is available via
 * mallard_stream_error().
 *
 * @return ::MALLARD_SUCCESS or ::MALLARD_ERROR.
 */
mallard_state mallard_stream_fetch_chunk(mallard_stream *stream,
                                         mallard_result **out_chunk);

/**
 * @return the stream's error message, or NULL if no operation on it
 *         has failed. Owned by the stream handle.
 */
const char *mallard_stream_error(mallard_stream *stream);

/**
 * Closes the stream (finishing its transaction) and sets `*stream` to
 * NULL. Safe on NULL.
 */
void mallard_destroy_stream(mallard_stream **stream);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* MALLARD_C_API_MALLARD_H_ */
