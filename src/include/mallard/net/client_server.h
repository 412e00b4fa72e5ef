#ifndef MALLARD_NET_CLIENT_SERVER_H_
#define MALLARD_NET_CLIENT_SERVER_H_

#include <atomic>
#include <memory>
#include <string>
#include <thread>

#include "mallard/main/connection.h"
#include "mallard/main/database.h"

namespace mallard {
namespace net {

/// Result-set wire protocols, modelling the client-server transfer the
/// paper identifies as the traditional bottleneck (section 5):
/// kText serializes every value to text row-by-row (the classic
/// PostgreSQL-style protocol); kBinaryColumnar ships whole chunks in the
/// engine's serialized columnar layout (the best case a socket-based
/// system can do). Both still pay serialization + socket copies that the
/// in-process chunk hand-over avoids entirely.
enum class Protocol : uint8_t { kText = 0, kBinaryColumnar = 1 };

/// A query server for one client at the end of a socket pair, served by
/// one thread holding a persistent Connection (so session state —
/// priority, thread pins, transactions — and the shared plan cache
/// behave exactly as for an embedded connection). Its statements are
/// admitted, ticketed and scheduled like any other connection's.
class QueryServer {
 public:
  /// Spawns the server and its serving thread; `client_fd()` is the
  /// application's end of the socket pair.
  static Result<std::unique_ptr<QueryServer>> Start(Database* db,
                                                    Protocol protocol);
  /// Orderly shutdown: closes the sockets and joins the serving thread
  /// (an in-flight statement finishes first).
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// The client's socket end.
  int client_fd() const { return client_fd_; }

  /// Bytes written to the socket since start (transfer volume metric).
  uint64_t bytes_sent() const { return bytes_sent_.load(); }

 private:
  QueryServer(Database* db, Protocol protocol, int server_fd, int client_fd)
      : db_(db),
        protocol_(protocol),
        server_fd_(server_fd),
        client_fd_(client_fd) {}
  void Run();
  Status ServeOne(Connection* con, const std::string& sql);
  Status SendAll(const void* data, size_t len);

  Database* db_;
  Protocol protocol_;
  int server_fd_;
  int client_fd_;
  // Written by the serving thread, read by the benchmarking thread.
  std::atomic<uint64_t> bytes_sent_{0};
  // Last: the serving thread uses every member above.
  std::thread thread_;
};

/// Client side: sends SQL, deserializes the response into a materialized
/// result. One instance per socket; use from one thread at a time.
class QueryClient {
 public:
  QueryClient(int fd, Protocol protocol) : fd_(fd), protocol_(protocol) {}

  Result<std::unique_ptr<MaterializedQueryResult>> Query(
      const std::string& sql);

 private:
  Status RecvAll(void* data, size_t len);
  Status SendAll(const void* data, size_t len);

  int fd_;
  Protocol protocol_;
};

}  // namespace net
}  // namespace mallard

#endif  // MALLARD_NET_CLIENT_SERVER_H_
