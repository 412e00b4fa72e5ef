#include "mallard/net/client_server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

#include "mallard/vector/chunk_serde.h"

namespace mallard {
namespace net {

namespace {
// Message framing: [u32 length][payload].
Status WriteFrame(int fd, const void* data, uint32_t len,
                  std::atomic<uint64_t>* bytes_counter) {
  uint32_t header = len;
  const uint8_t* parts[2] = {reinterpret_cast<const uint8_t*>(&header),
                             static_cast<const uint8_t*>(data)};
  size_t sizes[2] = {sizeof(header), len};
  for (int p = 0; p < 2; p++) {
    size_t done = 0;
    while (done < sizes[p]) {
      ssize_t n = ::send(fd, parts[p] + done, sizes[p] - done, 0);
      if (n <= 0) return Status::IOError("socket send failed");
      done += static_cast<size_t>(n);
    }
  }
  if (bytes_counter) bytes_counter->fetch_add(sizeof(header) + len);
  return Status::OK();
}

Status ReadExact(int fd, void* data, size_t len) {
  uint8_t* dst = static_cast<uint8_t*>(data);
  size_t done = 0;
  while (done < len) {
    ssize_t n = ::recv(fd, dst + done, len - done, 0);
    if (n <= 0) return Status::IOError("socket recv failed");
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> ReadFrame(int fd) {
  uint32_t len;
  MALLARD_RETURN_NOT_OK(ReadExact(fd, &len, sizeof(len)));
  std::vector<uint8_t> payload(len);
  if (len > 0) {
    MALLARD_RETURN_NOT_OK(ReadExact(fd, payload.data(), len));
  }
  return payload;
}
}  // namespace

Result<std::unique_ptr<QueryServer>> QueryServer::Start(Database* db,
                                                        Protocol protocol) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return Status::IOError("socketpair failed");
  }
  auto server = std::unique_ptr<QueryServer>(
      new QueryServer(db, protocol, fds[0], fds[1]));
  QueryServer* raw = server.get();
  server->thread_ = std::thread([raw] { raw->Run(); });
  return server;
}

QueryServer::~QueryServer() {
  // Orderly shutdown: wake the serving thread out of recv, then join. An
  // in-flight statement runs to completion — its sends fail once the
  // socket is down, which ends the loop cleanly.
  ::shutdown(server_fd_, SHUT_RDWR);
  ::shutdown(client_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  ::close(server_fd_);
  ::close(client_fd_);
}

void QueryServer::Run() {
  // One persistent Connection: session state (priority, thread pins,
  // open transactions) spans queries, and repeated query shapes hit the
  // Database's shared plan cache.
  Connection con(db_);
  while (true) {
    auto frame = ReadFrame(server_fd_);
    if (!frame.ok()) return;  // client closed
    std::string sql(frame->begin(), frame->end());
    if (sql.empty()) return;  // orderly client shutdown
    Status status = ServeOne(&con, sql);
    if (!status.ok()) return;
  }
}

Status QueryServer::SendAll(const void* data, size_t len) {
  return WriteFrame(server_fd_, data, static_cast<uint32_t>(len),
                    &bytes_sent_);
}

Status QueryServer::ServeOne(Connection* con, const std::string& sql) {
  auto result = con->Query(sql);
  // Status frame: [u8 ok][message].
  BinaryWriter status_frame;
  status_frame.WriteU8(result.ok() ? 1 : 0);
  status_frame.WriteString(result.ok() ? "" : result.status().ToString());
  MALLARD_RETURN_NOT_OK(
      SendAll(status_frame.data().data(), status_frame.size()));
  if (!result.ok()) return Status::OK();

  // Schema frame.
  BinaryWriter schema;
  schema.WriteU32(static_cast<uint32_t>((*result)->ColumnCount()));
  for (idx_t c = 0; c < (*result)->ColumnCount(); c++) {
    schema.WriteString((*result)->names()[c]);
    schema.WriteU8(static_cast<uint8_t>((*result)->types()[c]));
  }
  MALLARD_RETURN_NOT_OK(SendAll(schema.data().data(), schema.size()));

  // Data frames, ended by an empty frame.
  while (true) {
    MALLARD_ASSIGN_OR_RETURN(auto chunk, (*result)->Fetch());
    if (!chunk) break;
    BinaryWriter frame;
    if (protocol_ == Protocol::kBinaryColumnar) {
      SerializeChunk(*chunk, &frame);
    } else {
      // Text protocol: every value rendered as text, row by row — the
      // serialization cost the paper's section 5 measures.
      frame.WriteU32(static_cast<uint32_t>(chunk->size()));
      for (idx_t r = 0; r < chunk->size(); r++) {
        for (idx_t c = 0; c < chunk->ColumnCount(); c++) {
          Value v = chunk->GetValue(c, r);
          frame.WriteU8(v.is_null() ? 0 : 1);
          if (!v.is_null()) frame.WriteString(v.ToString());
        }
      }
    }
    MALLARD_RETURN_NOT_OK(SendAll(frame.data().data(), frame.size()));
  }
  return SendAll(nullptr, 0);
}

Status QueryClient::SendAll(const void* data, size_t len) {
  return WriteFrame(fd_, data, static_cast<uint32_t>(len), nullptr);
}

Status QueryClient::RecvAll(void* data, size_t len) {
  return ReadExact(fd_, data, len);
}

Result<std::unique_ptr<MaterializedQueryResult>> QueryClient::Query(
    const std::string& sql) {
  MALLARD_RETURN_NOT_OK(SendAll(sql.data(), sql.size()));
  MALLARD_ASSIGN_OR_RETURN(auto status_frame, ReadFrame(fd_));
  BinaryReader status_reader(status_frame.data(), status_frame.size());
  uint8_t ok;
  std::string message;
  MALLARD_RETURN_NOT_OK(status_reader.ReadU8(&ok));
  MALLARD_RETURN_NOT_OK(status_reader.ReadString(&message));
  if (!ok) return Status::Internal("server error: " + message);

  MALLARD_ASSIGN_OR_RETURN(auto schema_frame, ReadFrame(fd_));
  BinaryReader schema(schema_frame.data(), schema_frame.size());
  uint32_t n_cols;
  MALLARD_RETURN_NOT_OK(schema.ReadU32(&n_cols));
  std::vector<std::string> names(n_cols);
  std::vector<TypeId> types(n_cols);
  for (uint32_t c = 0; c < n_cols; c++) {
    MALLARD_RETURN_NOT_OK(schema.ReadString(&names[c]));
    uint8_t t;
    MALLARD_RETURN_NOT_OK(schema.ReadU8(&t));
    types[c] = static_cast<TypeId>(t);
  }

  std::vector<std::unique_ptr<DataChunk>> chunks;
  while (true) {
    MALLARD_ASSIGN_OR_RETURN(auto frame, ReadFrame(fd_));
    if (frame.empty()) break;
    auto chunk = std::make_unique<DataChunk>();
    if (protocol_ == Protocol::kBinaryColumnar) {
      BinaryReader reader(frame.data(), frame.size());
      MALLARD_RETURN_NOT_OK(DeserializeChunk(&reader, chunk.get()));
    } else {
      BinaryReader reader(frame.data(), frame.size());
      uint32_t rows;
      MALLARD_RETURN_NOT_OK(reader.ReadU32(&rows));
      chunk->Initialize(types);
      for (uint32_t r = 0; r < rows; r++) {
        for (uint32_t c = 0; c < n_cols; c++) {
          uint8_t valid;
          MALLARD_RETURN_NOT_OK(reader.ReadU8(&valid));
          if (!valid) {
            chunk->column(c).validity().SetInvalid(r);
            continue;
          }
          std::string text;
          MALLARD_RETURN_NOT_OK(reader.ReadString(&text));
          MALLARD_ASSIGN_OR_RETURN(Value v,
                                   Value::Varchar(text).CastTo(types[c]));
          chunk->SetValue(c, r, v);
        }
      }
      chunk->SetCardinality(rows);
    }
    chunks.push_back(std::move(chunk));
  }
  return std::make_unique<MaterializedQueryResult>(
      std::move(names), std::move(types), std::move(chunks));
}

}  // namespace net
}  // namespace mallard
