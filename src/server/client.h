// Client for the L-Store network service (src/server/): a blocking
// facade over the pipelined ClientChannel core.
//
// One Client = one connection = one server-side session: BEGIN opens
// the session's transaction, COMMIT/ABORT close it, and closing the
// connection (or the Client) auto-aborts whatever is still open on
// the server. Point/batch/query calls issued outside BEGIN..COMMIT
// run as server-side auto-committed one-shots.
//
// Two call styles share the connection:
//
//  - Blocking: every named method (Read, Insert, Sum, ...) submits
//    one request and awaits its response — trivially correct for
//    tests, the CLI, and simple tools.
//  - Pipelined: SubmitX/AwaitX pairs keep up to
//    channel().max_in_flight() requests in flight on the one
//    connection, matched by the echoed request id, so a closed-loop
//    driver is not limited to one round trip per op. Await order is
//    free — responses for other ids are parked until their Await.
//
// The two styles compose: a blocking call issued while pipelined
// requests are outstanding simply awaits its own id and parks theirs.
//
// Both styles are thin calls over two typed primitives, Submit<op>
// and Await<op>, which take the op's request and response layouts
// from the op table in wire.h: the client writes no byte layout of
// its own.
//
// Not thread-safe; use one Client per thread (each gets its own
// session, which is exactly the isolation the tests want).

#ifndef LSTORE_SERVER_CLIENT_H_
#define LSTORE_SERVER_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "obs/health.h"
#include "server/client_channel.h"
#include "server/wire.h"
#include "txn/transaction.h"

namespace lstore {

class Client {
 public:
  Client() = default;
  ~Client() { Close(); }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  Status Connect(const std::string& host, uint16_t port) {
    return channel_.Connect(host, port);
  }
  void Close() { channel_.Close(); }
  bool connected() const { return channel_.connected(); }

  /// The pipelined core: submit/await generic ops, tune the in-flight
  /// cap, inspect the pipeline.
  ClientChannel& channel() { return channel_; }

  // --- session -------------------------------------------------------------

  Status Ping() { return Call<wire::Op::kPing>({}); }
  Status Begin(IsolationLevel iso = IsolationLevel::kReadCommitted) {
    return Call<wire::Op::kBegin>(iso);
  }
  Status Commit() { return Call<wire::Op::kCommit>({}); }
  Status Abort() { return Call<wire::Op::kAbort>({}); }

  // --- DDL / catalog -------------------------------------------------------

  Status CreateTable(const std::string& table,
                     const std::vector<std::string>& columns) {
    return Call<wire::Op::kCreateTable>({table, columns});
  }
  Status ListTables(std::vector<std::string>* names) {
    return Call<wire::Op::kListTables>({}, names);
  }
  Status GetSchema(const std::string& table,
                   std::vector<std::string>* columns) {
    return Call<wire::Op::kSchema>(table, columns);
  }

  // --- point and batch operations ------------------------------------------

  Status Insert(const std::string& table, const std::vector<Value>& row) {
    return Call<wire::Op::kInsert>({table, row});
  }
  Status Read(const std::string& table, Value key, ColumnMask mask,
              std::vector<Value>* row) {
    return Call<wire::Op::kRead>({table, key, mask}, row);
  }
  Status Update(const std::string& table, Value key, ColumnMask mask,
                const std::vector<Value>& row) {
    return Call<wire::Op::kUpdate>({table, key, mask, row});
  }
  Status Delete(const std::string& table, Value key) {
    return Call<wire::Op::kDelete>({table, key});
  }

  /// rows->at(i) holds keys[i]'s columns (empty when missing);
  /// statuses (optional) receives each key's individual outcome.
  Status MultiRead(const std::string& table, const std::vector<Value>& keys,
                   ColumnMask mask, std::vector<std::vector<Value>>* rows,
                   std::vector<Status>* statuses = nullptr) {
    RequestId id = 0;
    LSTORE_RETURN_IF_ERROR(SubmitMultiRead(table, keys, mask, &id));
    return AwaitMultiRead(id, keys.size(), rows, statuses);
  }
  Status InsertBatch(const std::string& table,
                     const std::vector<std::vector<Value>>& rows) {
    return Call<wire::Op::kInsertBatch>({table, rows});
  }
  Status UpdateBatch(const std::string& table, const std::vector<Value>& keys,
                     ColumnMask mask,
                     const std::vector<std::vector<Value>>& rows) {
    return Call<wire::Op::kUpdateBatch>({table, mask, keys, rows});
  }
  Status DeleteBatch(const std::string& table,
                     const std::vector<Value>& keys) {
    return Call<wire::Op::kDeleteBatch>({table, keys});
  }

  // --- pipelined point operations ------------------------------------------
  // Submit sends without waiting; the matching Await surfaces the
  // operation's status (and decodes the body where there is one).
  // Ack-only submissions (insert/update/delete) are awaited with the
  // generic Await(id).

  Status SubmitRead(const std::string& table, Value key, ColumnMask mask,
                    RequestId* id) {
    return Submit<wire::Op::kRead>({table, key, mask}, id);
  }
  Status AwaitRead(RequestId id, std::vector<Value>* row) {
    return Await<wire::Op::kRead>(id, row);
  }

  Status SubmitInsert(const std::string& table, const std::vector<Value>& row,
                      RequestId* id) {
    return Submit<wire::Op::kInsert>({table, row}, id);
  }
  Status SubmitUpdate(const std::string& table, Value key, ColumnMask mask,
                      const std::vector<Value>& row, RequestId* id) {
    return Submit<wire::Op::kUpdate>({table, key, mask, row}, id);
  }
  Status SubmitDelete(const std::string& table, Value key, RequestId* id) {
    return Submit<wire::Op::kDelete>({table, key}, id);
  }

  Status SubmitMultiRead(const std::string& table,
                         const std::vector<Value>& keys, ColumnMask mask,
                         RequestId* id) {
    return Submit<wire::Op::kMultiRead>({table, mask, keys}, id);
  }
  Status AwaitMultiRead(RequestId id, size_t num_keys,
                        std::vector<std::vector<Value>>* rows,
                        std::vector<Status>* statuses = nullptr);

  /// Await an ack-only submission (or discard a body you don't need).
  Status Await(RequestId id) { return channel_.Await(id, nullptr); }

  // --- queries -------------------------------------------------------------

  /// Wire form of the Query builder: row range, equality filters,
  /// time travel. (Predicate filters cannot cross the wire.)
  using QuerySpec = wire::QuerySpec;

  Status Sum(const std::string& table, ColumnId col, const QuerySpec& spec,
             uint64_t* sum, uint64_t* visible_rows = nullptr) {
    return RunAggregate(table, wire::QueryKind::kSum, col, spec, sum,
                        visible_rows);
  }
  Status Count(const std::string& table, const QuerySpec& spec,
               uint64_t* count) {
    return RunAggregate(table, wire::QueryKind::kCount, 0, spec, count,
                        nullptr);
  }
  Status Min(const std::string& table, ColumnId col, const QuerySpec& spec,
             Value* out, uint64_t* visible_rows = nullptr) {
    return RunAggregate(table, wire::QueryKind::kMin, col, spec, out,
                        visible_rows);
  }
  Status Max(const std::string& table, ColumnId col, const QuerySpec& spec,
             Value* out, uint64_t* visible_rows = nullptr) {
    return RunAggregate(table, wire::QueryKind::kMax, col, spec, out,
                        visible_rows);
  }
  Status Keys(const std::string& table, const QuerySpec& spec,
              std::vector<Value>* keys);

  /// Pipelined aggregate (sum/count/min/max share the wire shape).
  Status SubmitQuery(const std::string& table, wire::QueryKind kind,
                     ColumnId col, const QuerySpec& spec, RequestId* id) {
    return Submit<wire::Op::kQuery>({table, kind, col, spec}, id);
  }
  Status AwaitAggregate(RequestId id, uint64_t* value,
                        uint64_t* visible_rows = nullptr);

  // --- observability -------------------------------------------------------

  /// The server's Database::Metrics() as Prometheus exposition text.
  Status Metrics(std::string* prometheus_text) {
    return Call<wire::Op::kMetrics>({}, prometheus_text);
  }

  /// The server's flight recorder as Chrome trace-event JSON
  /// (Database::DumpTrace); empty event list when the server was
  /// built with LSTORE_TRACING=OFF.
  Status Trace(std::string* trace_json) {
    return Call<wire::Op::kTrace>({}, trace_json);
  }

  /// The server's Database::Health(): per-actor watchdog verdicts plus
  /// the most recent structured events.
  Status Health(HealthReport* report);

  /// Expose the pipelined core's one-shot trace stamp (see
  /// ClientChannel::set_next_trace_id): the next request this client
  /// sends carries the id.
  void set_next_trace_id(uint64_t trace_id) {
    channel_.set_next_trace_id(trace_id);
  }

 private:
  template <wire::Op op>
  Status Submit(const wire::RequestOf<op>& req, RequestId* id) {
    return channel_.Submit(op, req, id);
  }

  /// Await `id` and decode its OK body as op's response (into a
  /// scratch value when `resp` is nullptr).
  template <wire::Op op>
  Status Await(RequestId id, wire::ResponseOf<op>* resp) {
    std::string body;
    LSTORE_RETURN_IF_ERROR(channel_.Await(id, &body));
    wire::ResponseOf<op> scratch;
    if (!wire::Decode(body, resp != nullptr ? resp : &scratch)) {
      return Status::Corruption(std::string("malformed ") +
                                wire::OpName(op) + " response");
    }
    return Status::OK();
  }

  /// Submit then Await: the blocking calls' one primitive.
  template <wire::Op op>
  Status Call(const wire::RequestOf<op>& req,
              wire::ResponseOf<op>* resp = nullptr) {
    RequestId id = 0;
    LSTORE_RETURN_IF_ERROR(Submit<op>(req, &id));
    return Await<op>(id, resp);
  }

  Status RunAggregate(const std::string& table, wire::QueryKind kind,
                      ColumnId col, const QuerySpec& spec, uint64_t* value,
                      uint64_t* visible_rows) {
    RequestId id = 0;
    LSTORE_RETURN_IF_ERROR(SubmitQuery(table, kind, col, spec, &id));
    return AwaitAggregate(id, value, visible_rows);
  }

  ClientChannel channel_;
};

}  // namespace lstore

#endif  // LSTORE_SERVER_CLIENT_H_
