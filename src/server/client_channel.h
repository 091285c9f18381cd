// Pipelined client core for the L-Store network service: the
// Submit/Await half of the client split.
//
// The wire protocol has always carried a client-chosen request id,
// echoed verbatim in the response, precisely so a client can keep
// several requests in flight on one connection and match responses
// arriving out of request order (the server executes a session's
// requests in order, but admission-control Busy rejections are
// written by the reader thread and overtake in-flight work). The
// original Client never used that: it was strictly blocking, one
// request at a time, so a benchmark driver could never keep a
// connection's pipeline full.
//
// ClientChannel is the pipelined core:
//
//   RequestId id;
//   channel.Submit(wire::Op::kRead, request, &id);  // send, don't wait
//   ... submit more, up to max_in_flight() ...
//   Status s = channel.Await(id, &resp_body);       // match by id
//
// Submit encodes the request (a wire.h layout) straight into its frame,
// writes it, and records the id as in flight;
// it never reads the socket. Await reads response frames until the
// requested id's response arrives, parking responses for *other*
// in-flight ids in a ready buffer — so requests can be awaited in
// any order, not just submission order. When the pipeline is full
// (in_flight() == max_in_flight()), Submit returns Busy: the caller
// awaits something before submitting more.
//
// Failure model: the channel is fail-stop. A socket error, a torn or
// checksum-failed frame, or a response id that was never submitted
// breaks the channel — the socket closes, the breaking status is
// remembered, and every outstanding (and future) Submit/Await returns
// it. There is no resynchronization: a blocking facade can simply
// reconnect, and a pipelined caller must treat its outstanding
// requests as lost (their commit state on the server is unknown,
// exactly as with any network cut).
//
// Not thread-safe, by design: one ClientChannel per thread, like the
// blocking Client (a session's pipeline is single-consumer state; the
// server already serializes a session's execution).

#ifndef LSTORE_SERVER_CLIENT_CHANNEL_H_
#define LSTORE_SERVER_CLIENT_CHANNEL_H_

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/status.h"
#include "server/wire.h"

namespace lstore {

/// Handle to one in-flight request (the echoed wire request id).
using RequestId = uint32_t;

class ClientChannel {
 public:
  /// Default cap on submitted-but-unawaited requests. Matches the
  /// server's default ServerConfig::max_inflight_per_session, so an
  /// unconfigured pipeline saturates the session's admission budget
  /// without tripping it.
  static constexpr uint32_t kDefaultMaxInFlight = 16;

  ClientChannel() = default;
  ~ClientChannel() { Close(); }

  ClientChannel(const ClientChannel&) = delete;
  ClientChannel& operator=(const ClientChannel&) = delete;

  Status Connect(const std::string& host, uint16_t port);
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// Send [id][op][req] without waiting for the response; `req` is
  /// the op's request layout (wire::RequestOf<op>). Returns the id to
  /// Await on via *id. Fails with Busy when in_flight() is already at
  /// max_in_flight() (await something first), and with the channel's
  /// breaking status once it is broken.
  template <typename Req>
  Status Submit(wire::Op op, const Req& req, RequestId* id) {
    LSTORE_RETURN_IF_ERROR(CanSubmit());
    const RequestId rid = next_request_id_++;
    // The trace stamp is one-shot: this request consumes it.
    wire::RequestHeader h{rid, op, std::exchange(next_trace_id_, 0)};
    return Sent(wire::SendFrame(fd_, wire::RequestFrame(h, req)), rid, id);
  }

  /// Block until `id`'s response arrives (or is already parked in the
  /// ready buffer), then return the operation's status; an OK body is
  /// left in *resp_body (may be nullptr). Responses read while
  /// waiting are parked for their own Await — ids may be awaited in
  /// any order. InvalidArgument for an id that is neither in flight
  /// nor ready (never submitted, or already awaited).
  Status Await(RequestId id, std::string* resp_body);

  /// Submitted-but-unawaited requests (includes responses already
  /// parked in the ready buffer but not yet claimed).
  size_t in_flight() const { return inflight_.size() + ready_.size(); }

  /// Oldest submitted id whose response has not been awaited yet —
  /// what a closed-loop pipelining driver awaits when full. False
  /// when nothing is in flight.
  bool OldestInFlight(RequestId* id) const;

  uint32_t max_in_flight() const { return max_in_flight_; }
  /// Adjust the pipeline cap (>= 1). Takes effect on the next Submit;
  /// already-submitted requests are unaffected.
  void set_max_in_flight(uint32_t n) { max_in_flight_ = n == 0 ? 1 : n; }

  void set_max_frame_bytes(uint32_t n) { max_frame_bytes_ = n; }

  /// Stamp the NEXT Submit with this trace id (one-shot; cleared by
  /// that Submit): the request travels with `op | kTracedOpFlag` plus
  /// the 64-bit id, and a tracing server records its span timeline
  /// under the id. 0 clears a pending stamp.
  void set_next_trace_id(uint64_t trace_id) { next_trace_id_ = trace_id; }

 private:
  struct Ready {
    Status status;
    std::string body;
  };

  /// OK when a request may be submitted now (connected, not broken,
  /// pipeline not full).
  Status CanSubmit() const;
  /// Record request `rid` as in flight once its frame was written (`s`
  /// OK), or break the channel with the write's failure.
  Status Sent(const Status& s, RequestId rid, RequestId* id);

  /// Read one response frame and park it in ready_. Breaks the
  /// channel on any framing/matching failure.
  Status ReadOne();

  /// Close the socket, remember `s` as the breaking status, and fail
  /// every outstanding request with it.
  Status Break(const Status& s);

  int fd_ = -1;
  uint32_t next_request_id_ = 1;
  uint64_t next_trace_id_ = 0;  ///< one-shot stamp for the next Submit
  uint32_t max_frame_bytes_ = wire::kDefaultMaxFrameBytes;
  uint32_t max_in_flight_ = kDefaultMaxInFlight;

  /// Ids submitted, response not yet received; order_ is submit order.
  std::unordered_set<RequestId> inflight_;
  std::deque<RequestId> order_;
  /// Responses received but not yet Await()ed, keyed by id.
  std::unordered_map<RequestId, Ready> ready_;
  /// Breaking status once the channel failed (OK while healthy).
  Status broken_;
};

}  // namespace lstore

#endif  // LSTORE_SERVER_CLIENT_CHANNEL_H_
