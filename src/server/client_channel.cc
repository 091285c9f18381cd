#include "server/client_channel.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

namespace lstore {

Status ClientChannel::Connect(const std::string& host, uint16_t port) {
  if (fd_ >= 0) return Status::InvalidArgument("already connected");
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status s = Status::IOError(std::string("connect: ") + std::strerror(errno));
    ::close(fd);
    return s;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  broken_ = Status::OK();
  return Status::OK();
}

void ClientChannel::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  inflight_.clear();
  order_.clear();
  ready_.clear();
}

Status ClientChannel::Break(const Status& s) {
  // Outstanding ids stay in inflight_ so Await(id) still recognizes
  // them — each Await drains its id and reports the breaking status.
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  broken_ = s;
  return s;
}

Status ClientChannel::CanSubmit() const {
  if (!broken_.ok()) return broken_;
  if (fd_ < 0) return Status::IOError("not connected");
  if (in_flight() >= max_in_flight_) {
    return Status::Busy("client pipeline full");
  }
  return Status::OK();
}

Status ClientChannel::Sent(const Status& s, RequestId rid, RequestId* id) {
  if (!s.ok()) return Break(s);
  inflight_.insert(rid);
  order_.push_back(rid);
  if (id != nullptr) *id = rid;
  return Status::OK();
}

Status ClientChannel::ReadOne() {
  std::string payload;
  Status s = wire::ReadFrame(fd_, max_frame_bytes_, &payload);
  if (!s.ok()) {
    return Break(s.IsNotFound()
                     ? Status::IOError("server closed the connection")
                     : s);
  }
  wire::ResponseHeader h;
  if (!wire::ParseResponseHeader(&payload, &h)) {
    return Break(Status::Corruption("malformed response"));
  }
  if (inflight_.erase(h.id) == 0) {
    // A response for an id we never submitted (or already consumed):
    // the stream is out of step, which a pipelined matcher cannot
    // recover from any more than a blocking one could.
    return Break(Status::Corruption("response id mismatch"));
  }
  ready_.emplace(h.id, Ready{Status::FromCode(h.code, h.message),
                             std::move(payload)});
  return Status::OK();
}

Status ClientChannel::Await(RequestId id, std::string* resp_body) {
  while (true) {
    auto it = ready_.find(id);
    if (it != ready_.end()) {
      Ready r = std::move(it->second);
      ready_.erase(it);
      if (!order_.empty() && order_.front() == id) order_.pop_front();
      else order_.erase(std::find(order_.begin(), order_.end(), id));
      if (!r.status.ok()) return r.status;
      if (resp_body != nullptr) *resp_body = std::move(r.body);
      return Status::OK();
    }
    bool outstanding = inflight_.count(id) != 0;
    if (!broken_.ok()) {
      // The channel died with this request outstanding: report the
      // break once per id, then treat the id as consumed.
      if (!outstanding) return Status::InvalidArgument("unknown request id");
      inflight_.erase(id);
      auto pos = std::find(order_.begin(), order_.end(), id);
      if (pos != order_.end()) order_.erase(pos);
      return broken_;
    }
    if (!outstanding) return Status::InvalidArgument("unknown request id");
    // On failure ReadOne breaks the channel; the next iteration's
    // broken_ branch consumes this id and reports the break.
    (void)ReadOne();
  }
}

bool ClientChannel::OldestInFlight(RequestId* id) const {
  if (order_.empty()) return false;
  *id = order_.front();
  return true;
}

}  // namespace lstore
