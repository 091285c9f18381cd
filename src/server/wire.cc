#include "server/wire.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/checksum.h"

namespace lstore {
namespace wire {

namespace {

/// recv() exactly n bytes. Returns 1 on success, 0 on clean EOF
/// before the first byte, -1 on error or EOF mid-read.
int RecvAll(int fd, char* buf, size_t n) {
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::recv(fd, buf + got, n - got, 0);
    if (r == 0) return got == 0 ? 0 : -1;
    if (r < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    got += static_cast<size_t>(r);
  }
  return 1;
}

}  // namespace

void PutRequestHeader(std::string* out, const RequestHeader& h) {
  PutU32(out, h.id);
  // A stamped request flags the op byte and appends the id — sent
  // regardless of this binary's tracing build: stamping expresses the
  // CLIENT's intent; whether spans get recorded is the server's build.
  if (h.trace_id != 0) {
    PutU8(out, static_cast<uint8_t>(h.op) | kTracedOpFlag);
    PutU64(out, h.trace_id);
  } else {
    PutU8(out, static_cast<uint8_t>(h.op));
  }
}

bool ParseRequestHeader(std::string* payload, RequestHeader* h) {
  *h = RequestHeader{};
  Reader in(*payload);
  uint8_t op = 0;
  // The trace-id field is parsed UNCONDITIONALLY — wire compatibility
  // cannot depend on the tracing build; an untraced build still has to
  // skip the 8 bytes a stamping client sent.
  if (!in.U32(&h->id) || !in.U8(&op) ||
      ((op & kTracedOpFlag) != 0 && !in.U64(&h->trace_id))) {
    return false;
  }
  h->op = static_cast<Op>(op & ~kTracedOpFlag);
  payload->erase(0, payload->size() - in.remaining());
  return true;
}

bool ParseResponseHeader(std::string* payload, ResponseHeader* h) {
  Reader in(*payload);
  if (!Decode(&in, h)) return false;
  payload->erase(0, payload->size() - in.remaining());
  return true;
}

std::string SealFrame(std::string frame) {
  const size_t len = frame.size() - 4;
  for (int i = 0; i < 4; ++i) {
    frame[i] = static_cast<char>((len >> (8 * i)) & 0xff);
  }
  PutU32(&frame, Crc32c(frame.data() + 4, len));
  return frame;
}

Status SendFrame(int fd, std::string_view frame) {
  size_t sent = 0;
  while (sent < frame.size()) {
    // MSG_NOSIGNAL: a vanished peer must surface as EPIPE, not kill
    // the process with SIGPIPE.
    ssize_t r = ::send(fd, frame.data() + sent, frame.size() - sent,
                       MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<size_t>(r);
  }
  return Status::OK();
}

Status ReadFrame(int fd, uint32_t max_frame_bytes, std::string* payload) {
  char hdr[4];
  int r = RecvAll(fd, hdr, 4);
  if (r == 0) return Status::NotFound("connection closed");
  if (r < 0) return Status::IOError("torn frame header");
  uint32_t len = 0;
  Decode(std::string_view(hdr, 4), &len);
  if (len > max_frame_bytes) {
    // The announced body is not trustworthy, so the stream position
    // after it is unknowable: callers must close the connection.
    return Status::InvalidArgument("frame exceeds size cap");
  }
  payload->resize(len);
  if (len > 0 && RecvAll(fd, payload->data(), len) <= 0) {
    return Status::IOError("torn frame payload");
  }
  char crc_buf[4];
  if (RecvAll(fd, crc_buf, 4) <= 0) {
    return Status::IOError("torn frame checksum");
  }
  uint32_t crc = 0;
  Decode(std::string_view(crc_buf, 4), &crc);
  if (crc != Crc32c(payload->data(), payload->size())) {
    return Status::Corruption("frame checksum mismatch");
  }
  return Status::OK();
}

}  // namespace wire
}  // namespace lstore
