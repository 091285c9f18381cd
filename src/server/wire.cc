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

Status SendAll(int fd, const char* buf, size_t n) {
  size_t sent = 0;
  while (sent < n) {
    // MSG_NOSIGNAL: a vanished peer must surface as EPIPE, not kill
    // the process with SIGPIPE.
    ssize_t r = ::send(fd, buf + sent, n - sent, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<size_t>(r);
  }
  return Status::OK();
}

}  // namespace

Status WriteFrame(int fd, std::string_view payload) {
  std::string frame;
  frame.reserve(payload.size() + kFrameOverhead);
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  frame.append(payload.data(), payload.size());
  PutU32(&frame, Crc32c(payload.data(), payload.size()));
  return SendAll(fd, frame.data(), frame.size());
}

Status ReadFrame(int fd, uint32_t max_frame_bytes, std::string* payload) {
  char hdr[4];
  int r = RecvAll(fd, hdr, 4);
  if (r == 0) return Status::NotFound("connection closed");
  if (r < 0) return Status::IOError("torn frame header");
  Reader len_reader(std::string_view(hdr, 4));
  uint32_t len = 0;
  len_reader.U32(&len);
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
  Reader crc_reader(std::string_view(crc_buf, 4));
  uint32_t crc = 0;
  crc_reader.U32(&crc);
  if (crc != Crc32c(payload->data(), payload->size())) {
    return Status::Corruption("frame checksum mismatch");
  }
  return Status::OK();
}

}  // namespace wire
}  // namespace lstore
