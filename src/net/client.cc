#include "net/client.h"

namespace tlp::net {

Status QueryClient::Connect(const std::string& host, std::uint16_t port) {
  decoder_ = FrameDecoder();
  return ConnectTcp(host, port, &fd_);
}

Status QueryClient::Execute(std::string_view query, Reply* reply) {
  if (!fd_.valid()) return Status::InvalidArgument("not connected");
  if (query.size() > kMaxFrameBytes) {
    return Status::InvalidArgument("statement exceeds the frame cap");
  }
  if (Status s = WriteAll(fd_.get(), EncodeFrame(query)); !s.ok()) {
    fd_.reset();
    return s;
  }
  std::string payload;
  while (!decoder_.Next(&payload)) {
    if (decoder_.overflowed()) {
      fd_.reset();
      return Status::Corruption("oversized reply frame");
    }
    char buf[4096];
    const long n = ReadSome(fd_.get(), buf, sizeof(buf));
    if (n == 0) {
      fd_.reset();
      return Status::IoError("server closed the connection");
    }
    if (n < 0) {
      fd_.reset();
      return Status::IoError("read failed");
    }
    decoder_.Append(buf, static_cast<std::size_t>(n));
  }
  if (!ParseReply(payload, reply)) {
    fd_.reset();
    return Status::Corruption("malformed reply payload");
  }
  return Status::OK();
}

}  // namespace tlp::net
