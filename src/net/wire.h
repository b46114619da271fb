#ifndef TLP_NET_WIRE_H_
#define TLP_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tlp::net {

/// The tlp_serve wire protocol (docs/SERVING.md). Both directions carry
/// length-prefixed frames:
///
///   [u32 payload length, little-endian][payload bytes]
///
/// A request payload is one query-language statement (net/query_lang.h).
/// A reply payload is '\n'-separated text whose first line classifies it:
///
///   OK <count>        then <count> result rows, one per line, then an
///                     optional final "STATS <json>" line (WITH STATS)
///   ERR <class> <offset> <message>
///                     class is "parse", "eval", or "server"; offset is a
///                     byte offset into the query text (0 when meaningless)
///   BUSY              admission control shed the query; retry later
///
/// Frames above kMaxFrameBytes are a protocol violation in either
/// direction: the server drops a connection that declares one rather than
/// buffering unboundedly, and it answers a reply that would exceed the cap
/// with an ERR instead.

inline constexpr std::size_t kMaxFrameBytes = 1u << 20;

/// Frames `payload` for the socket: 4-byte length prefix + bytes. Throws
/// std::length_error for a payload over kMaxFrameBytes — no decoder would
/// accept that frame — so senders check the cap first.
[[nodiscard]] std::string EncodeFrame(std::string_view payload);

/// Incremental frame reassembly for one connection/stream. Feed raw bytes
/// with Append; pull complete payloads with Next. Rejects oversized frames
/// via overflowed() instead of growing without bound.
class FrameDecoder {
 public:
  void Append(const char* data, std::size_t size);

  /// Extracts the next complete payload into `*payload`; false when no
  /// complete frame is buffered (or the stream overflowed).
  [[nodiscard]] bool Next(std::string* payload);

  /// True once a declared frame length exceeded kMaxFrameBytes. The
  /// stream is unrecoverable; the owner should close the connection.
  [[nodiscard]] bool overflowed() const { return overflowed_; }

  /// Bytes buffered but not yet returned (diagnostics/tests).
  [[nodiscard]] std::size_t pending_bytes() const { return buffer_.size() - consumed_; }

 private:
  std::string buffer_;
  std::size_t consumed_ = 0;
  bool overflowed_ = false;
};

/// A decoded reply payload.
struct Reply {
  enum class Kind : std::uint8_t { kOk, kErr, kBusy };

  Kind kind = Kind::kOk;
  std::uint64_t count = 0;             // kOk: declared row count
  std::vector<std::string> rows;       // kOk: result rows
  std::string stats_json;              // kOk: STATS line payload, if any
  std::string error_class;             // kErr: parse | eval | server
  std::uint64_t error_offset = 0;      // kErr
  std::string error_message;           // kErr
};

/// Builds an OK reply payload. `stats_json` empty = no STATS line.
[[nodiscard]] std::string EncodeOkReply(const std::vector<std::string>& rows,
                          std::string_view stats_json);

/// Builds an ERR reply payload.
[[nodiscard]] std::string EncodeErrReply(std::string_view error_class, std::uint64_t offset,
                           std::string_view message);

/// Builds the BUSY reply payload.
[[nodiscard]] std::string EncodeBusyReply();

/// Parses a reply payload. Returns false on a malformed payload (wrong
/// leader, bad counts, row count mismatch).
[[nodiscard]] bool ParseReply(std::string_view payload, Reply* out);

}  // namespace tlp::net

#endif  // TLP_NET_WIRE_H_
