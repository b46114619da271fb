#include "net/wire.h"

#include <charconv>
#include <cstring>
#include <stdexcept>

namespace tlp::net {

namespace {

constexpr std::size_t kHeaderBytes = 4;

std::uint32_t DecodeLen(const char* p) {
  const auto b = [&](std::size_t i) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]));
  };
  return b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24);
}

/// Splits `text` at '\n' into lines (no trailing empty line for a
/// newline-terminated payload; encoders here never emit trailing newlines).
std::vector<std::string_view> SplitLines(std::string_view text) {
  std::vector<std::string_view> lines;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

/// Pops the first space-delimited word off `*line`.
std::string_view TakeWord(std::string_view* line) {
  const std::size_t space = line->find(' ');
  std::string_view word;
  if (space == std::string_view::npos) {
    word = *line;
    *line = {};
  } else {
    word = line->substr(0, space);
    line->remove_prefix(space + 1);
  }
  return word;
}

bool ParseU64(std::string_view word, std::uint64_t* out) {
  if (word.empty()) return false;
  const auto res =
      std::from_chars(word.data(), word.data() + word.size(), *out);
  return res.ec == std::errc{} && res.ptr == word.data() + word.size();
}

}  // namespace

std::string EncodeFrame(std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) {
    throw std::length_error("frame payload of " +
                            std::to_string(payload.size()) +
                            " bytes exceeds kMaxFrameBytes");
  }
  std::string frame;
  frame.reserve(kHeaderBytes + payload.size());
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  frame.push_back(static_cast<char>(len & 0xff));
  frame.push_back(static_cast<char>((len >> 8) & 0xff));
  frame.push_back(static_cast<char>((len >> 16) & 0xff));
  frame.push_back(static_cast<char>((len >> 24) & 0xff));
  frame.append(payload);
  return frame;
}

void FrameDecoder::Append(const char* data, std::size_t size) {
  if (overflowed_) return;
  buffer_.append(data, size);
}

bool FrameDecoder::Next(std::string* payload) {
  if (overflowed_) return false;
  const std::size_t avail = buffer_.size() - consumed_;
  if (avail < kHeaderBytes) return false;
  const std::uint32_t len = DecodeLen(buffer_.data() + consumed_);
  if (len > kMaxFrameBytes) {
    overflowed_ = true;
    return false;
  }
  if (avail < kHeaderBytes + len) return false;
  payload->assign(buffer_, consumed_ + kHeaderBytes, len);
  consumed_ += kHeaderBytes + len;
  // Compact once the dead prefix dominates, so a long-lived connection
  // does not grow its buffer forever.
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  return true;
}

std::string EncodeOkReply(const std::vector<std::string>& rows,
                          std::string_view stats_json) {
  std::string payload = "OK ";
  payload += std::to_string(rows.size());
  for (const std::string& row : rows) {
    payload.push_back('\n');
    payload += row;
  }
  if (!stats_json.empty()) {
    payload += "\nSTATS ";
    payload += stats_json;
  }
  return payload;
}

std::string EncodeErrReply(std::string_view error_class,
                           std::uint64_t offset, std::string_view message) {
  std::string payload = "ERR ";
  payload += error_class;
  payload.push_back(' ');
  payload += std::to_string(offset);
  payload.push_back(' ');
  payload += message;
  return payload;
}

std::string EncodeBusyReply() { return "BUSY"; }

bool ParseReply(std::string_view payload, Reply* out) {
  const auto lines = SplitLines(payload);
  if (lines.empty()) return false;
  std::string_view leader = lines[0];
  const std::string_view tag = TakeWord(&leader);

  if (tag == "BUSY") {
    if (!leader.empty() || lines.size() != 1) return false;
    out->kind = Reply::Kind::kBusy;
    return true;
  }

  if (tag == "ERR") {
    if (lines.size() != 1) return false;
    out->kind = Reply::Kind::kErr;
    out->error_class = std::string(TakeWord(&leader));
    if (out->error_class.empty()) return false;
    if (!ParseU64(TakeWord(&leader), &out->error_offset)) return false;
    out->error_message = std::string(leader);
    return true;
  }

  if (tag == "OK") {
    out->kind = Reply::Kind::kOk;
    if (!ParseU64(leader, &out->count)) return false;
    if (lines.size() < 1 + out->count) return false;
    out->rows.clear();
    out->rows.reserve(out->count);
    for (std::uint64_t i = 0; i < out->count; ++i) {
      out->rows.emplace_back(lines[1 + static_cast<std::size_t>(i)]);
    }
    const std::size_t used = 1 + static_cast<std::size_t>(out->count);
    if (lines.size() == used) {
      out->stats_json.clear();
      return true;
    }
    if (lines.size() != used + 1) return false;
    std::string_view stats_line = lines[used];
    if (TakeWord(&stats_line) != "STATS" || stats_line.empty()) {
      return false;
    }
    out->stats_json = std::string(stats_line);
    return true;
  }

  return false;
}

}  // namespace tlp::net
