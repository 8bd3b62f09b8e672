#include "service/frame_reader.hpp"

namespace spta::service {

FrameReassembler::Result FrameReassembler::Poison(std::string* error,
                                                  std::string message) {
  poisoned_ = true;
  poison_error_ = std::move(message);
  *error = poison_error_;
  return Result::kMalformed;
}

void FrameReassembler::Compact() {
  if (consumed_ >= 4096 && consumed_ * 2 >= buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
}

FrameReassembler::Result FrameReassembler::Next(std::string* type,
                                                std::string* body,
                                                std::string* error) {
  if (poisoned_) {
    *error = poison_error_;
    return Result::kMalformed;
  }
  Compact();
  const std::string_view bank =
      std::string_view(buffer_).substr(consumed_);
  const std::size_t nl = bank.find('\n');
  if (nl == std::string_view::npos) {
    if (bank.size() > limits_.max_header_bytes) {
      return Poison(error, "frame header exceeds " +
                               std::to_string(limits_.max_header_bytes) +
                               " bytes");
    }
    return Result::kNeedMore;
  }
  // The header reparses on every call until the body is complete; it is a
  // bounded line, so that costs nothing next to the socket reads.
  std::uint64_t nbytes = 0;
  std::string parse_error;
  obs::TraceContext trace;
  if (!ParseFrameHeaderLine(bank.substr(0, nl), type, &nbytes,
                            &parse_error, &trace)) {
    return Poison(error, std::move(parse_error));
  }
  const std::string_view rest = bank.substr(nl + 1);
  if (rest.size() < nbytes) return Result::kNeedMore;
  body->assign(rest.substr(0, static_cast<std::size_t>(nbytes)));
  consumed_ += nl + 1 + static_cast<std::size_t>(nbytes);
  last_trace_ = trace;
  return Result::kFrame;
}

FrameReassembler::Result FrameReassembler::Finish(std::string* type,
                                                  std::string* body,
                                                  std::string* error) {
  const Result next = Next(type, body, error);
  if (next != Result::kNeedMore) return next;
  const std::string_view bank =
      std::string_view(buffer_).substr(consumed_);
  if (bank.empty()) return Result::kNeedMore;  // clean EOF between frames
  const std::size_t nl = bank.find('\n');
  std::uint64_t nbytes = 0;
  std::string parse_error;
  if (nl == std::string_view::npos) {
    // EOF terminates the header line, as it does for getline; a
    // declared-empty body then completes a whole frame.
    obs::TraceContext trace;
    if (!ParseFrameHeaderLine(bank, type, &nbytes, &parse_error, &trace)) {
      return Poison(error, std::move(parse_error));
    }
    if (nbytes == 0) {
      body->clear();
      consumed_ = buffer_.size();
      last_trace_ = trace;
      return Result::kFrame;
    }
    return Poison(error, "truncated frame body (wanted " +
                             std::to_string(nbytes) + " bytes, got 0)");
  }
  if (!ParseFrameHeaderLine(bank.substr(0, nl), type, &nbytes,
                            &parse_error)) {
    return Poison(error, std::move(parse_error));
  }
  const std::size_t got = bank.size() - (nl + 1);
  return Poison(error, "truncated frame body (wanted " +
                           std::to_string(nbytes) + " bytes, got " +
                           std::to_string(got) + ")");
}

}  // namespace spta::service
