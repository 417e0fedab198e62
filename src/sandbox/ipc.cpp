#include "sandbox/ipc.hpp"

#include <errno.h>
#include <poll.h>
#include <time.h>
#include <unistd.h>

#include <cstring>

#include "persist/codec.hpp"

namespace citroen::sandbox {

namespace {

std::uint32_t load_u32le(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= std::uint32_t{static_cast<unsigned char>(p[i])} << (8 * i);
  return v;
}

}  // namespace

double monotonic_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string encode_frame(std::string_view payload) {
  persist::Writer w;
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(persist::crc32(payload.data(), payload.size()));
  w.bytes(payload.data(), payload.size());
  return w.take();
}

DecodeStatus FrameDecoder::next(std::string* payload, std::string* error) {
  if (poisoned_) {
    if (error) *error = "decoder poisoned by earlier corruption";
    return DecodeStatus::Corrupt;
  }
  const std::size_t avail = buf_.size() - pos_;
  if (avail < kFrameHeaderBytes) return DecodeStatus::NeedMore;
  const char* head = buf_.data() + pos_;
  const std::uint32_t len = load_u32le(head);
  const std::uint32_t want_crc = load_u32le(head + 4);
  if (len > kMaxFramePayload) {
    // Spell out both numbers: a 3.2 GB "length" in the log means a
    // bit-flipped header, a length just past the cap means a legitimate
    // frame that outgrew it. Without them the two failure modes are
    // indistinguishable.
    poisoned_ = true;
    if (error)
      *error = "frame length " + std::to_string(len) + " exceeds the " +
               std::to_string(kMaxFramePayload) +
               "-byte cap (torn or bit-flipped header, or an oversized "
               "frame)";
    return DecodeStatus::Corrupt;
  }
  if (avail < kFrameHeaderBytes + len) return DecodeStatus::NeedMore;
  const char* body = head + kFrameHeaderBytes;
  const std::uint32_t got_crc =
      persist::crc32(static_cast<const void*>(body), len);
  if (got_crc != want_crc) {
    poisoned_ = true;
    if (error) *error = "frame CRC mismatch";
    return DecodeStatus::Corrupt;
  }
  payload->assign(body, len);
  pos_ += kFrameHeaderBytes + len;
  // Reclaim consumed prefix bytes once they dominate the buffer.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  return DecodeStatus::Ok;
}

const char* io_status_name(IoStatus s) {
  switch (s) {
    case IoStatus::Ok: return "ok";
    case IoStatus::Eof: return "eof";
    case IoStatus::Timeout: return "timeout";
    case IoStatus::Corrupt: return "corrupt";
    case IoStatus::Error: return "error";
  }
  return "unknown";
}

IoStatus write_frame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFramePayload) return IoStatus::Error;
  const std::string frame = encode_frame(payload);
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::write(fd, frame.data() + off, frame.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoStatus::Error;  // EPIPE when the peer died (SIGPIPE ignored)
    }
    off += static_cast<std::size_t>(n);
  }
  return IoStatus::Ok;
}

bool FrameReader::pending() {
  // A frame (or a poisoning corruption) already buffered means read()
  // returns without touching the fd. Decoding is cheap and idempotent on
  // NeedMore, but Ok consumes — so peek by decoding into a stash.
  // FrameDecoder::next never returns Ok twice for the same bytes, so the
  // stash lives here.
  if (stashed_ || stashed_corrupt_) return true;
  std::string p;
  std::string err;
  switch (decoder_.next(&p, &err)) {
    case DecodeStatus::Ok:
      stash_ = std::move(p);
      stashed_ = true;
      return true;
    case DecodeStatus::Corrupt:
      stashed_corrupt_ = true;
      stash_error_ = err;
      return true;
    case DecodeStatus::NeedMore:
      return false;
  }
  return false;
}

IoStatus FrameReader::read(std::string* payload, double timeout_seconds,
                           std::string* error) {
  const double deadline =
      timeout_seconds < 0 ? -1.0 : monotonic_seconds() + timeout_seconds;
  bool attempted_read = false;
  for (;;) {
    if (stashed_) {
      stashed_ = false;
      *payload = std::move(stash_);
      stash_.clear();
      return IoStatus::Ok;
    }
    if (stashed_corrupt_) {
      if (error) *error = stash_error_;
      return IoStatus::Corrupt;
    }
    {
      std::string err;
      switch (decoder_.next(payload, &err)) {
        case DecodeStatus::Ok:
          return IoStatus::Ok;
        case DecodeStatus::Corrupt:
          stashed_corrupt_ = true;
          stash_error_ = err;
          if (error) *error = err;
          return IoStatus::Corrupt;
        case DecodeStatus::NeedMore:
          break;
      }
    }
    // A zero/expired timeout still performs one non-blocking poll+read
    // pass, so read(.., 0.0) drains whatever the fd already holds (the
    // supervisor's post-poll service path depends on this).
    int wait_ms = -1;
    if (deadline >= 0) {
      const double left = deadline - monotonic_seconds();
      if (left <= 0) {
        if (attempted_read) return IoStatus::Timeout;
        wait_ms = 0;
      } else {
        wait_ms = static_cast<int>(left * 1000.0) + 1;
      }
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, wait_ms);
    if (pr < 0) {
      if (errno == EINTR) continue;
      if (error) *error = std::strerror(errno);
      return IoStatus::Error;
    }
    if (pr == 0) {
      if (wait_ms != 0) return IoStatus::Timeout;
      attempted_read = true;
      continue;  // re-check the deadline; returns Timeout on the next pass
    }
    char chunk[65536];
    attempted_read = true;
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (error) *error = std::strerror(errno);
      return IoStatus::Error;
    }
    if (n == 0) {
      // EOF with a partial frame buffered is a torn stream (the peer died
      // mid-write); the caller learns the why from waitpid, not from us.
      return IoStatus::Eof;
    }
    decoder_.feed(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace citroen::sandbox
