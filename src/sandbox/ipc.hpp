#pragma once
// CRC-framed length-prefixed pipe IPC between the worker pool
// (dist/pool.hpp, the supervisor) and its forked workers; peer sockets
// and the serving daemon reuse the same frames.
//
// Frame layout (all little-endian, mirroring the journal's record frame
// in persist/journal.hpp):
//
//   [u32 payload_len][u32 crc32(payload)][payload bytes]
//
// The decoder is incremental (`FrameDecoder`) so a reader can consume a
// byte stream delivered in arbitrary chunks — and so property tests can
// feed it torn, truncated and bit-flipped messages without a pipe in the
// loop. A CRC or length-sanity failure is `Corrupt`, which the
// supervisor treats exactly like a worker crash: kill, classify, respawn.
//
// Blocking I/O helpers (`write_frame`, `FrameReader::read`) are
// EINTR-safe and deadline-aware via poll(2). SIGPIPE must be ignored
// process-wide (the supervisor and workers both do this at startup); a
// peer that died mid-write then surfaces as EPIPE -> `Error`, not a
// process-killing signal.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace citroen::sandbox {

/// Ceiling on a frame payload. Real payloads are a few KB; a length word
/// beyond the cap is treated as corruption (a torn/flipped header), so
/// the decoder can fail fast instead of waiting for 4 GB.
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;

/// Bytes of framing overhead per message.
inline constexpr std::size_t kFrameHeaderBytes = 8;

/// Encode one frame around `payload`.
std::string encode_frame(std::string_view payload);

enum class DecodeStatus {
  Ok,        ///< one frame extracted
  NeedMore,  ///< buffered bytes form only a frame prefix (torn message)
  Corrupt,   ///< CRC mismatch or implausible length — unrecoverable
};

/// Incremental frame decoder over an append-only byte stream.
class FrameDecoder {
 public:
  void feed(const char* data, std::size_t n) { buf_.append(data, n); }
  void feed(std::string_view bytes) { feed(bytes.data(), bytes.size()); }

  /// Extract the next complete frame into `payload`. On `Corrupt` the
  /// decoder is poisoned (every later call returns Corrupt): a CRC
  /// failure means framing sync is lost for good on a stream transport.
  DecodeStatus next(std::string* payload, std::string* error = nullptr);

  /// Bytes buffered but not yet consumed by a decoded frame.
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  std::size_t pos_ = 0;  ///< consumed prefix of buf_
  bool poisoned_ = false;
};

enum class IoStatus {
  Ok,
  Eof,      ///< peer closed the pipe cleanly
  Timeout,  ///< deadline expired before a full frame arrived
  Corrupt,  ///< framing-level corruption (see FrameDecoder)
  Error,    ///< errno-level failure (EPIPE, EBADF, ...)
};

const char* io_status_name(IoStatus s);

/// Write one frame, retrying on EINTR and short writes. Blocking.
IoStatus write_frame(int fd, std::string_view payload);

/// Reader side of one pipe: owns the incremental decoder so bytes from a
/// read that straddles frames are kept for the next call.
class FrameReader {
 public:
  explicit FrameReader(int fd) : fd_(fd) {}

  /// Block until one full frame, EOF, corruption, an fd error or the
  /// deadline. `timeout_seconds` < 0 blocks indefinitely. On Timeout the
  /// partial bytes stay buffered — a later call can still complete the
  /// frame.
  IoStatus read(std::string* payload, double timeout_seconds,
                std::string* error = nullptr);

  /// A complete frame (or a corruption verdict) is already buffered:
  /// read() will return immediately without touching the fd.
  bool pending();

 private:
  int fd_;
  FrameDecoder decoder_;
  std::string stash_;        ///< frame decoded by pending(), not yet read()
  bool stashed_ = false;
  bool stashed_corrupt_ = false;
  std::string stash_error_;
};

/// CLOCK_MONOTONIC now, in seconds (deadline arithmetic).
double monotonic_seconds();

}  // namespace citroen::sandbox
