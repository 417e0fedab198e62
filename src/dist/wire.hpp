#pragma once
// Peer-pool wire protocol: the sandbox wire format, lifted to sockets.
//
// Remote dispatch rides the exact machinery the forked-worker sandbox
// already trusts — `sandbox/ipc.hpp` CRC frames on the outside,
// `sandbox/protocol.*` persist-codec job/result payloads on the inside.
// The only addition is a one-byte message tag in front of each payload,
// because a socket peer (unlike a forked worker) needs a handshake and
// liveness probes multiplexed onto the same stream:
//
//   frame payload := [u8 PeerMsg][body]
//
//   Hello    (pool -> peer): u32 proto version, program spec + exec
//            limits — everything a peer needs to reconstruct the pool's
//            ProgramEvaluator from scratch (peers share no memory) —
//            plus the pool's CLOCK_MONOTONIC send time.
//   HelloOk  (peer -> pool): u64 peer pid, u64 evaluator fingerprint,
//            u64 peer CLOCK_MONOTONIC reply time. The pool compares
//            fingerprints and refuses peers whose evaluator would not
//            be bit-identical to its own; the timestamps give it a
//            per-connection clock offset (remote − local, midpoint
//            estimate) used to re-base the trace events peers piggyback
//            on Result frames into the pool's timeline. Re-measured on
//            every reconnect, so a peer restart or clock step heals on
//            the next handshake.
//   HelloErr (peer -> pool): str reason (unknown program, bad version).
//   Job      (pool -> peer): sandbox::encode_job bytes, verbatim.
//   Result   (peer -> pool): sandbox::encode_result bytes, verbatim.
//   Ping     (pool -> peer): u64 nonce.   Heartbeat liveness probe.
//   Pong     (peer -> pool): u64 nonce echo.
//
// No second wire format: a Job/Result body is byte-for-byte what the
// pool writes down a fork worker's pipe.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace citroen::sim {
class ProgramEvaluator;
}

namespace citroen::dist {

/// v2 added the clock stamps to Hello/HelloOk; v3 added build summaries
/// to Result frames (sandbox/protocol.hpp).
inline constexpr std::uint32_t kProtocolVersion = 3;

enum class PeerMsg : std::uint8_t {
  Hello = 1,
  HelloOk = 2,
  HelloErr = 3,
  Job = 4,
  Result = 5,
  Ping = 6,
  Pong = 7,
};

const char* peer_msg_name(PeerMsg m);

/// Everything a peer needs to rebuild the pool's evaluator bit-exactly:
/// benchmark name + workload seeds (bench_suite::make_program), machine
/// model name (sim::machine_by_name) and interpreter limits.
struct ProgramSpec {
  std::string program;
  std::string machine = "arm";
  std::uint64_t workload_seed = 42;
  std::vector<std::uint64_t> extra_workload_seeds;
  std::uint64_t max_instructions = 0;  ///< 0 = ExecLimits default
  std::uint64_t max_memory_bytes = 0;  ///< 0 = ExecLimits default
  std::int32_t max_call_depth = 0;     ///< 0 = ExecLimits default
};

/// Prefix `body` with the message tag (the result goes inside one CRC
/// frame, i.e. `sandbox::write_frame(fd, tag_message(...))`).
std::string tag_message(PeerMsg tag, std::string_view body);

/// Split a received frame payload into tag + body. False when empty or
/// the tag byte is out of range — protocol corruption, peer-fatal.
bool untag_message(std::string_view payload, PeerMsg* tag,
                   std::string_view* body);

std::string encode_hello(const ProgramSpec& spec,
                         std::uint64_t pool_now_ns = 0);
bool decode_hello(std::string_view body, ProgramSpec* spec,
                  std::string* error, std::uint64_t* pool_now_ns = nullptr);

std::string encode_hello_ok(std::uint64_t pid, std::uint64_t fingerprint,
                            std::uint64_t peer_now_ns = 0);
bool decode_hello_ok(std::string_view body, std::uint64_t* pid,
                     std::uint64_t* fingerprint,
                     std::uint64_t* peer_now_ns = nullptr);

std::string encode_hello_err(const std::string& reason);
bool decode_hello_err(std::string_view body, std::string* reason);

std::string encode_nonce(std::uint64_t nonce);  ///< Ping/Pong body
bool decode_nonce(std::string_view body, std::uint64_t* nonce);

/// Structural fingerprint of an evaluator: folds the base-program hash,
/// the reference output and the workload count. Two evaluators with the
/// same fingerprint produce bit-identical PureEvalResults for any job,
/// which is the property the pool's byte-identity guarantee needs from
/// a peer it has never shared memory with.
std::uint64_t evaluator_fingerprint(const sim::ProgramEvaluator& eval);

}  // namespace citroen::dist
