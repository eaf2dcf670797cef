// serve::Frame — the wire unit of the attach protocol.
//
// PR 5's worker serve protocol (exec::ServeRequest) frames one JSON
// document per line over a private pipe; the daemon generalizes that to
// a shared unix socket where many clients interleave, so each message
// gains an id and an envelope. A frame is exactly two lines:
//
//   {"id":N,"verb":"matrix","exit":0,"text":"<escaped human text>"}
//   <payload document>
//
// The header line is ordinary report-layer JSON (parse with
// support::json); the payload line is carried as *raw bytes*, never
// re-serialized — the whole point of the attach contract is that a
// client prints the same report document a local run would have
// (byte-identical, down to double digits), and a decode/encode round
// trip through a double would corrupt that. Keeping the payload on its
// own line makes that trivially safe: no length bookkeeping, no
// substring extraction from inside an escaped string, just "read two
// lines".
//
// Request frames use `verb` + payload (a serve::VerbRequest document;
// `exit`/`text` unused); response frames carry the verb back with the
// CLI exit code, the human rendering in `text`, and the --format json
// document as the payload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace advm::core::serve {

/// Longest header or payload line a daemon accepts. Request lines are a
/// few hundred bytes; the cap sits far above that (and above the 1 MB
/// hostile header the serve suite aims at the JSON depth limit) while
/// still bounding what one client can make the daemon buffer. A longer
/// line is answered with advm.serve-frame-too-large.
inline constexpr std::size_t kMaxFrameLineBytes = std::size_t{8} << 20;

struct Frame {
  std::uint64_t id = 0;
  std::string verb;     ///< request: the CLI verb; response: echoed back
  int exit = 0;         ///< response only: the CLI exit code
  std::string text;     ///< response only: human rendering ("" when none)
  std::string payload;  ///< one single-line JSON document, raw bytes
};

/// Renders the two-line wire form (header '\n' payload '\n'). An empty
/// payload encodes as `null` so the payload line is always a valid
/// document.
[[nodiscard]] std::string encode_frame(const Frame& frame);

/// Parses one header line. The returned Frame has an empty payload —
/// the caller reads the next line and assigns it verbatim. nullopt (with
/// a diagnostic in *error when non-null) on malformed JSON, a missing
/// id/verb, or a verb that is not a plain lowercase word — the envelope
/// is machine-built, so anything else is protocol corruption.
[[nodiscard]] std::optional<Frame> decode_frame_header(
    std::string_view line, std::string* error = nullptr);

}  // namespace advm::core::serve
