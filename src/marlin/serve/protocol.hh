/**
 * @file
 * Wire protocol of the policy-serving front end.
 *
 * A compact length-prefixed binary framing, little-endian on the
 * wire regardless of host order:
 *
 *   Request frame (12-byte header + payload)
 *     offset  size  field
 *     0       4     magic 0x4d524c51 ("MRLQ")
 *     4       2     protocol version (currently 1)
 *     6       2     agent id
 *     8       4     payload length in bytes (obs floats * 4)
 *     12      ...   observation floats (IEEE-754 binary32, LE)
 *
 *   Response frame (12-byte header + payload)
 *     offset  size  field
 *     0       4     magic 0x4d524c52 ("MRLR")
 *     4       2     protocol version
 *     6       1     status (Status below)
 *     7       1     reserved (0)
 *     8       4     payload length in bytes
 *     12      ...   action floats (empty unless status == Ok)
 *
 * TCP delivers a byte stream, not frames, so the decoder accepts
 * arbitrarily fragmented or coalesced input: bytes accumulate in a
 * retained buffer and complete frames are peeled off the front.
 * Framing violations (wrong magic or version, an oversized or
 * non-float-multiple length prefix) poison the stream — there is no
 * way to resynchronize a corrupt length-prefixed stream — so the
 * server answers them with one error response and closes that
 * connection only; semantic errors on a well-framed request (unknown
 * agent id, wrong observation size) are answered in-band and the
 * connection keeps serving.
 */

#ifndef MARLIN_SERVE_PROTOCOL_HH
#define MARLIN_SERVE_PROTOCOL_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "marlin/base/types.hh"

namespace marlin::serve
{

/** Request frame magic ("MRLQ"). */
inline constexpr std::uint32_t requestMagic = 0x4d524c51;

/** Response frame magic ("MRLR"). */
inline constexpr std::uint32_t responseMagic = 0x4d524c52;

/** Wire protocol version this build speaks. */
inline constexpr std::uint16_t protocolVersion = 1;

/** Bytes in every request/response header. */
inline constexpr std::size_t headerBytes = 12;

/** Response status byte. */
enum class Status : std::uint8_t
{
    Ok = 0,        ///< Payload carries the action floats.
    BadAgent = 1,  ///< Agent id out of range for the policy.
    BadObsDim = 2, ///< Observation float count mismatch.
    BadFrame = 3,  ///< Framing violation; connection closes.
};

/** One decoded request, viewing the decoder's buffer. */
struct RequestView
{
    std::uint16_t agentId = 0;
    /** Payload bytes (unaligned; copy floats out via memcpy). */
    const std::byte *payload = nullptr;
    std::size_t payloadBytes = 0;

    std::size_t
    obsCount() const
    {
        return payloadBytes / sizeof(Real);
    }

    /** memcpy the observation floats into @p dst (obsCount()). */
    void copyObs(Real *dst) const;
};

/** One decoded response (client side), viewing the buffer. */
struct ResponseView
{
    Status status = Status::Ok;
    const std::byte *payload = nullptr;
    std::size_t payloadBytes = 0;

    std::size_t
    actionCount() const
    {
        return payloadBytes / sizeof(Real);
    }

    void copyActions(Real *dst) const;
};

/** Append a request frame for @p agent to @p out. */
void encodeRequest(std::vector<std::byte> &out, std::uint16_t agent,
                   const Real *obs, std::size_t count);

/** Append a response frame to @p out. */
void encodeResponse(std::vector<std::byte> &out, Status status,
                    const Real *actions, std::size_t count);

/**
 * Incremental frame parser over a reassembly buffer. feed() appends
 * raw socket bytes; next() peels complete frames off the front.
 * Once next() reports an error the stream is poisoned and every
 * further call returns the same error.
 */
class FrameDecoder
{
  public:
    enum class Result
    {
        Frame,      ///< A complete frame was decoded.
        NeedMore,   ///< Partial header or payload; feed more bytes.
        BadMagic,   ///< Stream does not start with the magic.
        BadVersion, ///< Peer speaks a different protocol version.
        Oversized,  ///< Length prefix exceeds the configured cap.
        BadLength,  ///< Payload length not a multiple of float.
    };

    /** True when @p r is one of the poisoned-stream outcomes. */
    static bool isError(Result r);

    /** Stable name for a Result ("bad-magic"). */
    static const char *resultName(Result r);

    /**
     * @param expect_magic requestMagic on the server, responseMagic
     *        on the client.
     * @param max_payload_bytes Reject larger length prefixes.
     */
    FrameDecoder(std::uint32_t expect_magic,
                 std::size_t max_payload_bytes);

    /** Append @p n raw bytes from the socket. */
    void feed(const void *data, std::size_t n);

    /**
     * Decode the next frame into @p out. The view borrows the
     * internal buffer and stays valid until the next feed() or
     * next() call. Response fields (status) are only meaningful
     * when expecting responseMagic, request fields (agentId) when
     * expecting requestMagic.
     */
    Result next(RequestView &out);
    Result next(ResponseView &out);

    /** Bytes buffered but not yet consumed by next(). */
    std::size_t pendingBytes() const { return buf.size() - off; }

    /** Drop all buffered bytes and clear any error (tests). */
    void reset();

  private:
    Result decodeHeader(std::uint16_t &field_a, std::uint16_t &field_b,
                        std::size_t &payload_bytes);
    void consume(std::size_t n);

    std::uint32_t expectMagic;
    std::size_t maxPayloadBytes;
    std::vector<std::byte> buf;
    std::size_t off = 0;
    Result poisoned = Result::NeedMore;
    bool havePoison = false;
};

} // namespace marlin::serve

#endif // MARLIN_SERVE_PROTOCOL_HH
