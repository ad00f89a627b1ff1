#include "marlin/serve/protocol.hh"

#include <cstring>

namespace marlin::serve
{

namespace
{

void
storeLe16(std::byte *dst, std::uint16_t v)
{
    dst[0] = static_cast<std::byte>(v & 0xff);
    dst[1] = static_cast<std::byte>((v >> 8) & 0xff);
}

void
storeLe32(std::byte *dst, std::uint32_t v)
{
    dst[0] = static_cast<std::byte>(v & 0xff);
    dst[1] = static_cast<std::byte>((v >> 8) & 0xff);
    dst[2] = static_cast<std::byte>((v >> 16) & 0xff);
    dst[3] = static_cast<std::byte>((v >> 24) & 0xff);
}

std::uint16_t
loadLe16(const std::byte *src)
{
    return static_cast<std::uint16_t>(
        std::to_integer<std::uint16_t>(src[0]) |
        (std::to_integer<std::uint16_t>(src[1]) << 8));
}

std::uint32_t
loadLe32(const std::byte *src)
{
    return std::to_integer<std::uint32_t>(src[0]) |
           (std::to_integer<std::uint32_t>(src[1]) << 8) |
           (std::to_integer<std::uint32_t>(src[2]) << 16) |
           (std::to_integer<std::uint32_t>(src[3]) << 24);
}

/**
 * Append a 12-byte header + float payload. Floats go out as raw
 * IEEE-754 binary32; MARLin only targets little-endian hosts (the
 * checkpoint format makes the same assumption), so the payload is a
 * straight memcpy.
 */
void
encodeFrame(std::vector<std::byte> &out, std::uint32_t magic,
            std::uint16_t field_a, std::uint16_t field_b,
            const Real *values, std::size_t count)
{
    static_assert(sizeof(Real) == 4,
                  "wire format carries binary32 floats");
    const std::size_t payload_bytes = count * sizeof(Real);
    const std::size_t base = out.size();
    out.resize(base + headerBytes + payload_bytes);
    std::byte *p = out.data() + base;
    storeLe32(p, magic);
    storeLe16(p + 4, field_a);
    storeLe16(p + 6, field_b);
    storeLe32(p + 8, static_cast<std::uint32_t>(payload_bytes));
    if (payload_bytes > 0)
        std::memcpy(p + headerBytes, values, payload_bytes);
}

} // namespace

void
RequestView::copyObs(Real *dst) const
{
    if (payloadBytes > 0)
        std::memcpy(dst, payload, payloadBytes);
}

void
ResponseView::copyActions(Real *dst) const
{
    if (payloadBytes > 0)
        std::memcpy(dst, payload, payloadBytes);
}

void
encodeRequest(std::vector<std::byte> &out, std::uint16_t agent,
              const Real *obs, std::size_t count)
{
    encodeFrame(out, requestMagic, protocolVersion, agent, obs,
                count);
}

void
encodeResponse(std::vector<std::byte> &out, Status status,
               const Real *actions, std::size_t count)
{
    const auto status_field = static_cast<std::uint16_t>(
        static_cast<std::uint8_t>(status));
    encodeFrame(out, responseMagic, protocolVersion, status_field,
                actions, count);
}

bool
FrameDecoder::isError(Result r)
{
    return r != Result::Frame && r != Result::NeedMore;
}

const char *
FrameDecoder::resultName(Result r)
{
    switch (r) {
    case Result::Frame:
        return "frame";
    case Result::NeedMore:
        return "need-more";
    case Result::BadMagic:
        return "bad-magic";
    case Result::BadVersion:
        return "bad-version";
    case Result::Oversized:
        return "oversized";
    case Result::BadLength:
        return "bad-length";
    }
    return "unknown";
}

FrameDecoder::FrameDecoder(std::uint32_t expect_magic,
                           std::size_t max_payload_bytes)
    : expectMagic(expect_magic), maxPayloadBytes(max_payload_bytes)
{
}

void
FrameDecoder::feed(const void *data, std::size_t n)
{
    const auto *bytes = static_cast<const std::byte *>(data);
    // Compact before appending once the consumed prefix dominates,
    // so the buffer stays bounded by one frame plus one read's worth
    // of bytes instead of growing with connection lifetime.
    if (off > 0 && (off >= buf.size() || off > 4096)) {
        buf.erase(buf.begin(),
                  buf.begin() + static_cast<std::ptrdiff_t>(off));
        off = 0;
    }
    buf.insert(buf.end(), bytes, bytes + n);
}

FrameDecoder::Result
FrameDecoder::decodeHeader(std::uint16_t &field_a,
                           std::uint16_t &field_b,
                           std::size_t &payload_bytes)
{
    if (havePoison)
        return poisoned;
    if (pendingBytes() < headerBytes)
        return Result::NeedMore;
    const std::byte *p = buf.data() + off;
    if (loadLe32(p) != expectMagic) {
        poisoned = Result::BadMagic;
    } else if (loadLe16(p + 4) != protocolVersion) {
        poisoned = Result::BadVersion;
    } else {
        payload_bytes = loadLe32(p + 8);
        if (payload_bytes > maxPayloadBytes)
            poisoned = Result::Oversized;
        else if (payload_bytes % sizeof(Real) != 0)
            poisoned = Result::BadLength;
    }
    if (isError(poisoned)) {
        havePoison = true;
        return poisoned;
    }
    if (pendingBytes() < headerBytes + payload_bytes)
        return Result::NeedMore;
    field_a = loadLe16(p + 4);
    field_b = loadLe16(p + 6);
    return Result::Frame;
}

void
FrameDecoder::consume(std::size_t n)
{
    off += n;
}

FrameDecoder::Result
FrameDecoder::next(RequestView &out)
{
    std::uint16_t version = 0;
    std::uint16_t agent = 0;
    std::size_t payload_bytes = 0;
    const Result r = decodeHeader(version, agent, payload_bytes);
    if (r != Result::Frame)
        return r;
    out.agentId = agent;
    out.payload = buf.data() + off + headerBytes;
    out.payloadBytes = payload_bytes;
    consume(headerBytes + payload_bytes);
    return Result::Frame;
}

FrameDecoder::Result
FrameDecoder::next(ResponseView &out)
{
    std::uint16_t version = 0;
    std::uint16_t status = 0;
    std::size_t payload_bytes = 0;
    const Result r = decodeHeader(version, status, payload_bytes);
    if (r != Result::Frame)
        return r;
    // The status travels in the low byte of the 16-bit field pair
    // (byte 6 of the header); byte 7 is reserved.
    out.status = static_cast<Status>(status & 0xff);
    out.payload = buf.data() + off + headerBytes;
    out.payloadBytes = payload_bytes;
    consume(headerBytes + payload_bytes);
    return Result::Frame;
}

void
FrameDecoder::reset()
{
    buf.clear();
    off = 0;
    havePoison = false;
    poisoned = Result::NeedMore;
}

} // namespace marlin::serve
