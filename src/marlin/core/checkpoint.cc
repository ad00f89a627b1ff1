#include "marlin/core/checkpoint.hh"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "marlin/base/crc32.hh"
#include "marlin/base/serialize.hh"
#include "marlin/nn/serialize.hh"
#include "marlin/obs/metrics.hh"
#include "marlin/obs/trace.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace marlin::core
{

namespace
{

constexpr std::uint32_t
fourcc(char a, char b, char c, char d)
{
    return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(b))
            << 8) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(c))
            << 16) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(d))
            << 24);
}

constexpr std::uint32_t tagMeta = fourcc('M', 'E', 'T', 'A');
constexpr std::uint32_t tagNets = fourcc('N', 'E', 'T', 'S');
constexpr std::uint32_t tagTrainerRt = fourcc('T', 'R', 'T', 'S');
constexpr std::uint32_t tagReplay = fourcc('R', 'P', 'L', 'Y');
constexpr std::uint32_t tagSharded = fourcc('S', 'H', 'R', 'D');
constexpr std::uint32_t tagEnvRng = fourcc('E', 'N', 'V', 'S');
constexpr std::uint32_t tagLoop = fourcc('L', 'O', 'O', 'P');

std::string
tagName(std::uint32_t tag)
{
    std::string name(4, '?');
    for (int i = 0; i < 4; ++i) {
        const char c = static_cast<char>((tag >> (8 * i)) & 0xff);
        name[static_cast<std::size_t>(i)] =
            (c >= 0x20 && c < 0x7f) ? c : '?';
    }
    return name;
}

/** Section tag of @p store's backend: SHRD when sharded, else RPLY. */
std::uint32_t
replayTag(const replay::ReplayStore &store)
{
    return std::strcmp(store.backendName(), "sharded") == 0
               ? tagSharded
               : tagReplay;
}

/** Per-agent network + optimizer bodies (the NETS payload). */
void
writeNetworkBodies(std::ostream &os, CtdeTrainerBase &trainer)
{
    writePod<std::uint64_t>(os, trainer.numAgents());
    for (std::size_t i = 0; i < trainer.numAgents(); ++i) {
        AgentNetworks &net = trainer.networks(i);
        const bool twin = net.critic2 != nullptr;
        writePod<std::uint8_t>(os, twin ? 1 : 0);
        nn::saveMlp(os, net.actor);
        nn::saveMlp(os, net.critic);
        nn::saveMlp(os, net.targetActor);
        nn::saveMlp(os, net.targetCritic);
        if (twin) {
            nn::saveMlp(os, *net.critic2);
            nn::saveMlp(os, *net.targetCritic2);
        }
        nn::saveAdam(os, net.actorOpt);
        nn::saveAdam(os, net.criticOpt);
    }
}

/**
 * Inverse of writeNetworkBodies. Fatal on mismatch: the caller has
 * already ruled out architecture disagreement via META, so a failure
 * here is writer-side corruption that the CRC should have caught —
 * not a recoverable condition.
 */
void
readNetworkBodies(std::istream &is, CtdeTrainerBase &trainer)
{
    const auto agents = readPod<std::uint64_t>(is);
    if (agents != trainer.numAgents())
        fatal("checkpoint has %llu agents, trainer has %zu",
              static_cast<unsigned long long>(agents),
              trainer.numAgents());
    for (std::size_t i = 0; i < trainer.numAgents(); ++i) {
        AgentNetworks &net = trainer.networks(i);
        const bool twin_ckpt = readPod<std::uint8_t>(is) != 0;
        const bool twin = net.critic2 != nullptr;
        if (twin_ckpt != twin)
            fatal("checkpoint twin-critic flag mismatch for agent "
                  "%zu",
                  i);
        nn::loadMlp(is, net.actor);
        nn::loadMlp(is, net.critic);
        nn::loadMlp(is, net.targetActor);
        nn::loadMlp(is, net.targetCritic);
        if (twin) {
            nn::loadMlp(is, *net.critic2);
            nn::loadMlp(is, *net.targetCritic2);
        }
        nn::loadAdam(is, net.actorOpt);
        nn::loadAdam(is, net.criticOpt);
    }
}

void
writeSection(std::ostream &os, std::uint32_t tag,
             const std::string &payload)
{
    writePod<std::uint32_t>(os, tag);
    writePod<std::uint64_t>(os, payload.size());
    os.write(payload.data(),
             static_cast<std::streamsize>(payload.size()));
    writePod<std::uint32_t>(os,
                            crc32(payload.data(), payload.size()));
}

std::string
metaPayload(const RunState &state)
{
    std::ostringstream os;
    CtdeTrainerBase &trainer = *state.trainer;
    writeString(os, trainer.name());
    writePod<std::uint64_t>(os, trainer.numAgents());
    std::vector<std::uint64_t> dims(trainer.observationDims().begin(),
                                    trainer.observationDims().end());
    writeVector(os, dims);
    writePod<std::uint64_t>(os, trainer.actionDim());
    writePod<std::uint8_t>(os, trainer.twinCritic() ? 1 : 0);
    writePod<std::uint64_t>(os,
                            state.replay ? state.replay->capacity() : 0);
    return os.str();
}

/**
 * Lift a replay-storage load outcome into checkpoint vocabulary so
 * callers see one error taxonomy regardless of which tier failed.
 */
CkptResult
liftStoreResult(const replay::StoreLoadResult &r,
                const std::string &section)
{
    if (r)
        return CkptResult::ok(checkpointVersion);
    CkptError error = CkptError::Truncated;
    switch (r.error) {
      case replay::StoreLoadError::ShapeMismatch:
        error = CkptError::ShapeMismatch;
        break;
      case replay::StoreLoadError::Truncated:
        error = CkptError::Truncated;
        break;
      case replay::StoreLoadError::IoError:
        error = CkptError::IoError;
        break;
      case replay::StoreLoadError::Corrupt:
        error = CkptError::CrcMismatch;
        break;
      case replay::StoreLoadError::None:
        break;
    }
    return CkptResult::fail(error,
                            "section " + section + ": " + r.detail);
}

/** Slurp the rest of a stream into memory for offset-based parsing. */
std::string
slurp(std::istream &is)
{
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

bool
readAt(const std::string &image, std::size_t off, void *dst,
       std::size_t len)
{
    if (image.size() < off || image.size() - off < len)
        return false;
    std::memcpy(dst, image.data() + off, len);
    return true;
}

struct SectionSpan
{
    std::size_t off = 0;
    std::size_t len = 0;
};

CkptResult
loadImage(const std::string &image, const RunState &state)
{
    MARLIN_ASSERT(state.trainer != nullptr,
                  "loadRun needs a trainer");
    std::uint32_t magic = 0;
    std::uint32_t version = 0;
    if (!readAt(image, 0, &magic, sizeof(magic)) ||
        !readAt(image, 4, &version, sizeof(version)))
        return CkptResult::fail(CkptError::Truncated,
                                "file shorter than its header");
    if (magic != checkpointMagic)
        return CkptResult::fail(CkptError::BadMagic,
                                "not a MARLin checkpoint");
    if (version != checkpointVersion) {
        CkptResult r = CkptResult::fail(
            CkptError::BadVersion,
            "written by format version " + std::to_string(version) +
                ", this build reads only version " +
                std::to_string(checkpointVersion));
        r.version = version;
        return r;
    }

    // ---- Section scan: bounds + CRC before anything is parsed ----
    std::map<std::uint32_t, SectionSpan> sections;
    std::size_t off = 8;
    while (off < image.size()) {
        std::uint32_t tag = 0;
        std::uint64_t len = 0;
        if (!readAt(image, off, &tag, sizeof(tag)) ||
            !readAt(image, off + 4, &len, sizeof(len)))
            return CkptResult::fail(CkptError::Truncated,
                                    "file ends inside a section "
                                    "header");
        off += 12;
        if (image.size() - off < len ||
            image.size() - off - len < 4) {
            return CkptResult::fail(CkptError::Truncated,
                                    "file ends inside section " +
                                        tagName(tag));
        }
        std::uint32_t stored_crc = 0;
        readAt(image, off + len, &stored_crc, sizeof(stored_crc));
        if (crc32(image.data() + off, len) != stored_crc) {
            return CkptResult::fail(CkptError::CrcMismatch,
                                    "section " + tagName(tag) +
                                        " payload fails its CRC");
        }
        sections[tag] = {off, static_cast<std::size_t>(len)};
        off += len + 4;
    }

    const auto payload = [&](std::uint32_t tag) {
        const SectionSpan &span = sections.at(tag);
        return image.substr(span.off, span.len);
    };
    const auto require = [&](std::uint32_t tag,
                             bool wanted) -> const char * {
        if (wanted && sections.find(tag) == sections.end())
            return "section missing";
        return nullptr;
    };

    // Everything the caller asked to restore must be present.
    struct Want
    {
        std::uint32_t tag;
        bool wanted;
    };
    const std::uint32_t tag_replay =
        state.replay ? replayTag(*state.replay) : tagReplay;
    const Want wants[] = {
        {tagMeta, true},
        {tagNets, true},
        {tagTrainerRt, true},
        {tag_replay, state.replay != nullptr},
        {tagEnvRng, state.environment != nullptr},
        {tagLoop, state.progress != nullptr},
    };
    for (const Want &want : wants) {
        if (require(want.tag, want.wanted)) {
            return CkptResult::fail(CkptError::MissingSection,
                                    "checkpoint has no " +
                                        tagName(want.tag) +
                                        " section");
        }
    }

    // ---- META: architecture fingerprint gate ----
    {
        std::istringstream meta(payload(tagMeta));
        const std::string algo = readString(meta);
        if (algo != state.trainer->name()) {
            return CkptResult::fail(
                CkptError::AlgoMismatch,
                "checkpoint was written by '" + algo +
                    "' but trainer is '" + state.trainer->name() +
                    "'");
        }
        const auto agents = readPod<std::uint64_t>(meta);
        const auto dims = readVector<std::uint64_t>(meta);
        const auto act_dim = readPod<std::uint64_t>(meta);
        const bool twin = readPod<std::uint8_t>(meta) != 0;
        const auto capacity = readPod<std::uint64_t>(meta);

        const auto &want_dims = state.trainer->observationDims();
        bool shapes_ok = agents == state.trainer->numAgents() &&
                         act_dim == state.trainer->actionDim() &&
                         twin == state.trainer->twinCritic() &&
                         dims.size() == want_dims.size();
        if (shapes_ok) {
            for (std::size_t i = 0; i < dims.size(); ++i)
                shapes_ok &= dims[i] == want_dims[i];
        }
        if (!shapes_ok) {
            return CkptResult::fail(CkptError::ShapeMismatch,
                                    "checkpoint architecture does "
                                    "not match the trainer");
        }
        if (state.replay && capacity != state.replay->capacity()) {
            return CkptResult::fail(
                CkptError::ShapeMismatch,
                "checkpoint replay capacity " +
                    std::to_string(capacity) + " != run capacity " +
                    std::to_string(state.replay->capacity()));
        }
    }

    // ---- All gates passed: restore (first mutation happens here) --
    {
        std::istringstream body(payload(tagNets));
        readNetworkBodies(body, *state.trainer);
    }
    {
        std::istringstream body(payload(tagTrainerRt));
        state.trainer->loadRuntimeState(body);
    }
    if (state.replay) {
        std::istringstream body(payload(tag_replay));
        CkptResult r = liftStoreResult(state.replay->loadState(body),
                                       tagName(tag_replay));
        if (!r)
            return r;
    }
    if (state.environment) {
        std::istringstream body(payload(tagEnvRng));
        state.environment->setRngState(readRngState(body));
    }
    if (state.progress) {
        std::istringstream body(payload(tagLoop));
        state.progress->episodeIndex = readPod<std::uint64_t>(body);
        state.progress->insertionsSinceUpdate =
            readPod<std::uint64_t>(body);
        state.progress->envSteps = readPod<std::uint64_t>(body);
        state.progress->updateCalls = readPod<std::uint64_t>(body);
        state.progress->episodeRewards = readVector<Real>(body);
    }
    return CkptResult::ok(version);
}

obs::Counter &
fsyncCounter()
{
    static obs::Counter &fsyncs =
        obs::Registry::instance().counter("ckpt.fsyncs");
    return fsyncs;
}

void
fsyncDirectory(const std::string &dir)
{
#if defined(__unix__) || defined(__APPLE__)
    const int fd = ::open(dir.c_str(), O_RDONLY);
    if (fd >= 0) {
        ::fsync(fd);
        fsyncCounter().add();
        ::close(fd);
    }
#else
    (void)dir;
#endif
}

} // namespace

const char *
ckptErrorName(CkptError error)
{
    switch (error) {
      case CkptError::None:
        return "none";
      case CkptError::NotFound:
        return "not-found";
      case CkptError::IoError:
        return "io-error";
      case CkptError::Truncated:
        return "truncated";
      case CkptError::BadMagic:
        return "bad-magic";
      case CkptError::BadVersion:
        return "bad-version";
      case CkptError::CrcMismatch:
        return "crc-mismatch";
      case CkptError::MissingSection:
        return "missing-section";
      case CkptError::AlgoMismatch:
        return "algo-mismatch";
      case CkptError::ShapeMismatch:
        return "shape-mismatch";
    }
    return "unknown";
}

void
saveRun(std::ostream &os, const RunState &state)
{
    MARLIN_ASSERT(state.trainer != nullptr,
                  "saveRun needs a trainer");
    writeHeader(os, checkpointMagic, checkpointVersion);
    writeSection(os, tagMeta, metaPayload(state));
    {
        std::ostringstream payload;
        writeNetworkBodies(payload, *state.trainer);
        writeSection(os, tagNets, payload.str());
    }
    {
        std::ostringstream payload;
        state.trainer->saveRuntimeState(payload);
        writeSection(os, tagTrainerRt, payload.str());
    }
    if (state.replay) {
        std::ostringstream payload;
        state.replay->saveState(payload);
        writeSection(os, replayTag(*state.replay), payload.str());
    }
    if (state.environment) {
        std::ostringstream payload;
        writeRngState(payload, state.environment->rngState());
        writeSection(os, tagEnvRng, payload.str());
    }
    if (state.progress) {
        std::ostringstream payload;
        writePod<std::uint64_t>(payload,
                                state.progress->episodeIndex);
        writePod<std::uint64_t>(
            payload, state.progress->insertionsSinceUpdate);
        writePod<std::uint64_t>(payload, state.progress->envSteps);
        writePod<std::uint64_t>(payload,
                                state.progress->updateCalls);
        writeVector(payload, state.progress->episodeRewards);
        writeSection(os, tagLoop, payload.str());
    }
}

CkptResult
loadRun(std::istream &is, const RunState &state)
{
    return loadImage(slurp(is), state);
}

CkptResult
saveRunFile(const std::string &path, const RunState &state,
            base::FaultInjector *injector)
{
    // Spans + counters expose the paper-relevant cost of durability:
    // how many bytes each rotation writes and how often fsync stalls
    // the loop.
    obs::TraceSpan span("checkpoint_write", "ckpt");
    static obs::Counter &files =
        obs::Registry::instance().counter("ckpt.files_written");
    static obs::Counter &bytes =
        obs::Registry::instance().counter("ckpt.bytes_written");

    std::ostringstream buf;
    saveRun(buf, state);
    const std::string image = buf.str();
    const std::string tmp = path + ".tmp";

    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
        CkptResult r = CkptResult::fail(
            CkptError::IoError, "cannot open '" + tmp + "'");
        r.path = path;
        return r;
    }
    if (injector != nullptr && !injector->onWrite()) {
        // Simulate the disk going away mid-write: a torn temp file
        // is left behind (exactly what a crash leaves), and the real
        // checkpoint at @p path is never touched.
        std::fwrite(image.data(), 1, image.size() / 2, f);
        std::fclose(f);
        CkptResult r = CkptResult::fail(CkptError::IoError,
                                        "injected write failure");
        r.path = path;
        return r;
    }
    const std::size_t wrote =
        std::fwrite(image.data(), 1, image.size(), f);
    const bool flushed = std::fflush(f) == 0;
#if defined(__unix__) || defined(__APPLE__)
    if (flushed) {
        ::fsync(::fileno(f));
        fsyncCounter().add();
    }
#endif
    std::fclose(f);
    if (wrote != image.size() || !flushed) {
        CkptResult r = CkptResult::fail(
            CkptError::IoError, "short write to '" + tmp + "'");
        r.path = path;
        return r;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        CkptResult r = CkptResult::fail(
            CkptError::IoError,
            "cannot rename '" + tmp + "' to '" + path + "'");
        r.path = path;
        return r;
    }
    files.add();
    bytes.add(image.size());
    CkptResult r = CkptResult::ok(checkpointVersion);
    r.path = path;
    return r;
}

CkptResult
loadRunFile(const std::string &path, const RunState &state)
{
    static obs::Counter &loads =
        obs::Registry::instance().counter("ckpt.loads");
    static obs::Counter &failures =
        obs::Registry::instance().counter("ckpt.load_failures");
    loads.add();
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        failures.add();
        CkptResult r = CkptResult::fail(
            CkptError::NotFound, "cannot open '" + path + "'");
        r.path = path;
        return r;
    }
    CkptResult r = loadRun(is, state);
    r.path = path;
    if (!r)
        failures.add();
    return r;
}

std::string
latestCheckpointPath(const std::string &dir)
{
    return dir + "/latest.ckpt";
}

std::string
previousCheckpointPath(const std::string &dir)
{
    return dir + "/previous.ckpt";
}

CkptResult
saveRotating(const std::string &dir, const RunState &state,
             base::FaultInjector *injector)
{
    const std::string staging = dir + "/staging.ckpt";
    const std::string latest = latestCheckpointPath(dir);
    const std::string previous = previousCheckpointPath(dir);

    std::error_code ec;
    std::filesystem::create_directories(dir, ec);

    CkptResult r = saveRunFile(staging, state, injector);
    if (!r)
        return r;

    // Rotate: latest -> previous (a missing latest just fails the
    // rename, which is fine on the very first checkpoint), then the
    // fully-written staging file becomes latest. A crash between the
    // two renames leaves a valid previous, which resumeLatest finds.
    std::rename(latest.c_str(), previous.c_str());
    if (std::rename(staging.c_str(), latest.c_str()) != 0) {
        CkptResult fail_r = CkptResult::fail(
            CkptError::IoError,
            "cannot rotate '" + staging + "' to '" + latest + "'");
        fail_r.path = latest;
        return fail_r;
    }
    fsyncDirectory(dir);
    r.path = latest;
    return r;
}

CkptResult
resumeLatest(const std::string &dir, const RunState &state)
{
    const std::string latest = latestCheckpointPath(dir);
    const std::string previous = previousCheckpointPath(dir);

    CkptResult from_latest = loadRunFile(latest, state);
    if (from_latest)
        return from_latest;
    if (from_latest.error != CkptError::NotFound) {
        warn("checkpoint '%s' unusable (%s: %s); falling back to "
             "'%s'",
             latest.c_str(), ckptErrorName(from_latest.error),
             from_latest.detail.c_str(), previous.c_str());
    }

    CkptResult from_previous = loadRunFile(previous, state);
    if (from_previous)
        return from_previous;
    if (from_latest.error == CkptError::NotFound &&
        from_previous.error == CkptError::NotFound) {
        CkptResult r = CkptResult::fail(
            CkptError::NotFound, "no checkpoint in '" + dir + "'");
        r.path = latest;
        return r;
    }
    // Report the more informative of the two failures.
    if (from_previous.error == CkptError::NotFound)
        return from_latest;
    return from_previous;
}

} // namespace marlin::core
