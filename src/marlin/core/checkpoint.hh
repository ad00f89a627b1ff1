/**
 * @file
 * Crash-safe run checkpointing.
 *
 * A checkpoint snapshots the complete run — networks, trainer
 * runtime (RNG streams, noise processes, sampler state, update
 * counters), the replay store, the environment RNG and the loop
 * progress — as a sequence of CRC-guarded sections, so a run killed
 * at an arbitrary step resumes bit-identically from the last episode
 * boundary. Version 2 is the only format: files of any other version
 * are refused with BadVersion.
 *
 * File layout:
 *
 *   [u32 magic "MRLC"][u32 version]
 *   repeated: [u32 tag][u64 payload_len][payload][u32 crc32(payload)]
 *
 * Writers emit whole files through a write-to-temp + flush + rename
 * sequence and rotate latest -> previous, so at any kill point one
 * complete checkpoint survives on disk. Readers return CkptResult
 * instead of aborting: truncation, bit rot and architecture
 * mismatches are ordinary recoverable outcomes, and resumeLatest()
 * falls back from latest to previous on its own.
 */

#ifndef MARLIN_CORE_CHECKPOINT_HH
#define MARLIN_CORE_CHECKPOINT_HH

#include <iostream>
#include <string>

#include "marlin/base/fault_injector.hh"
#include "marlin/core/maddpg.hh"
#include "marlin/env/environment.hh"

namespace marlin::core
{

/** Magic tag of MARLin trainer checkpoints ("MRLC"). */
inline constexpr std::uint32_t checkpointMagic = 0x4d524c43;

/** Checkpoint format version (sectioned, CRC-guarded). */
inline constexpr std::uint32_t checkpointVersion = 2;

/** How a checkpoint load can fail; None means success. */
enum class CkptError
{
    None,           ///< Loaded successfully.
    NotFound,       ///< No checkpoint file exists.
    IoError,        ///< Open/read/write syscall failure.
    Truncated,      ///< File ends mid-header or mid-section.
    BadMagic,       ///< Not a MARLin checkpoint.
    BadVersion,     ///< Any format version other than 2.
    CrcMismatch,    ///< A section's payload fails its CRC footer.
    MissingSection, ///< A section the caller requested is absent.
    AlgoMismatch,   ///< Written by a different algorithm (e.g. matd3).
    ShapeMismatch,  ///< Agent count / dims / capacity disagree.
};

/** Stable lower-case name for a CkptError ("crc-mismatch"). */
const char *ckptErrorName(CkptError error);

/** Outcome of a checkpoint load (or failure-capable save). */
struct CkptResult
{
    CkptError error = CkptError::None;
    /** Format version actually read (0 until the header parsed). */
    std::uint32_t version = 0;
    /** Human-readable context ("section RPLY crc mismatch"). */
    std::string detail;
    /** File the outcome refers to (set by the file-level API). */
    std::string path;

    explicit operator bool() const { return error == CkptError::None; }

    static CkptResult
    ok(std::uint32_t version)
    {
        CkptResult r;
        r.version = version;
        return r;
    }

    static CkptResult
    fail(CkptError error, std::string detail)
    {
        CkptResult r;
        r.error = error;
        r.detail = std::move(detail);
        return r;
    }
};

/** TrainLoop progress captured in the LOOP section. */
struct LoopProgress
{
    std::uint64_t episodeIndex = 0;
    std::uint64_t insertionsSinceUpdate = 0;
    std::uint64_t envSteps = 0;
    std::uint64_t updateCalls = 0;
    /** Per-episode mean returns accumulated so far. */
    std::vector<Real> episodeRewards;
};

/**
 * Names everything a full-state checkpoint covers. The trainer is
 * mandatory; every other member may be null, in which case its
 * section is neither written on save nor demanded on load.
 */
struct RunState
{
    CtdeTrainerBase *trainer = nullptr;
    /**
     * Replay storage, in the section tag of its backend: RPLY for
     * "per_agent", SHRD for "sharded".
     */
    replay::ReplayStore *replay = nullptr;
    env::Environment *environment = nullptr;
    LoopProgress *progress = nullptr;
};

/** Serialize a version-2 checkpoint of @p state to a stream. */
void saveRun(std::ostream &os, const RunState &state);

/**
 * Restore a checkpoint into @p state. All sections are CRC- and
 * shape-validated before anything is mutated, so a failed load
 * leaves @p state exactly as it was.
 */
CkptResult loadRun(std::istream &is, const RunState &state);

/**
 * Atomically write a version-2 checkpoint file: serialize to
 * "<path>.tmp", flush + fsync, then rename over @p path. A crash at
 * any point leaves either the old file or the new one, never a
 * truncated hybrid. @p injector (optional) makes the write fail on
 * demand for crash testing.
 */
CkptResult saveRunFile(const std::string &path, const RunState &state,
                       base::FaultInjector *injector = nullptr);

/** Read and restore a checkpoint file. */
CkptResult loadRunFile(const std::string &path,
                       const RunState &state);

/** "<dir>/latest.ckpt" — the rotation's newest complete snapshot. */
std::string latestCheckpointPath(const std::string &dir);

/** "<dir>/previous.ckpt" — the snapshot before that. */
std::string previousCheckpointPath(const std::string &dir);

/**
 * Checkpoint @p state into @p dir with rotation: the old latest
 * becomes previous, the new snapshot becomes latest. Keeping two
 * generations means a checkpoint that lands corrupt (or a crash
 * mid-rotation) still leaves a loadable file behind.
 */
CkptResult saveRotating(const std::string &dir, const RunState &state,
                        base::FaultInjector *injector = nullptr);

/**
 * Resume from @p dir: try latest.ckpt, and on any failure warn and
 * fall back to previous.ckpt. NotFound when neither file exists.
 */
CkptResult resumeLatest(const std::string &dir,
                        const RunState &state);

} // namespace marlin::core

#endif // MARLIN_CORE_CHECKPOINT_HH
