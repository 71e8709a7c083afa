//! Crash-tolerant training: Q-table checkpointing and bit-identical
//! resume.
//!
//! Training a tabular controller for hundreds of episodes is the longest
//! single computation in the reproduction; a crash (or a deliberately
//! injected panic — see [`crate::harness::Harness::run_caught`]) should
//! not force a restart from scratch. A [`ControllerSnapshot`] taken at an
//! episode boundary is the controller's *complete* state — Q-table,
//! traces, visit counts, exploration rate, and exploration-RNG state; the
//! predictor resets every episode — so resuming from one replays the
//! remaining episodes **bit-for-bit**: the resumed run's final snapshot
//! equals the uninterrupted run's (enforced by
//! `resumed_training_is_bit_identical`).
//!
//! [`TrainCheckpoint`] pairs such a snapshot with the number of episodes
//! already completed. On disk the JSON payload rides inside an
//! integrity frame — `hevckpt v1 len=<bytes> fnv=<16-hex>\n<payload>` —
//! so a torn, truncated, or bit-flipped write is *detected* as a typed
//! [`CheckpointError`] (never a panic, never silently-wrong state).
//! Writes are atomic (temp file + rename) and the previous good
//! checkpoint is kept as `<path>.bak`, so a resume falls back to it when
//! the primary is corrupt; [`train_portfolio_checkpointed`] resumes from
//! whichever loads. A file without the frame (such as a bare JSON
//! payload) is rejected as [`CheckpointError::MalformedHeader`] like any
//! other corruption.

use crate::controller::{ControllerSnapshot, JointController, JointControllerConfig};
use crate::metrics::EpisodeMetrics;
use drive_cycle::DriveCycle;
use hev_model::ParallelHev;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};

/// Magic prefix of a framed checkpoint file.
const FRAME_MAGIC: &str = "hevckpt v1";

/// FNV-1a 64-bit over the payload bytes (inline: the checkpoint frame
/// must not pull in a hashing dependency).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Why a checkpoint could not be loaded. Corruption is detected and
/// reported, never panicked on: a torn write yields
/// [`CheckpointError::TruncatedFrame`], a bit flip
/// [`CheckpointError::ChecksumMismatch`].
#[derive(Debug)]
pub enum CheckpointError {
    /// The file could not be read (missing, permissions, ...).
    Io(io::Error),
    /// The frame header promised more payload bytes than the file holds
    /// (a torn or truncated write).
    TruncatedFrame {
        /// Payload bytes the header promised.
        expected: usize,
        /// Payload bytes actually present.
        got: usize,
    },
    /// The payload bytes do not hash to the header's checksum (a bit
    /// flip or partial overwrite).
    ChecksumMismatch {
        /// The checksum the header recorded.
        expected: u64,
        /// The checksum of the bytes on disk.
        got: u64,
    },
    /// The frame header is missing (no `hevckpt v1` magic) or could
    /// not be parsed.
    MalformedHeader,
    /// The payload passed the frame checks but is not a valid
    /// checkpoint.
    Malformed(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "checkpoint io error: {e}"),
            Self::TruncatedFrame { expected, got } => write!(
                f,
                "truncated checkpoint frame: header promises {expected} payload bytes, found {got}"
            ),
            Self::ChecksumMismatch { expected, got } => write!(
                f,
                "checkpoint checksum mismatch: header records {expected:016x}, payload hashes to {got:016x}"
            ),
            Self::MalformedHeader => write!(f, "malformed checkpoint frame header"),
            Self::Malformed(e) => write!(f, "malformed checkpoint payload: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<CheckpointError> for io::Error {
    fn from(e: CheckpointError) -> Self {
        match e {
            CheckpointError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// A resumable training checkpoint: how many episodes are done, plus the
/// controller's complete episode-boundary state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainCheckpoint {
    /// Episodes completed before this checkpoint was taken.
    pub episodes_done: usize,
    /// The controller's state at that episode boundary.
    pub snapshot: ControllerSnapshot,
}

impl TrainCheckpoint {
    /// Captures a checkpoint of a controller at an episode boundary.
    fn capture(episodes_done: usize, agent: &JointController) -> Self {
        Self {
            episodes_done,
            snapshot: agent.snapshot(),
        }
    }

    /// Serializes the checkpoint into the integrity frame and writes it
    /// atomically (temp file in the same directory, then rename), so a
    /// crash mid-write never leaves a truncated primary behind. An
    /// existing checkpoint is first renamed to `<path>.bak`, keeping the
    /// previous good state recoverable should the new file be damaged
    /// later (see `load_or_recover`).
    fn save(&self, path: &Path) -> io::Result<()> {
        let json = serde_json::to_string(self)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let framed = format!(
            "{FRAME_MAGIC} len={} fnv={:016x}\n{json}",
            json.len(),
            fnv1a64(json.as_bytes()),
        );
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, framed)?;
        if path.exists() {
            std::fs::rename(path, path.with_extension("bak"))?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Loads and verifies a framed checkpoint: the frame's length and
    /// FNV-1a checksum must both match before the payload is parsed.
    /// Corruption, including a missing frame, surfaces as a typed
    /// [`CheckpointError`].
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let bytes = std::fs::read(path)?;
        Self::parse_bytes(&bytes)
    }

    /// [`TrainCheckpoint::load`], falling back to the previous good
    /// checkpoint (`<path>.bak`) when the primary exists but is corrupt.
    /// Returns the checkpoint and whether the fallback was used. A
    /// missing primary is *not* recovered (a fresh run must start
    /// fresh); when both files are corrupt, the primary's error wins.
    fn load_or_recover(path: &Path) -> Result<(Self, bool), CheckpointError> {
        match Self::load(path) {
            Ok(ckpt) => Ok((ckpt, false)),
            Err(CheckpointError::Io(e)) => Err(CheckpointError::Io(e)),
            Err(primary) => match Self::load(&path.with_extension("bak")) {
                Ok(ckpt) => Ok((ckpt, true)),
                Err(_) => Err(primary),
            },
        }
    }

    /// Verifies the frame and parses the payload.
    fn parse_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let rest = bytes
            .strip_prefix(FRAME_MAGIC.as_bytes())
            .ok_or(CheckpointError::MalformedHeader)?;
        let newline =
            rest.iter()
                .position(|&b| b == b'\n')
                .ok_or(CheckpointError::TruncatedFrame {
                    expected: 0,
                    got: rest.len(),
                })?;
        let header =
            std::str::from_utf8(&rest[..newline]).map_err(|_| CheckpointError::MalformedHeader)?;
        let payload = &rest[newline + 1..];
        let mut len = None;
        let mut fnv = None;
        for token in header.split_whitespace() {
            if let Some(v) = token.strip_prefix("len=") {
                len = v.parse::<usize>().ok();
            } else if let Some(v) = token.strip_prefix("fnv=") {
                fnv = u64::from_str_radix(v, 16).ok();
            }
        }
        let (Some(len), Some(fnv)) = (len, fnv) else {
            return Err(CheckpointError::MalformedHeader);
        };
        if payload.len() != len {
            return Err(CheckpointError::TruncatedFrame {
                expected: len,
                got: payload.len(),
            });
        }
        let got = fnv1a64(payload);
        if got != fnv {
            return Err(CheckpointError::ChecksumMismatch { expected: fnv, got });
        }
        let json =
            std::str::from_utf8(payload).map_err(|e| CheckpointError::Malformed(e.to_string()))?;
        serde_json::from_str(json).map_err(|e| CheckpointError::Malformed(e.to_string()))
    }
}

/// Where and how often [`train_portfolio_checkpointed`] checkpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointSpec {
    /// Checkpoint file path (one file, overwritten atomically).
    pub path: PathBuf,
    /// Checkpoint every this many episodes (and always at the end).
    pub every: usize,
    /// Resume from `path` if it exists (otherwise start fresh).
    pub resume: bool,
}

impl CheckpointSpec {
    /// A spec checkpointing to `path` every `every` episodes, resuming
    /// from an existing checkpoint file.
    pub fn new(path: impl Into<PathBuf>, every: usize) -> Self {
        Self {
            path: path.into(),
            every: every.max(1),
            resume: true,
        }
    }
}

/// Portfolio training with optional checkpoint/resume.
///
/// Without a spec this is exactly
/// [`JointController::train_portfolio`][crate::JointController::train_portfolio]
/// driven episode-by-episode: episode `e` trains on
/// `cycles[e % cycles.len()]` until `episodes` episodes are done. With a
/// spec, the checkpoint file is saved every `spec.every` episodes (and at
/// the end), and — when `spec.resume` is set and the file exists —
/// training picks up from the recorded episode count instead of zero. A
/// corrupt checkpoint file falls back to the previous good one
/// (`<path>.bak`); only when both are unusable does the resume fail.
///
/// Returns the trained controller and the metrics of the episodes run *by
/// this invocation* (a resumed run returns only the remaining episodes).
pub fn train_portfolio_checkpointed(
    config: JointControllerConfig,
    hev: &mut ParallelHev,
    cycles: &[DriveCycle],
    episodes: usize,
    spec: Option<&CheckpointSpec>,
) -> io::Result<(JointController, Vec<EpisodeMetrics>)> {
    assert!(!cycles.is_empty(), "portfolio must contain a cycle");
    let (mut agent, start) = match spec {
        Some(s) if s.resume && s.path.exists() => {
            let (ckpt, _recovered) =
                TrainCheckpoint::load_or_recover(&s.path).map_err(io::Error::from)?;
            (
                JointController::from_snapshot(ckpt.snapshot),
                ckpt.episodes_done,
            )
        }
        _ => (JointController::new(config), 0),
    };
    agent.set_training(true);
    let mut metrics = Vec::with_capacity(episodes.saturating_sub(start));
    for e in start..episodes {
        let cycle = &cycles[e % cycles.len()];
        metrics.push(agent.train_episode(hev, cycle));
        if let Some(s) = spec {
            let done = e + 1;
            if done % s.every == 0 || done == episodes {
                TrainCheckpoint::capture(done, &agent).save(&s.path)?;
            }
        }
    }
    Ok((agent, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use drive_cycle::ProfileBuilder;
    use hev_model::HevParams;

    fn hev() -> ParallelHev {
        ParallelHev::new(HevParams::default_parallel_hev(), 0.6).unwrap()
    }

    fn cycles() -> Vec<DriveCycle> {
        vec![
            ProfileBuilder::new("a")
                .idle(2.0)
                .trip(35.0, 8.0, 12.0, 7.0, 3.0)
                .build()
                .unwrap(),
            ProfileBuilder::new("b")
                .idle(2.0)
                .trip(50.0, 10.0, 15.0, 9.0, 4.0)
                .build()
                .unwrap(),
        ]
    }

    fn config() -> JointControllerConfig {
        let mut c = JointControllerConfig::proposed();
        c.state = crate::state::StateSpaceConfig {
            power_demand: hev_rl::UniformGrid::new(-30_000.0, 50_000.0, 6),
            speed: hev_rl::UniformGrid::new(0.0, 30.0, 5),
            charge: hev_rl::UniformGrid::new(0.4, 0.8, 5),
            prediction: Some(hev_rl::UniformGrid::new(-15_000.0, 30_000.0, 3)),
        };
        c
    }

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hev_ckpt_{name}_{}", std::process::id()));
        p
    }

    fn cleanup(path: &Path) {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(path.with_extension("bak"));
        let _ = std::fs::remove_file(path.with_extension("tmp"));
    }

    #[test]
    fn checkpoint_roundtrips_through_disk() {
        let mut plant = hev();
        let cs = cycles();
        let (agent, _) = train_portfolio_checkpointed(config(), &mut plant, &cs, 4, None).unwrap();
        let ckpt = TrainCheckpoint::capture(4, &agent);
        let path = tmp_path("roundtrip");
        cleanup(&path);
        ckpt.save(&path).unwrap();
        let loaded = TrainCheckpoint::load(&path).unwrap();
        cleanup(&path);
        assert_eq!(loaded, ckpt);
    }

    #[test]
    fn resumed_training_is_bit_identical() {
        // Uninterrupted run: 10 episodes straight through.
        let mut plant = hev();
        let cs = cycles();
        let (reference, _) =
            train_portfolio_checkpointed(config(), &mut plant, &cs, 10, None).unwrap();

        // Crashed run: checkpoint every 3 episodes, "crash" after 6, then
        // resume from disk with a brand-new controller.
        let path = tmp_path("resume");
        cleanup(&path);
        let spec = CheckpointSpec::new(&path, 3);
        let mut plant2 = hev();
        let _ = train_portfolio_checkpointed(config(), &mut plant2, &cs, 6, Some(&spec)).unwrap();
        let mut plant3 = hev();
        let (resumed, tail) =
            train_portfolio_checkpointed(config(), &mut plant3, &cs, 10, Some(&spec)).unwrap();
        cleanup(&path);

        // The resumed invocation ran only the remaining 4 episodes, and
        // its final state matches the uninterrupted run bit-for-bit.
        assert_eq!(tail.len(), 4);
        assert_eq!(resumed.snapshot(), reference.snapshot());
    }

    #[test]
    fn fresh_run_ignores_missing_checkpoint_file() {
        let path = tmp_path("missing");
        cleanup(&path);
        let spec = CheckpointSpec::new(&path, 2);
        let mut plant = hev();
        let cs = cycles();
        let (_, metrics) =
            train_portfolio_checkpointed(config(), &mut plant, &cs, 3, Some(&spec)).unwrap();
        assert_eq!(metrics.len(), 3);
        assert!(path.exists(), "final checkpoint always written");
        let ckpt = TrainCheckpoint::load(&path).unwrap();
        cleanup(&path);
        assert_eq!(ckpt.episodes_done, 3);
    }

    #[test]
    fn truncation_is_detected_and_recovers_to_previous_good() {
        let mut plant = hev();
        let cs = cycles();
        let (agent, _) = train_portfolio_checkpointed(config(), &mut plant, &cs, 2, None).unwrap();
        let path = tmp_path("truncate");
        cleanup(&path);
        // Two saves: the first checkpoint becomes the .bak.
        let previous = TrainCheckpoint::capture(1, &agent);
        previous.save(&path).unwrap();
        TrainCheckpoint::capture(2, &agent).save(&path).unwrap();
        assert!(path.with_extension("bak").exists());

        // Tear the primary mid-payload.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        match TrainCheckpoint::load(&path) {
            Err(CheckpointError::TruncatedFrame { expected, got }) => {
                assert!(got < expected);
            }
            other => panic!("expected TruncatedFrame, got {other:?}"),
        }

        // Recovery falls back to the previous good checkpoint.
        let (recovered, fell_back) = TrainCheckpoint::load_or_recover(&path).unwrap();
        cleanup(&path);
        assert!(fell_back);
        assert_eq!(recovered, previous);
    }

    #[test]
    fn bit_flip_fails_the_checksum() {
        let mut plant = hev();
        let cs = cycles();
        let (agent, _) = train_portfolio_checkpointed(config(), &mut plant, &cs, 2, None).unwrap();
        let path = tmp_path("bitflip");
        cleanup(&path);
        TrainCheckpoint::capture(2, &agent).save(&path).unwrap();

        // Flip one ASCII digit deep in the payload (keeps length and
        // UTF-8 validity, so only the checksum can catch it).
        let mut bytes = std::fs::read(&path).unwrap();
        let pos = bytes
            .iter()
            .rposition(|b| b.is_ascii_digit())
            .expect("payload has digits");
        bytes[pos] = if bytes[pos] == b'0' { b'1' } else { b'0' };
        std::fs::write(&path, &bytes).unwrap();

        match TrainCheckpoint::load(&path) {
            Err(CheckpointError::ChecksumMismatch { expected, got }) => {
                assert_ne!(expected, got);
            }
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
        cleanup(&path);
    }

    #[test]
    fn unframed_checkpoint_is_a_malformed_header() {
        let mut plant = hev();
        let cs = cycles();
        let (agent, _) = train_portfolio_checkpointed(config(), &mut plant, &cs, 2, None).unwrap();
        let ckpt = TrainCheckpoint::capture(2, &agent);
        let path = tmp_path("unframed");
        cleanup(&path);
        // A bare JSON payload, valid on its own, without the frame.
        std::fs::write(&path, serde_json::to_string(&ckpt).unwrap()).unwrap();
        let loaded = TrainCheckpoint::load(&path);
        cleanup(&path);
        assert!(
            matches!(loaded, Err(CheckpointError::MalformedHeader)),
            "expected MalformedHeader, got {loaded:?}"
        );
    }

    #[test]
    fn unframed_primary_recovers_from_the_backup() {
        let mut plant = hev();
        let cs = cycles();
        let (agent, _) = train_portfolio_checkpointed(config(), &mut plant, &cs, 2, None).unwrap();
        let path = tmp_path("unframed_primary");
        cleanup(&path);
        let previous = TrainCheckpoint::capture(1, &agent);
        previous.save(&path).unwrap();
        let latest = TrainCheckpoint::capture(2, &agent);
        latest.save(&path).unwrap();
        // Replace the primary with its payload alone, frame stripped.
        std::fs::write(&path, serde_json::to_string(&latest).unwrap()).unwrap();
        let (recovered, fell_back) = TrainCheckpoint::load_or_recover(&path).unwrap();
        cleanup(&path);
        assert!(fell_back);
        assert_eq!(recovered, previous);
    }

    #[test]
    fn resume_recovers_from_a_corrupted_checkpoint() {
        // Reference: 10 episodes straight through.
        let mut plant = hev();
        let cs = cycles();
        let (reference, _) =
            train_portfolio_checkpointed(config(), &mut plant, &cs, 10, None).unwrap();

        // Checkpoint every 3 episodes, stop after 6 (checkpoints at 3
        // and 6; the 3-episode one is the .bak), then corrupt the
        // primary. The resume must fall back to episode 3 and still
        // reach the bit-identical final state.
        let path = tmp_path("recover");
        cleanup(&path);
        let spec = CheckpointSpec::new(&path, 3);
        let mut plant2 = hev();
        let _ = train_portfolio_checkpointed(config(), &mut plant2, &cs, 6, Some(&spec)).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

        let mut plant3 = hev();
        let (resumed, tail) =
            train_portfolio_checkpointed(config(), &mut plant3, &cs, 10, Some(&spec)).unwrap();
        cleanup(&path);
        assert_eq!(tail.len(), 7, "resumed from the .bak at episode 3");
        assert_eq!(resumed.snapshot(), reference.snapshot());
    }

    #[test]
    fn unreadable_primary_and_backup_reports_the_primary_error() {
        let path = tmp_path("hopeless");
        cleanup(&path);
        std::fs::write(&path, "hevckpt v1 len=999 fnv=zzzz\n{}").unwrap();
        match TrainCheckpoint::load_or_recover(&path) {
            Err(CheckpointError::MalformedHeader) => {}
            other => panic!("expected MalformedHeader, got {other:?}"),
        }
        cleanup(&path);
    }
}
