//! `gas-chaos`: deterministic fault injection for the serving stack.
//!
//! Production failures — short writes, torn writes, transient I/O
//! errors, fsync loss, crashed or slowed ranks — are rare enough that
//! code paths handling them rot unless they can be *driven on demand*.
//! This crate makes failure an injectable, reproducible input:
//!
//! * a [`Storage`] trait abstracts the container's four I/O shapes
//!   (whole-file read, truncate-then-append-then-sync, atomic replace,
//!   plain write). [`RealFs`] is the byte-identical default;
//!   [`ChaosStorage`] wraps any storage and injects faults from a
//!   [`FaultPlan`];
//! * a [`FaultPlan`] is **seeded and wall-clock free**: the fault
//!   schedule is a pure function of `(seed, op-counter)`, so the same
//!   seed replays the same faults in the same places. One-shot faults
//!   can also be scripted at exact operation indices for targeted
//!   tests;
//! * injection is per storage, not per process: a [`ChaosStorage`]
//!   always consults its plan and [`RealFs`] never injects, so a drill
//!   turns chaos on by installing a `ChaosStorage` and heals by
//!   installing `RealFs`, and drills in one process never see each
//!   other's faults. [`FaultPlan::none`] makes a `ChaosStorage` a plain
//!   pass-through;
//! * [`RetryPolicy`] provides bounded-attempt exponential backoff with
//!   *deterministic* jitter (`splitmix64(seed, attempt)`), shared by
//!   the service layer's commit retry and anything else that backs
//!   off.
//!
//! Every injected fault bumps a `gas_chaos_*` counter in the
//! [`gas_obs`] registry, so chaos drills leave the same audit trail a
//! production incident would.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// SplitMix64 — the one PRNG the whole plan derives from. Local copy so
/// this crate stays at the bottom of the workspace DAG (no `gas-core`).
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The kinds of storage fault the plan can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A transient `ErrorKind`-style I/O error before anything touches
    /// the file: nothing is written, the caller sees `Err`. Retryable.
    IoError,
    /// The write stops short: a prefix of the payload lands on disk and
    /// the caller sees `Err`.
    ShortWrite,
    /// The write tears at an arbitrary byte offset (mid-word cuts
    /// included): a ragged prefix lands on disk and the caller sees
    /// `Err`.
    TornWrite,
    /// The write "succeeds" (`Ok`) but the sync lied: only a prefix of
    /// the payload is durable. Observable only after a crash — exactly
    /// how a power cut behind a volatile write cache behaves.
    FsyncLoss,
}

impl FaultKind {
    fn metric(self) -> &'static str {
        match self {
            FaultKind::IoError => "gas_chaos_io_error_total",
            FaultKind::ShortWrite => "gas_chaos_short_write_total",
            FaultKind::TornWrite => "gas_chaos_torn_write_total",
            FaultKind::FsyncLoss => "gas_chaos_fsync_loss_total",
        }
    }
}

/// One decided fault: the kind plus a deterministic roll that picks cut
/// offsets.
#[derive(Debug, Clone, Copy)]
pub struct Fault {
    pub kind: FaultKind,
    pub roll: u64,
}

impl Fault {
    /// A cut point in `0..=len` derived from the roll (never the full
    /// length for `len > 0`, so a "cut" write is always actually cut).
    pub fn cut(&self, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        (splitmix64(self.roll ^ 0x00C0_FFEE) % len as u64) as usize
    }
}

/// A deterministic fault schedule: a pure function of
/// `(seed, op-counter)` plus scripted one-shot overrides.
///
/// Same seed ⇒ same schedule, independent of wall-clock, thread timing
/// or machine — the determinism contract chaos tests rely on.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    /// Probability any given storage op faults, in parts per 1000.
    fault_per_mille: u16,
    /// Kinds eligible for seeded faults (scripted faults ignore this).
    kinds: Vec<FaultKind>,
    /// One-shot faults at exact op indices; they win over the seeded
    /// roll and fire exactly once.
    scripted: BTreeMap<u64, FaultKind>,
    /// Monotone op counter — every storage call consumes one index.
    ops: u64,
}

impl FaultPlan {
    /// A plan that never fires (useful as an inert default).
    pub fn none() -> Self {
        FaultPlan::seeded(0, 0)
    }

    /// A seeded plan firing on roughly `fault_per_mille`/1000 of ops,
    /// over all four fault kinds.
    pub fn seeded(seed: u64, fault_per_mille: u16) -> Self {
        FaultPlan {
            seed,
            fault_per_mille: fault_per_mille.min(1000),
            kinds: vec![
                FaultKind::IoError,
                FaultKind::ShortWrite,
                FaultKind::TornWrite,
                FaultKind::FsyncLoss,
            ],
            scripted: BTreeMap::new(),
            ops: 0,
        }
    }

    /// Restrict the seeded kinds (scripted faults are unaffected).
    pub fn with_kinds(mut self, kinds: &[FaultKind]) -> Self {
        self.kinds = kinds.to_vec();
        self
    }

    /// Script a one-shot `kind` at exact op index `op` (0-based over
    /// every storage call this plan sees).
    pub fn script(mut self, op: u64, kind: FaultKind) -> Self {
        self.scripted.insert(op, kind);
        self
    }

    /// Ops decided so far (useful to script "the next op" from a test).
    pub fn ops_seen(&self) -> u64 {
        self.ops
    }

    /// Decide the fate of the next op. Pure in `(seed, ops)`; advances
    /// the op counter.
    pub fn decide(&mut self) -> Option<Fault> {
        let op = self.ops;
        self.ops += 1;
        let roll = splitmix64(self.seed ^ op.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if let Some(kind) = self.scripted.remove(&op) {
            return Some(Fault { kind, roll });
        }
        if self.kinds.is_empty() || self.fault_per_mille == 0 {
            return None;
        }
        if roll % 1000 < self.fault_per_mille as u64 {
            let kind = self.kinds[(splitmix64(roll) % self.kinds.len() as u64) as usize];
            return Some(Fault { kind, roll });
        }
        None
    }
}

/// Bounded-attempt exponential backoff with deterministic jitter.
///
/// Delay for attempt *k* (0-based) is
/// `min(max_delay, base_delay · 2^k) · (0.5 + jitter/2)` where `jitter`
/// is `splitmix64(jitter_seed ^ k)` mapped to `[0, 1)` — the same seed
/// replays the same backoff schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). `1` disables retries.
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_delay: Duration,
    /// Backoff cap.
    pub max_delay: Duration,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(50),
            jitter_seed: 0x6A17,
        }
    }
}

impl RetryPolicy {
    /// The backoff to sleep after failed attempt `attempt` (0-based).
    pub fn delay(&self, attempt: u32) -> Duration {
        let exp = self.base_delay.saturating_mul(1u32 << attempt.min(20));
        let capped = exp.min(self.max_delay);
        let jitter =
            (splitmix64(self.jitter_seed ^ attempt as u64) >> 11) as f64 / (1u64 << 53) as f64;
        capped.mul_f64(0.5 + jitter / 2.0)
    }
}

/// The four I/O shapes the index container uses, abstracted so a chaos
/// implementation can slide underneath `gas_index`'s `IndexWriter`
/// without the caller changing.
pub trait Storage: Send + Sync + std::fmt::Debug {
    /// Read the whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// The commit append: truncate `path` to `keep` bytes, append
    /// `tail` at that offset, then sync file data. This is the v3
    /// container's crash-safety primitive — the manifest rides last in
    /// `tail`, so any prefix of it on disk is a torn tail the reader
    /// falls back from.
    fn append_tail(&self, path: &Path, keep: u64, tail: &[u8]) -> io::Result<()>;

    /// Atomic whole-file replace: write a temp sibling, fsync it,
    /// rename over `path`, sync the parent directory. Either the old or
    /// the new content is fully visible — never a mix.
    fn replace(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Plain whole-file write, no atomicity guarantee. The container
    /// never commits through it; chaos storage uses it for the torn temp
    /// files a faulted `replace` leaves behind.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
}

/// Best-effort fsync of a path's parent directory, so a rename is
/// durable across a crash (no-op where unsupported).
pub fn sync_parent_dir(path: &Path) {
    #[cfg(unix)]
    if let Some(parent) = path.parent() {
        if let Ok(dir) = std::fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    #[cfg(not(unix))]
    let _ = path;
}

/// The real filesystem: exactly the I/O the container performed before
/// the trait existed, byte for byte.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealFs;

impl Storage for RealFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn append_tail(&self, path: &Path, keep: u64, tail: &[u8]) -> io::Result<()> {
        use std::io::{Seek, SeekFrom};
        let mut file = std::fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(keep)?;
        file.seek(SeekFrom::Start(keep))?;
        file.write_all(tail)?;
        file.sync_data()
    }

    fn replace(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut tmp_name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
        tmp_name.push(".tmp");
        let tmp = path.with_file_name(tmp_name);
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(bytes)?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        sync_parent_dir(path);
        Ok(())
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }
}

/// A storage wrapper that injects the wrapped [`FaultPlan`]'s faults
/// into every call: each call consumes one op of the plan.
#[derive(Debug)]
pub struct ChaosStorage {
    inner: Arc<dyn Storage>,
    plan: Mutex<FaultPlan>,
}

impl ChaosStorage {
    /// Wrap `inner` with `plan`.
    pub fn new(inner: Arc<dyn Storage>, plan: FaultPlan) -> Self {
        ChaosStorage { inner, plan: Mutex::new(plan) }
    }

    /// Chaos over the real filesystem — the common drill setup.
    pub fn over_fs(plan: FaultPlan) -> Self {
        ChaosStorage::new(Arc::new(RealFs), plan)
    }

    /// Ops decided so far by the current plan.
    pub fn ops_seen(&self) -> u64 {
        self.plan.lock().expect("chaos plan lock poisoned").ops_seen()
    }

    fn next_fault(&self) -> Option<Fault> {
        let fault = self.plan.lock().expect("chaos plan lock poisoned").decide();
        if let Some(f) = fault {
            gas_obs::counter("gas_chaos_injected_total").inc();
            gas_obs::counter(f.kind.metric()).inc();
        }
        fault
    }
}

/// A transient error whose `ErrorKind` is itself derived from the roll,
/// so retries see the variety real storage produces.
fn transient_error(roll: u64) -> io::Error {
    let kind = match splitmix64(roll ^ 0x10) % 3 {
        0 => io::ErrorKind::Interrupted,
        1 => io::ErrorKind::TimedOut,
        _ => io::ErrorKind::Other,
    };
    io::Error::new(kind, "injected transient I/O error")
}

impl Storage for ChaosStorage {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        // Reads fault transiently only: there is nothing torn to leave
        // behind, the bytes on disk are untouched.
        if let Some(f) = self.next_fault() {
            if f.kind == FaultKind::IoError {
                return Err(transient_error(f.roll));
            }
        }
        self.inner.read(path)
    }

    fn append_tail(&self, path: &Path, keep: u64, tail: &[u8]) -> io::Result<()> {
        let Some(f) = self.next_fault() else {
            return self.inner.append_tail(path, keep, tail);
        };
        match f.kind {
            FaultKind::IoError => Err(transient_error(f.roll)),
            FaultKind::ShortWrite => {
                // An honest short write: a prefix lands, the caller is
                // told. Cut on the payload length.
                let cut = f.cut(tail.len());
                self.inner.append_tail(path, keep, &tail[..cut])?;
                Err(io::Error::new(io::ErrorKind::WriteZero, "injected short write"))
            }
            FaultKind::TornWrite => {
                // A torn write: ragged prefix (any byte offset, mid-word
                // included), then failure.
                let cut = f.cut(tail.len());
                self.inner.append_tail(path, keep, &tail[..cut])?;
                Err(io::Error::other("injected torn write"))
            }
            FaultKind::FsyncLoss => {
                // The lying sync: the call reports success but only a
                // prefix is durable. Modeled by appending the prefix and
                // returning Ok — the caller's in-memory offsets run
                // ahead of the file, exactly as after a power cut.
                let cut = f.cut(tail.len());
                self.inner.append_tail(path, keep, &tail[..cut])?;
                Ok(())
            }
        }
    }

    fn replace(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let Some(f) = self.next_fault() else {
            return self.inner.replace(path, bytes);
        };
        match f.kind {
            FaultKind::IoError => Err(transient_error(f.roll)),
            // A replace that dies before the rename — torn or short temp
            // file, original untouched. The temp write goes to a decoy
            // sibling so even a ragged prefix never shadows the real
            // temp path of a later successful replace.
            FaultKind::ShortWrite | FaultKind::TornWrite => {
                let cut = f.cut(bytes.len());
                let mut decoy_name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
                decoy_name.push(".chaos-torn");
                let decoy = path.with_file_name(decoy_name);
                let _ = self.inner.write(&decoy, &bytes[..cut]);
                Err(io::Error::other("injected crash before rename"))
            }
            // For an atomic replace a lying sync downgrades to a failed
            // rename: the new bytes are gone, the original is intact.
            FaultKind::FsyncLoss => Err(io::Error::other("injected rename failure")),
        }
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let Some(f) = self.next_fault() else {
            return self.inner.write(path, bytes);
        };
        match f.kind {
            FaultKind::IoError => Err(transient_error(f.roll)),
            _ => {
                let cut = f.cut(bytes.len());
                self.inner.write(path, &bytes[..cut])?;
                Err(io::Error::new(io::ErrorKind::WriteZero, "injected short write"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unique_path(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("gas_chaos_{tag}_{}_{n}.bin", std::process::id()))
    }

    #[test]
    fn same_seed_same_schedule() {
        let mut a = FaultPlan::seeded(42, 400);
        let mut b = FaultPlan::seeded(42, 400);
        for _ in 0..256 {
            let (fa, fb) = (a.decide(), b.decide());
            match (fa, fb) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    assert_eq!(x.kind, y.kind);
                    assert_eq!(x.roll, y.roll);
                }
                _ => panic!("schedules diverged"),
            }
        }
        let mut c = FaultPlan::seeded(42, 400);
        let mut d = FaultPlan::seeded(43, 400);
        let differs = (0..256).any(|_| c.decide().map(|f| f.roll) != d.decide().map(|f| f.roll));
        assert!(differs, "different seeds should produce different schedules");
    }

    #[test]
    fn scripted_faults_fire_exactly_once_at_their_index() {
        let mut plan = FaultPlan::seeded(7, 0).script(2, FaultKind::TornWrite);
        assert!(plan.decide().is_none());
        assert!(plan.decide().is_none());
        let f = plan.decide().expect("scripted op fires");
        assert_eq!(f.kind, FaultKind::TornWrite);
        assert!(plan.decide().is_none());
    }

    #[test]
    fn an_inert_plan_is_a_pass_through() {
        let path = unique_path("pass");
        let chaos = ChaosStorage::over_fs(FaultPlan::none());
        chaos.write(&path, b"hello").unwrap();
        assert_eq!(chaos.read(&path).unwrap(), b"hello");
        // Every call consulted the plan, and none faulted.
        assert_eq!(chaos.ops_seen(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_append_leaves_a_prefix_and_reports_failure() {
        let path = unique_path("torn");
        let chaos = ChaosStorage::over_fs(FaultPlan::seeded(9, 0).script(1, FaultKind::TornWrite));
        chaos.write(&path, b"base").unwrap();
        let err = chaos.append_tail(&path, 4, b"0123456789").unwrap_err();
        assert!(err.to_string().contains("torn"));
        let on_disk = std::fs::read(&path).unwrap();
        assert!(on_disk.len() < 14, "torn write must not land fully");
        assert!(on_disk.starts_with(b"base"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_replace_keeps_the_original_intact() {
        let path = unique_path("replace");
        std::fs::write(&path, b"live generation").unwrap();
        for kind in [FaultKind::IoError, FaultKind::TornWrite, FaultKind::FsyncLoss] {
            let chaos = ChaosStorage::over_fs(FaultPlan::seeded(3, 0).script(0, kind));
            chaos.replace(&path, b"replacement").unwrap_err();
            assert_eq!(std::fs::read(&path).unwrap(), b"live generation", "{kind:?}");
        }
        std::fs::remove_file(&path).unwrap();
        let _ =
            std::fs::remove_file(path.with_file_name(format!(
                "{}.chaos-torn",
                path.file_name().unwrap().to_string_lossy()
            )));
    }

    #[test]
    fn fsync_loss_reports_success_but_loses_the_tail() {
        let path = unique_path("fsync");
        let chaos = ChaosStorage::over_fs(FaultPlan::seeded(5, 0).script(1, FaultKind::FsyncLoss));
        chaos.write(&path, b"base").unwrap();
        chaos.append_tail(&path, 4, b"0123456789").unwrap();
        let on_disk = std::fs::read(&path).unwrap();
        assert!(on_disk.len() < 14, "the lying sync must have dropped bytes");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn retry_backoff_is_deterministic_bounded_and_monotone_in_cap() {
        let policy = RetryPolicy::default();
        for attempt in 0..8 {
            let d1 = policy.delay(attempt);
            let d2 = policy.delay(attempt);
            assert_eq!(d1, d2, "jitter must be deterministic");
            assert!(d1 <= policy.max_delay, "delay exceeds cap at attempt {attempt}");
            assert!(d1 >= policy.base_delay / 2u32.pow(1), "delay under half the base");
        }
    }
}
