//! Concurrent-writer safety: `O_EXCL` lockfile claims, stale-claim
//! stealing, and atomic publishes.

use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

/// Distinguishes concurrent [`atomic_write`] temp files within one process.
static WRITE_NONCE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Writes `bytes` to `path` atomically: a temp file in the same directory
/// (so the rename cannot cross filesystems) is written first, then renamed
/// over the destination. Readers never observe a partial file; concurrent
/// writers of identical content race harmlessly.
///
/// Every call writes its own temp file, named by pid, thread id and a
/// process-wide counter, so concurrent writers — other processes or other
/// threads of this one — never share (and never rename away) each other's
/// temp file.
///
/// Parent directories are created as needed.
///
/// # Errors
///
/// The underlying I/O error if any step fails (the temp file is removed on
/// a failed rename).
pub fn atomic_write(path: impl AsRef<Path>, bytes: &[u8]) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let file_name = path
        .file_name()
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("{}: not a file path", path.display()),
            )
        })?
        .to_string_lossy();
    let nonce = WRITE_NONCE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let thread = format!("{:?}", std::thread::current().id());
    let thread: String = thread.chars().filter(char::is_ascii_digit).collect();
    let tmp = path.with_file_name(format!(
        ".{file_name}.tmp.{}.{thread}.{nonce:x}",
        std::process::id()
    ));
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// An exclusive claim on a named unit of work, backed by an `O_EXCL`
/// lockfile. Exactly one of any number of racing claimants wins; the claim
/// is released (the file removed) when the guard drops, so a finished —
/// or panicked-but-unwound — worker frees the name for the next claimant.
///
/// A claimant that dies without unwinding (SIGKILL, power loss) leaves the
/// lockfile behind; [`LockFile::acquire`] reports the holder recorded in
/// the file so an operator can decide whether the claim is stale, and
/// [`LockFile::acquire_or_steal`] automates that decision: a claim whose
/// lockfile mtime is older than a caller-chosen deadline is reaped and
/// re-claimed, with exactly one of any number of racing stealers winning.
///
/// # Example
///
/// ```
/// use dsmt_store::LockFile;
/// let dir = std::env::temp_dir().join(format!("lock-doc-{}", std::process::id()));
/// # let _ = std::fs::remove_dir_all(&dir);
/// let claim = LockFile::acquire(&dir, "shard-0").unwrap().expect("free");
/// // A second claimant loses while the guard lives...
/// assert!(LockFile::acquire(&dir, "shard-0").unwrap().is_none());
/// drop(claim);
/// // ...and wins after it drops.
/// assert!(LockFile::acquire(&dir, "shard-0").unwrap().is_some());
/// # let _ = std::fs::remove_dir_all(&dir);
/// ```
#[derive(Debug)]
pub struct LockFile {
    path: PathBuf,
    /// The `token <hex>` line this guard wrote into its lockfile. Release
    /// re-reads the file and only unlinks when the token still matches:
    /// a guard whose claim was *stolen* (its lockfile reaped and the name
    /// re-claimed by someone else) must not delete the new holder's live
    /// lockfile.
    token_line: String,
}

/// What an existing claim looks like from the outside: the holder record
/// written into the lockfile and the lockfile's age (mtime distance), the
/// two inputs of every staleness decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClaimInfo {
    /// The holder record (`pid <n>` as written by [`LockFile::acquire`],
    /// or `unknown holder` when the file was empty or unreadable).
    pub holder: String,
    /// Seconds since the lockfile was last modified, when measurable.
    pub age: Option<Duration>,
}

impl ClaimInfo {
    /// Renders `holder (heartbeat <age>s ago)` for reports and log lines.
    ///
    /// The lockfile's mtime doubles as the holder's heartbeat: acquisition
    /// writes the file (first beat) and a live holder re-touches it via
    /// [`LockFile::spawn_heartbeat`], so the age printed here is the time
    /// since the holder last proved it was alive.
    #[must_use]
    pub fn describe(&self) -> String {
        match self.age {
            Some(age) => format!("{} (heartbeat {}s ago)", self.holder, age.as_secs()),
            None => self.holder.clone(),
        }
    }
}

/// The outcome of [`LockFile::acquire_or_steal`].
#[derive(Debug)]
pub enum Claim {
    /// The name was free; the claim is ours.
    Acquired(LockFile),
    /// A stale claim was reaped and the name re-claimed; `previous` is the
    /// holder record of the dead claimant, for the caller's report.
    Stolen {
        /// The freshly acquired claim.
        lock: LockFile,
        /// Holder record of the reaped lockfile.
        previous: String,
    },
    /// Another claimant holds the name (and is younger than the steal
    /// deadline, or no deadline was given).
    Held(Option<ClaimInfo>),
}

impl Claim {
    /// The guard, if this attempt ended up holding the claim.
    #[must_use]
    pub fn lock(&self) -> Option<&LockFile> {
        match self {
            Claim::Acquired(lock) | Claim::Stolen { lock, .. } => Some(lock),
            Claim::Held(_) => None,
        }
    }
}

/// Distinguishes concurrent claims and steal tombstones within one
/// process (across processes the pid does).
static LOCK_NONCE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// A token unique across processes and across acquires within a process:
/// pid, a per-process counter, and a wall-clock component (guards pid
/// reuse after reboots/exits).
fn fresh_token() -> String {
    let nonce = LOCK_NONCE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let nanos = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    format!("{:x}-{nonce:x}-{nanos:x}", std::process::id())
}

impl LockFile {
    /// Tries to claim `name` under `dir` (created if needed). Returns
    /// `Ok(Some(guard))` on success and `Ok(None)` when another claimant
    /// already holds the name.
    ///
    /// # Errors
    ///
    /// Any I/O error other than the lock already existing.
    pub fn acquire(dir: impl AsRef<Path>, name: &str) -> std::io::Result<Option<LockFile>> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.lock"));
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(file) => {
                // Best-effort holder record: line 1 identifies the holder
                // for diagnostics, line 2 carries the ownership token the
                // release check verifies.
                use std::io::Write;
                let mut file = file;
                let token_line = format!("token {}", fresh_token());
                let _ = writeln!(file, "pid {}", std::process::id());
                let _ = writeln!(file, "{token_line}");
                dsmt_obs::counter!("store.locks_acquired").inc();
                Ok(Some(LockFile { path, token_line }))
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// The lockfile's path (for diagnostics).
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The recorded holder of an existing lock on `name`, if any — for
    /// "who has this claim?" diagnostics when [`LockFile::acquire`]
    /// returns `None`. Only the holder line is returned; the ownership
    /// token stays an implementation detail.
    #[must_use]
    pub fn holder(dir: impl AsRef<Path>, name: &str) -> Option<String> {
        let path = dir.as_ref().join(format!("{name}.lock"));
        std::fs::read_to_string(path)
            .ok()
            .map(|s| s.lines().next().unwrap_or("").trim().to_string())
    }

    /// Holder record and age of an existing claim on `name`, if any — the
    /// inputs to a staleness decision, and what `dsmt shard status` prints
    /// for claimed shards.
    #[must_use]
    pub fn inspect(dir: impl AsRef<Path>, name: &str) -> Option<ClaimInfo> {
        let path = dir.as_ref().join(format!("{name}.lock"));
        let holder = std::fs::read_to_string(&path)
            .ok()?
            .lines()
            .next()
            .unwrap_or("")
            .trim()
            .to_string();
        let holder = if holder.is_empty() {
            "unknown holder".to_string()
        } else {
            holder
        };
        let age = std::fs::metadata(&path)
            .ok()
            .and_then(|m| m.modified().ok())
            .and_then(|t| SystemTime::now().duration_since(t).ok());
        Some(ClaimInfo { holder, age })
    }

    /// Like [`LockFile::acquire`], but with self-healing: when the name is
    /// held by a lockfile whose mtime is at least `steal_after` old, the
    /// claim is presumed dead (its holder exited without unwinding — the
    /// `Drop` release never ran) and is **stolen**: the stale file is
    /// atomically renamed aside, so exactly one of any number of racing
    /// stealers reaps it, and the name is then re-claimed under the normal
    /// `O_EXCL` rules.
    ///
    /// With `steal_after = None` this never steals and is equivalent to
    /// [`LockFile::acquire`] plus a [`ClaimInfo`] on the held path.
    ///
    /// Pick a deadline comfortably longer than the longest legitimate hold
    /// of the claim: a claim is "stale" purely by lockfile age, so a
    /// deadline shorter than honest work invites double execution. As a
    /// belt-and-braces guard against the tiny stat-to-rename race, a
    /// reaped file whose mtime turns out to be fresh is put back (or
    /// dropped if the name was re-claimed meanwhile) and the attempt
    /// reports [`Claim::Held`].
    ///
    /// # Errors
    ///
    /// Any I/O error other than the expected already-exists /
    /// already-reaped races.
    pub fn acquire_or_steal(
        dir: impl AsRef<Path>,
        name: &str,
        steal_after: Option<Duration>,
    ) -> std::io::Result<Claim> {
        let dir = dir.as_ref();
        if let Some(lock) = Self::acquire(dir, name)? {
            return Ok(Claim::Acquired(lock));
        }
        let Some(deadline) = steal_after else {
            return Ok(Claim::Held(Self::inspect(dir, name)));
        };
        let path = dir.join(format!("{name}.lock"));
        let age = match std::fs::metadata(&path) {
            Ok(meta) => meta
                .modified()
                .ok()
                .and_then(|t| SystemTime::now().duration_since(t).ok()),
            // Released between the acquire and the stat: race for it again.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(match Self::acquire(dir, name)? {
                    Some(lock) => Claim::Acquired(lock),
                    None => Claim::Held(Self::inspect(dir, name)),
                });
            }
            Err(e) => return Err(e),
        };
        if age.is_none_or(|age| age < deadline) {
            return Ok(Claim::Held(Self::inspect(dir, name)));
        }
        let previous = Self::inspect(dir, name)
            .map(|i| i.describe())
            .unwrap_or_else(|| "unknown holder".to_string());
        // Reap via rename: of N racing stealers, exactly one moves the
        // stale file aside; the rest see NotFound and fall through to the
        // plain O_EXCL race below.
        let nonce = LOCK_NONCE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tomb = dir.join(format!(
            ".{name}.lock.stale.{}.{nonce:x}",
            std::process::id()
        ));
        match std::fs::rename(&path, &tomb) {
            Ok(()) => {
                // Re-verify: if the reaped file's mtime is fresh, a new
                // claimant slipped in between the stat and the rename and
                // we yanked a *live* claim. Put it back via hard_link
                // (atomic create-if-absent; a plain rename could clobber
                // an even newer claim) and report the name as held.
                let fresh = std::fs::metadata(&tomb)
                    .ok()
                    .and_then(|m| m.modified().ok())
                    .and_then(|t| SystemTime::now().duration_since(t).ok())
                    .is_none_or(|age| age < deadline);
                if fresh {
                    let _ = std::fs::hard_link(&tomb, &path);
                    let _ = std::fs::remove_file(&tomb);
                    return Ok(Claim::Held(Self::inspect(dir, name)));
                }
                let _ = std::fs::remove_file(&tomb);
            }
            // Another stealer reaped it first; the name may be free now.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        Ok(match Self::acquire(dir, name)? {
            Some(lock) => {
                dsmt_obs::counter!("store.locks_stolen").inc();
                Claim::Stolen { lock, previous }
            }
            None => Claim::Held(Self::inspect(dir, name)),
        })
    }

    /// Backdates the lockfile of an existing claim on `name` so that an
    /// [`LockFile::acquire_or_steal`] with a deadline of `age` or less will
    /// treat it as stale. Test-support only: simulating a worker that died
    /// holding a claim without actually killing a process.
    #[doc(hidden)]
    pub fn backdate_for_tests(dir: impl AsRef<Path>, name: &str, age: Duration) {
        let path = dir.as_ref().join(format!("{name}.lock"));
        if let Ok(f) = std::fs::OpenOptions::new().write(true).open(&path) {
            let _ = f.set_modified(SystemTime::now() - age);
        }
    }

    /// Starts a background thread that re-touches this claim's lockfile
    /// mtime every `interval`, proving the holder alive, so fleets can run
    /// short [`LockFile::acquire_or_steal`] deadlines regardless of how
    /// long honest work on the claim takes.
    ///
    /// The beat thread blocks for exactly `interval` between touches, on a
    /// channel the returned [`Heartbeat`] guard owns: dropping the guard
    /// (drop it *before* releasing the claim) disconnects the channel and
    /// the thread exits at once, mid-interval. The beat also stops on its
    /// own when the lockfile no longer carries this guard's ownership
    /// token, so a holder whose claim was stolen can never freshen the
    /// thief's lockfile.
    #[must_use]
    pub fn spawn_heartbeat(&self, interval: Duration) -> Heartbeat {
        let (stop, stopped) = std::sync::mpsc::channel::<()>();
        let beats = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let path = self.path.clone();
        let token_line = self.token_line.clone();
        let handle = {
            let beats = std::sync::Arc::clone(&beats);
            std::thread::spawn(move || {
                // Nothing is ever sent: the wait ends by timeout (time to
                // beat) or by disconnection (the guard dropped).
                while let Err(std::sync::mpsc::RecvTimeoutError::Timeout) =
                    stopped.recv_timeout(interval)
                {
                    // Ownership check: only freshen a lockfile that still
                    // carries our token. Anything else means the claim was
                    // stolen or released under us — stop beating.
                    let ours = std::fs::read_to_string(&path)
                        .is_ok_and(|s| s.lines().any(|line| line.trim() == token_line));
                    if !ours {
                        dsmt_obs::warn!(
                            "store.heartbeat_lost_claim",
                            lock = path.display().to_string()
                        );
                        return;
                    }
                    if let Ok(f) = std::fs::OpenOptions::new().write(true).open(&path) {
                        let _ = f.set_modified(SystemTime::now());
                        beats.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        dsmt_obs::counter!("store.heartbeats").inc();
                    }
                }
            })
        };
        Heartbeat {
            stop: Some(stop),
            beats,
            handle: Some(handle),
        }
    }
}

/// A running claim heartbeat (see [`LockFile::spawn_heartbeat`]). Dropping
/// it wakes the beat thread out of its interval wait and joins it, so the
/// drop returns as soon as any in-progress touch finishes.
#[derive(Debug)]
pub struct Heartbeat {
    /// Never sent on; dropping it disconnects the beat thread's wait.
    stop: Option<std::sync::mpsc::Sender<()>>,
    beats: std::sync::Arc<std::sync::atomic::AtomicU64>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Heartbeat {
    /// Number of mtime touches performed so far.
    #[must_use]
    pub fn beats(&self) -> u64 {
        self.beats.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        drop(self.stop.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for LockFile {
    fn drop(&mut self) {
        // Release only what we still own: after a steal, the displaced
        // holder's guard points at a path now occupied by the stealer's
        // lockfile, and unlinking it would silently collapse the mutual
        // exclusion for every later claimant. The token check shrinks
        // that hazard from "the rest of the displaced worker's runtime"
        // to the microseconds between read and unlink.
        let ours = std::fs::read_to_string(&self.path)
            .is_ok_and(|s| s.lines().any(|line| line.trim() == self.token_line));
        if ours {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dsmt-lock-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn atomic_write_replaces_and_creates_parents() {
        let dir = temp_dir("aw");
        let path = dir.join("nested/out.bin");
        atomic_write(&path, b"first").expect("write");
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second").expect("overwrite");
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        // No temp litter left behind.
        let entries: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(Result::ok)
            .collect();
        assert_eq!(entries.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn threads_racing_atomic_writes_to_one_path_all_succeed() {
        let dir = temp_dir("aw-race");
        let path = dir.join("contended.bin");
        let barrier = std::sync::Barrier::new(16);
        std::thread::scope(|s| {
            for t in 0..16u8 {
                let (path, barrier) = (&path, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    for i in 0..100u8 {
                        atomic_write(path, &[t, i]).expect("racing write");
                    }
                });
            }
        });
        // Whichever write landed last is whole, and no temp file is left.
        assert_eq!(std::fs::read(&path).unwrap().len(), 2);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_claim_loses_until_release() {
        let dir = temp_dir("claim");
        let first = LockFile::acquire(&dir, "shard-0")
            .expect("io")
            .expect("claim");
        assert!(LockFile::acquire(&dir, "shard-0").expect("io").is_none());
        // A different name is independent.
        assert!(LockFile::acquire(&dir, "shard-1").expect("io").is_some());
        let holder = LockFile::holder(&dir, "shard-0").expect("holder recorded");
        assert!(holder.contains(&std::process::id().to_string()));
        drop(first);
        assert!(LockFile::acquire(&dir, "shard-0").expect("io").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_holder_claims_are_stolen_after_the_deadline() {
        let dir = temp_dir("steal");
        // Simulate a worker that died without unwinding: take the claim and
        // leak the guard, so the Drop release never runs.
        let dead = LockFile::acquire(&dir, "shard-3").unwrap().expect("claim");
        std::mem::forget(dead);
        LockFile::backdate_for_tests(&dir, "shard-3", Duration::from_secs(3600));

        // Under the deadline the claim still reads as held...
        match LockFile::acquire_or_steal(&dir, "shard-3", Some(Duration::from_secs(7200))).unwrap()
        {
            Claim::Held(Some(info)) => {
                assert!(info.holder.contains(&std::process::id().to_string()));
                assert!(info.age.expect("age measurable") >= Duration::from_secs(3600));
                assert!(
                    info.describe().contains("heartbeat") && info.describe().contains("s ago"),
                    "{}",
                    info.describe()
                );
            }
            other => panic!("expected Held, got {other:?}"),
        }
        // ...past the deadline it is reaped, naming the dead holder.
        match LockFile::acquire_or_steal(&dir, "shard-3", Some(Duration::from_secs(60))).unwrap() {
            Claim::Stolen { lock, previous } => {
                assert!(previous.contains(&std::process::id().to_string()));
                drop(lock);
            }
            other => panic!("expected Stolen, got {other:?}"),
        }
        // The steal released cleanly: the name is free again.
        assert!(LockFile::acquire(&dir, "shard-3").unwrap().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_claims_are_never_stolen_early() {
        let dir = temp_dir("no-early-steal");
        let live = LockFile::acquire(&dir, "busy").unwrap().expect("claim");
        // A live (fresh-mtime) claim survives both a no-deadline attempt
        // and one with a deadline it has not reached.
        for steal_after in [None, Some(Duration::from_secs(60))] {
            match LockFile::acquire_or_steal(&dir, "busy", steal_after).unwrap() {
                Claim::Held(Some(info)) => {
                    assert!(info.holder.contains(&std::process::id().to_string()));
                }
                other => panic!("expected Held under {steal_after:?}, got {other:?}"),
            }
        }
        drop(live);
        // Once released, the same call acquires normally (no steal).
        match LockFile::acquire_or_steal(&dir, "busy", Some(Duration::from_secs(60))).unwrap() {
            Claim::Acquired(_) => {}
            other => panic!("expected Acquired, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_displaced_holders_release_cannot_delete_the_stealers_lock() {
        let dir = temp_dir("displaced");
        // A slow (but alive) worker whose claim outlives the deadline —
        // the operator picked a steal_after shorter than the shard's
        // honest runtime.
        let slow = LockFile::acquire(&dir, "shard-9").unwrap().expect("claim");
        LockFile::backdate_for_tests(&dir, "shard-9", Duration::from_secs(3600));
        let stolen =
            match LockFile::acquire_or_steal(&dir, "shard-9", Some(Duration::from_secs(60)))
                .unwrap()
            {
                Claim::Stolen { lock, .. } => lock,
                other => panic!("expected Stolen, got {other:?}"),
            };
        // The displaced worker finishes and releases: the token check must
        // leave the stealer's live lockfile alone...
        drop(slow);
        assert!(stolen.path().exists(), "stealer's lockfile survives");
        // ...so a third claimant still loses while the stealer works.
        assert!(LockFile::acquire(&dir, "shard-9").unwrap().is_none());
        // The stealer's own release does remove it.
        drop(stolen);
        assert!(LockFile::acquire(&dir, "shard-9").unwrap().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eight_racing_stealers_exactly_one_wins() {
        let dir = temp_dir("steal-race");
        let dead = LockFile::acquire(&dir, "contended")
            .unwrap()
            .expect("claim");
        std::mem::forget(dead);
        LockFile::backdate_for_tests(&dir, "contended", Duration::from_secs(3600));

        let barrier = std::sync::Barrier::new(8);
        // Every thread returns its Claim so no guard is released until all
        // attempts finished — a loser can never find the name freed by a
        // fast winner, only held or stale.
        let claims: Vec<Claim> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        LockFile::acquire_or_steal(&dir, "contended", Some(Duration::from_secs(60)))
                            .expect("io")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let wins = claims.iter().filter(|c| c.lock().is_some()).count();
        assert_eq!(wins, 1, "exactly one of 8 racing stealers may win");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn heartbeat_keeps_a_claim_looking_fresh() {
        let dir = temp_dir("heartbeat");
        let claim = LockFile::acquire(&dir, "beating").unwrap().expect("claim");
        // Make the claim look long-dead, then let the heartbeat revive it.
        LockFile::backdate_for_tests(&dir, "beating", Duration::from_secs(3600));
        let hb = claim.spawn_heartbeat(Duration::from_millis(50));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while hb.beats() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(hb.beats() > 0, "heartbeat never fired");
        let info = LockFile::inspect(&dir, "beating").expect("claim inspectable");
        assert!(
            info.age.expect("age measurable") < Duration::from_secs(3600),
            "heartbeat did not refresh the mtime: {info:?}"
        );
        // A freshly-beating claim is never stolen, even under a deadline
        // far shorter than the claim's total age.
        match LockFile::acquire_or_steal(&dir, "beating", Some(Duration::from_secs(60))).unwrap() {
            Claim::Held(_) => {}
            other => panic!("expected Held while beating, got {other:?}"),
        }
        drop(hb);
        drop(claim);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropping_a_heartbeat_returns_without_waiting_out_its_interval() {
        let dir = temp_dir("heartbeat-stop");
        let claim = LockFile::acquire(&dir, "idle").unwrap().expect("claim");
        let hb = claim.spawn_heartbeat(Duration::from_secs(30));
        let started = std::time::Instant::now();
        drop(hb);
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "heartbeat drop took {:?}",
            started.elapsed()
        );
        drop(claim);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn heartbeat_stops_touching_after_its_claim_is_stolen() {
        let dir = temp_dir("heartbeat-stolen");
        let claim = LockFile::acquire(&dir, "victim").unwrap().expect("claim");
        let hb = claim.spawn_heartbeat(Duration::from_millis(50));
        // Steal the claim out from under the beating holder.
        LockFile::backdate_for_tests(&dir, "victim", Duration::from_secs(3600));
        let stolen = match LockFile::acquire_or_steal(&dir, "victim", Some(Duration::from_secs(60)))
            .unwrap()
        {
            Claim::Stolen { lock, .. } => lock,
            other => panic!("expected Stolen, got {other:?}"),
        };
        // The old heartbeat must see the foreign token and stop: the
        // thief's lockfile mtime stays where the thief put it. Give the
        // beat thread a few intervals to notice, then verify the beat
        // count stays flat.
        std::thread::sleep(Duration::from_millis(200));
        let beats_then = hb.beats();
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(
            hb.beats(),
            beats_then,
            "displaced holder's heartbeat kept beating on the thief's lockfile"
        );
        drop(hb);
        drop(claim);
        assert!(stolen.path().exists(), "thief's lockfile survives");
        drop(stolen);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn racing_threads_get_exactly_one_claim() {
        let dir = temp_dir("race");
        std::fs::create_dir_all(&dir).unwrap();
        let barrier = std::sync::Barrier::new(8);
        let wins: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        LockFile::acquire(&dir, "contended")
                            .expect("io")
                            .map(|guard| {
                                // Hold the claim across the race window.
                                std::thread::sleep(std::time::Duration::from_millis(20));
                                drop(guard);
                            })
                            .is_some() as usize
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(wins, 1, "exactly one of 8 racing claimants may win");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
