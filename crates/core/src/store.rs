//! Content-addressed trace store.
//!
//! Recording is deterministic, so a trace is fully determined by its key:
//! the workload, the sweep fingerprint of the scale it was recorded at
//! (the same fingerprint that gates journal reuse), and the identity of
//! the build that recorded it — a digest of the running executable, so a
//! kernel edit can never replay the old kernel's stream. The store records
//! each distinct key at most once, shares the file across every caller
//! that asks for it, and survives restarts: the file is the cache.
//!
//! Two stores exist: the server's `<state>/traces`, and the process-wide
//! store of live sampled grids rooted at
//! [`crate::sampling::sample_trace_dir`].

use crate::journal::sweep_fingerprint;
use crate::sampling::SampleMode;
use crate::scale::Scale;
use memsim_workloads::WorkloadKind;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Short stable digest of an arbitrary string (FNV-1a 64), hex-encoded.
/// Keeps file names bounded however long the fingerprint grows.
pub fn digest(s: &str) -> String {
    format!("{:016x}", fnv1a(FNV_OFFSET, s.as_bytes()))
}

/// Digest of the running executable, computed once per process by
/// streaming the file through a small fixed buffer.
fn build_identity() -> Result<&'static str, String> {
    static IDENTITY: OnceLock<Result<String, String>> = OnceLock::new();
    IDENTITY
        .get_or_init(|| {
            let exe = std::env::current_exe()
                .map_err(|e| format!("cannot locate the running executable: {e}"))?;
            let hash = || -> std::io::Result<u64> {
                let mut file = std::fs::File::open(&exe)?;
                let mut buf = [0u8; 16 * 1024];
                let mut h = FNV_OFFSET;
                loop {
                    match file.read(&mut buf)? {
                        0 => return Ok(h),
                        n => h = fnv1a(h, &buf[..n]),
                    }
                }
            };
            hash()
                .map(|h| format!("{h:016x}"))
                .map_err(|e| format!("cannot read {} to key the trace store: {e}", exe.display()))
        })
        .as_deref()
        .map_err(Clone::clone)
}

/// The store: a directory of `<workload>-<digest>.trace` files plus a lock
/// so concurrent callers coalesce on one recording instead of racing.
pub struct TraceStore {
    dir: PathBuf,
    /// The build identity keys carry; `None` is the running executable's.
    build: Option<String>,
    lock: Mutex<()>,
}

impl TraceStore {
    /// Open (and create) the store rooted at `dir`.
    pub fn open(dir: &Path) -> std::io::Result<TraceStore> {
        std::fs::create_dir_all(dir)?;
        Ok(TraceStore {
            dir: dir.to_path_buf(),
            build: None,
            lock: Mutex::new(()),
        })
    }

    /// Where the trace of `kind` at `scale` lives, whether or not it
    /// exists yet. Fails when the running executable cannot be read: a
    /// key without the build identity could serve another build's trace.
    fn path(&self, kind: WorkloadKind, scale: &Scale) -> Result<PathBuf, String> {
        let build = match &self.build {
            Some(build) => build.as_str(),
            None => build_identity()?,
        };
        let fingerprint = sweep_fingerprint(scale, SampleMode::Off);
        let key = digest(&format!("{fingerprint}{build}"));
        Ok(self
            .dir
            .join(format!("{}-{key}.trace", kind.name().to_ascii_lowercase())))
    }

    /// Ensure the trace for `kind` at `scale` exists, recording it on
    /// first use, and return its path. Serialized per store, so two
    /// callers requesting the same key record it once. The recording
    /// lands by atomic rename from a pid-suffixed temp file, so a reader
    /// never observes a torn trace and racing processes at worst record
    /// twice, never corrupt.
    pub fn ensure(&self, kind: WorkloadKind, scale: &Scale) -> Result<PathBuf, String> {
        let path = self.path(kind, scale)?;
        let _guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        if path.exists() {
            return Ok(path);
        }
        let tmp = path.with_extension(format!("{}.tmp", std::process::id()));
        crate::replay::record_workload(kind, scale.class, &tmp)
            .map_err(|e| format!("recording {}: {e}", kind.name()))?;
        std::fs::rename(&tmp, &path).map_err(|e| format!("publishing trace: {e}"))?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(dir: &Path, build: &str) -> TraceStore {
        TraceStore {
            build: Some(build.to_string()),
            ..TraceStore::open(dir).unwrap()
        }
    }

    #[test]
    fn digest_is_stable_and_distinct() {
        assert_eq!(digest("abc"), digest("abc"));
        assert_ne!(digest("abc"), digest("abd"));
        assert_eq!(digest("abc").len(), 16);
    }

    #[test]
    fn key_separates_workload_and_scale() {
        let dir = std::env::temp_dir().join(format!("memsim-store-keys-{}", std::process::id()));
        let store = store(&dir, "build");
        let hash = store.path(WorkloadKind::Hash, &Scale::mini()).unwrap();
        assert_ne!(hash, store.path(WorkloadKind::Cg, &Scale::mini()).unwrap());
        assert_ne!(
            hash,
            store.path(WorkloadKind::Hash, &Scale::demo()).unwrap()
        );
        assert_eq!(
            hash,
            store.path(WorkloadKind::Hash, &Scale::mini()).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_build_identities_key_two_paths() {
        let dir = std::env::temp_dir().join(format!("memsim-store-builds-{}", std::process::id()));
        let (a, b) = (store(&dir, "build-a"), store(&dir, "build-b"));
        assert_ne!(
            a.path(WorkloadKind::Hash, &Scale::mini()).unwrap(),
            b.path(WorkloadKind::Hash, &Scale::mini()).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ensure_records_once_and_reuses() {
        let dir = std::env::temp_dir().join(format!("memsim-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // a trace planted under another build's key is never served:
        // this build records its own
        let stale = store(&dir, "old-build");
        let planted = stale.path(WorkloadKind::Hash, &Scale::mini()).unwrap();
        std::fs::write(&planted, b"not this build's trace").unwrap();

        let current = store(&dir, "new-build");
        let p1 = current.ensure(WorkloadKind::Hash, &Scale::mini()).unwrap();
        assert_ne!(p1, planted);
        assert_eq!(
            crate::runner::Source::trace(&p1).unwrap().kind(),
            WorkloadKind::Hash
        );
        let recorded = std::fs::metadata(&p1).unwrap();
        let p2 = current.ensure(WorkloadKind::Hash, &Scale::mini()).unwrap();
        assert_eq!(p1, p2);
        let again = std::fs::metadata(&p2).unwrap();
        assert_eq!(again.len(), recorded.len());
        assert_eq!(again.modified().unwrap(), recorded.modified().unwrap());
        assert_eq!(std::fs::read(&planted).unwrap(), b"not this build's trace");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
