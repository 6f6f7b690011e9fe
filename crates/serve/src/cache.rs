//! Content-addressed result cache.
//!
//! A completed study is stored under the key `(corpus hash, config
//! hash, code version)` — the session's [`fingerprint`] plus a hash of
//! the crate version and the cache format revision. Because every
//! simulator in the workspace is deterministic in exactly those inputs,
//! a key hit can replay the stored report and JSON sidecar **bytes**
//! verbatim: the response is bit-identical to re-running the study,
//! minus the hours. Any output-affecting change must move one of the
//! three components — specs move the first two; code changes are
//! covered by the crate version plus [`CACHE_FORMAT`], which MUST be
//! bumped whenever simulator output changes within a version (the
//! std-only stand-in for baking a VCS hash into the build).
//!
//! Entries live in memory and, when a cache directory is configured,
//! as one JSON file per key — so a restarted daemon warms up from disk.
//!
//! [`fingerprint`]: masim_core::session::Session::fingerprint

use crate::protocol::ServeError;
use masim_obs::json::{parse, Value};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Bump on any change to simulator output or to this file format: it
/// feeds the code-version hash, so old entries stop matching.
pub const CACHE_FORMAT: u64 = 4;

/// The three-part content address of one study result.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// FNV-1a over the selected corpus entries' canonical encodings.
    pub corpus: u64,
    /// FNV-1a over the study config's canonical encoding.
    pub config: u64,
    /// Hash of crate version + [`CACHE_FORMAT`].
    pub code: u64,
}

impl CacheKey {
    /// Build a key from a session fingerprint; the code component is
    /// derived from the build.
    pub fn new(corpus: u64, config: u64) -> CacheKey {
        CacheKey { corpus, config, code: code_version() }
    }

    /// Stable hex id (also the on-disk file stem).
    pub fn id(&self) -> String {
        format!("{:016x}-{:016x}-{:016x}", self.corpus, self.config, self.code)
    }
}

/// Hash of the compiled crate version and cache format revision.
pub fn code_version() -> u64 {
    // FNV-1a, matching the session fingerprint hash.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in env!("CARGO_PKG_VERSION").bytes().chain(CACHE_FORMAT.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// One stored sidecar: the exact JSON bytes the run produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CachedSidecar {
    /// File stem + tool (`table2_CMC16_packet`).
    pub name: String,
    /// The sidecar's JSON body, byte-exact.
    pub json: String,
}

/// A completed study's replayable response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CachedStudy {
    /// Conventional report file name (`table2.txt` / `study.csv`).
    pub report_name: String,
    /// The rendered report, byte-exact.
    pub report: String,
    /// Every sidecar, in emit (corpus) order.
    pub sidecars: Vec<CachedSidecar>,
    /// Wall-clock the original run took, for "saved time" accounting.
    pub wall_ns: u64,
    /// How many entries the original run executed.
    pub entries: u64,
}

impl CachedStudy {
    /// Encode for the on-disk store.
    pub fn to_value(&self, key: &CacheKey) -> Value {
        Value::Obj(vec![
            ("masim_cache".into(), Value::UInt(CACHE_FORMAT)),
            ("key".into(), Value::Str(key.id())),
            ("report_name".into(), Value::Str(self.report_name.clone())),
            ("report".into(), Value::Str(self.report.clone())),
            ("wall_ns".into(), Value::UInt(self.wall_ns)),
            ("entries".into(), Value::UInt(self.entries)),
            (
                "sidecars".into(),
                Value::Arr(
                    self.sidecars
                        .iter()
                        .map(|s| {
                            Value::Obj(vec![
                                ("name".into(), Value::Str(s.name.clone())),
                                ("json".into(), Value::Str(s.json.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Decode the on-disk store; structural faults are typed errors so
    /// a corrupt cache file reads as a miss upstream, never a panic.
    pub fn from_value(v: &Value) -> Result<CachedStudy, ServeError> {
        let bad = |reason: String| ServeError::BadJson { reason };
        let s = |field: &str| -> Result<String, ServeError> {
            Ok(v.get(field)
                .and_then(Value::as_str)
                .ok_or_else(|| bad(format!("cache entry missing string '{field}'")))?
                .to_string())
        };
        let u = |field: &str| -> Result<u64, ServeError> {
            v.get(field)
                .and_then(Value::as_u64)
                .ok_or_else(|| bad(format!("cache entry missing u64 '{field}'")))
        };
        if u("masim_cache")? != CACHE_FORMAT {
            return Err(bad("cache entry from another format revision".into()));
        }
        let Some(Value::Arr(items)) = v.get("sidecars") else {
            return Err(bad("cache entry missing array 'sidecars'".into()));
        };
        let mut sidecars = Vec::with_capacity(items.len());
        for item in items {
            let f = |field: &str| -> Result<String, ServeError> {
                Ok(item
                    .get(field)
                    .and_then(Value::as_str)
                    .ok_or_else(|| bad(format!("cache sidecar missing string '{field}'")))?
                    .to_string())
            };
            sidecars.push(CachedSidecar { name: f("name")?, json: f("json")? });
        }
        Ok(CachedStudy {
            report_name: s("report_name")?,
            report: s("report")?,
            sidecars,
            wall_ns: u("wall_ns")?,
            entries: u("entries")?,
        })
    }
}

/// The cache itself: an in-memory map, optionally mirrored to one JSON
/// file per key under a directory.
pub struct ResultCache {
    dir: Option<PathBuf>,
    mem: Mutex<HashMap<String, Arc<CachedStudy>>>,
}

impl ResultCache {
    /// In-memory cache, mirrored to `dir` when given (created lazily).
    pub fn new(dir: Option<PathBuf>) -> ResultCache {
        ResultCache { dir, mem: Mutex::new(HashMap::new()) }
    }

    /// Look up a key: memory first, then the disk mirror (which also
    /// repopulates memory). A corrupt or unreadable disk entry is a
    /// miss, not an error — the study simply re-runs and overwrites it.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<CachedStudy>> {
        let id = key.id();
        if let Some(hit) = self.mem.lock().expect("cache lock poisoned").get(&id) {
            return Some(hit.clone());
        }
        let path = self.dir.as_ref()?.join(format!("{id}.json"));
        let text = fs::read_to_string(path).ok()?;
        let entry = Arc::new(CachedStudy::from_value(&parse(&text).ok()?).ok()?);
        self.mem.lock().expect("cache lock poisoned").insert(id, entry.clone());
        Some(entry)
    }

    /// Store a completed study under its key (memory + disk mirror).
    /// Disk failures are reported but not fatal: the in-memory entry
    /// still serves this daemon's lifetime.
    pub fn put(&self, key: &CacheKey, entry: Arc<CachedStudy>) -> Result<(), ServeError> {
        self.mem.lock().expect("cache lock poisoned").insert(key.id(), entry.clone());
        if let Some(dir) = &self.dir {
            fs::create_dir_all(dir)?;
            let path = dir.join(format!("{}.json", key.id()));
            fs::write(path, entry.to_value(key).to_json())?;
        }
        Ok(())
    }

    /// Number of keys resident in memory.
    pub fn len(&self) -> usize {
        self.mem.lock().expect("cache lock poisoned").len()
    }

    /// True when no key is resident in memory.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Summarize for `status` responses.
    pub fn describe(&self) -> String {
        let mut out = format!("{} entr(ies) in memory", self.len());
        if let Some(dir) = &self.dir {
            let _ = write!(out, ", mirrored to {}", dir.display());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> CachedStudy {
        CachedStudy {
            report_name: "table2.txt".into(),
            report: "Table II: ...\n  CMC(16) 0.1\n".into(),
            sidecars: vec![
                CachedSidecar { name: "table2_CMC16_packet".into(), json: "{}".into() },
                CachedSidecar {
                    name: "table2_CMC16_flow".into(),
                    json: "{\"x\":\"quoted,comma\\n\"}".into(),
                },
            ],
            wall_ns: 123_456_789,
            entries: 3,
        }
    }

    #[test]
    fn disk_round_trip_is_byte_exact() {
        let dir = std::env::temp_dir().join(format!("masim-cache-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let key = CacheKey::new(0xdead_beef, 0x1234_5678);
        let cache = ResultCache::new(Some(dir.clone()));
        assert!(cache.get(&key).is_none());
        cache.put(&key, Arc::new(entry())).unwrap();
        // A *fresh* cache (cold memory) must reload the exact bytes
        // from the disk mirror.
        let cold = ResultCache::new(Some(dir.clone()));
        let back = cold.get(&key).expect("disk mirror hit");
        assert_eq!(*back, entry());
        // A different code version is a different key — a miss.
        let other = CacheKey { code: key.code ^ 1, ..key };
        assert!(cold.get(&other).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entries_read_as_misses() {
        let dir = std::env::temp_dir().join(format!("masim-cache-bad-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let key = CacheKey::new(1, 2);
        fs::write(dir.join(format!("{}.json", key.id())), "{\"masim_cache\":").unwrap();
        let cache = ResultCache::new(Some(dir.clone()));
        assert!(cache.get(&key).is_none(), "corrupt file is a miss, not a panic");
        fs::write(dir.join(format!("{}.json", key.id())), "{\"masim_cache\":999}").unwrap();
        assert!(cache.get(&key).is_none(), "format-revision mismatch is a miss");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_ids_are_stable_and_distinct() {
        let a = CacheKey::new(1, 2);
        assert_eq!(a.id(), CacheKey::new(1, 2).id());
        assert_ne!(a.id(), CacheKey::new(2, 1).id());
        assert_eq!(a.id().len(), 16 * 3 + 2);
    }
}
