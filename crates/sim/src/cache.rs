//! The cell result cache behind `prestage run --cache <dir>`.
//!
//! Every entry holds one cell's statistics, keyed by the cell's *identity*:
//! the spec's portable canonical JSON ([`ExperimentSpec::portable`] →
//! [`ExperimentSpec::to_json_value`]) with the grid axes narrowed to that
//! one cell ([`cell_key`]).  The key is therefore every field that can
//! change a result — a field added to the spec joins it through the
//! spec's `record!` field list (the `wire` module), never through a
//! hand-kept list — and nothing that cannot: `threads` and `trace` are
//! cleared, so live and replayed runs share entries.  Benchmarks are keyed
//! by name, not grid position, so overlapping grids share every cell they
//! have in common.
//!
//! The key's compact rendering is hashed ([`content_hash`]) to pick the
//! entry file `<root>/<hh>/<hash>.json` (`hh` = first two hex digits, a
//! fan-out directory), and the file stores *both* the key and the value,
//! so a get verifies the stored key against the requested one
//! byte-for-byte: a hash collision or a damaged entry is a loud error
//! naming the file, never a silently wrong result.
//!
//! Writes go through a temp file + atomic rename, so a reader (or a
//! killed writer) never observes a half-written entry, and concurrent
//! writers of the same key are idempotent — the values are deterministic,
//! so last-rename-wins is byte-identical to first-rename-wins.  Because
//! each cell is written the moment it finishes, a killed run resumes by
//! being run again.

use crate::runner::{CellResult, GridResult, Sweep, SweepCell};
use crate::spec::ExperimentSpec;
use crate::stats::SimStats;
use crate::wire::Wire;
use prestage_json::Json;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

/// On-disk schema of one cache entry file.
pub const CACHE_SCHEMA: u64 = 1;

/// 128-bit FNV-1a over `bytes`, as 32 hex digits: two independent 64-bit
/// lanes with distinct offset bases, each avalanched through a
/// xorshift-multiply finalizer (raw FNV leaves short inputs' differences
/// stuck in the low bits, which would collapse the leading-byte fan-out
/// directories).  Not cryptographic — collision *detection* is the
/// stored-key comparison in [`Store::get`]; the hash only has to spread
/// entries across file names.
pub fn content_hash(bytes: &[u8]) -> String {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    fn avalanche(mut x: u64) -> u64 {
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        x ^ (x >> 33)
    }
    let mut a: u64 = 0xcbf2_9ce4_8422_2325;
    let mut b: u64 = 0x6c62_272e_07bb_0142;
    for &byte in bytes {
        a = (a ^ u64::from(byte)).wrapping_mul(PRIME);
        b = (b ^ u64::from(byte.rotate_left(3))).wrapping_mul(PRIME);
    }
    format!("{:016x}{:016x}", avalanche(a), avalanche(b))
}

/// A content-addressed key → value store rooted at one directory.
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
}

impl Store {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn open(root: &Path) -> Result<Store, String> {
        std::fs::create_dir_all(root)
            .map_err(|e| format!("cannot create cache root {}: {e}", root.display()))?;
        Ok(Store {
            root: root.to_path_buf(),
        })
    }

    /// The entry file `key` lives in (whether or not it exists yet).
    fn entry_path(&self, key: &Json) -> PathBuf {
        let hash = content_hash(key.render().as_bytes());
        self.root.join(&hash[..2]).join(format!("{hash}.json"))
    }

    /// Look `key` up.  `Ok(None)` on a miss; a present entry that does not
    /// parse, or whose stored key does not match `key` byte-for-byte (a
    /// 128-bit hash collision, or a corrupted entry), is a loud error
    /// naming the entry file.
    pub fn get(&self, key: &Json) -> Result<Option<Json>, String> {
        let path = self.entry_path(key);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("cannot read cache entry {}: {e}", path.display())),
        };
        let v = Json::parse(&text).map_err(|e| format!("cache entry {}: {e}", path.display()))?;
        let schema = v
            .get("schema")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("cache entry {} has no schema field", path.display()))?;
        if schema != CACHE_SCHEMA {
            return Err(format!(
                "cache entry {} has schema {schema}, this build reads {CACHE_SCHEMA}",
                path.display()
            ));
        }
        let stored_key = v
            .get("key")
            .ok_or_else(|| format!("cache entry {} has no key field", path.display()))?;
        if stored_key.render() != key.render() {
            return Err(format!(
                "cache entry {} stores a different key than the one that hashed \
                 to it — hash collision or corrupted entry; remove the file to recover",
                path.display()
            ));
        }
        let value = v
            .get("value")
            .ok_or_else(|| format!("cache entry {} has no value field", path.display()))?;
        Ok(Some(value.clone()))
    }

    /// Insert `key` → `value` (idempotent: rewriting a key with the same
    /// deterministic value is byte-identical either way).  Atomic via
    /// temp file + rename: no reader ever sees a partial entry.
    pub fn put(&self, key: &Json, value: &Json) -> Result<(), String> {
        let path = self.entry_path(key);
        let dir = path.parent().unwrap_or(&self.root);
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create cache dir {}: {e}", dir.display()))?;
        let entry = Json::obj([
            ("schema", CACHE_SCHEMA.into()),
            ("key", key.clone()),
            ("value", value.clone()),
        ])
        .pretty();
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, &entry)
            .map_err(|e| format!("cannot write cache temp {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path).map_err(|e| {
            format!(
                "cannot move cache entry into place at {}: {e}",
                path.display()
            )
        })
    }
}

/// Cache key of one cell: the spec's portable canonical JSON with the grid
/// axes narrowed to this cell (`presets: [preset]`, `l1_sizes: [l1]`,
/// `bench: [name]`).  The benchmark is keyed by its resolved name, so the
/// same cell at any grid position gets the same key.
pub fn cell_key(spec: &ExperimentSpec, cell: &SweepCell) -> Result<Json, String> {
    let name = *spec
        .bench_names()?
        .get(cell.bench_idx)
        .ok_or_else(|| format!("cell {cell:?} indexes outside the spec's benchmarks"))?;
    Ok(ExperimentSpec {
        presets: vec![cell.preset],
        l1_sizes: vec![cell.l1],
        bench: Some(vec![name.to_string()]),
        ..spec.portable()
    }
    .to_json_value())
}

/// What [`try_run_spec_cached`] found: the grid's cell count and how many
/// of those came from the cache (the rest were simulated).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounts {
    pub cells: usize,
    pub cached: usize,
}

impl std::fmt::Display for CacheCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} cell(s), {} cached, {} run",
            self.cells,
            self.cached,
            self.cells - self.cached
        )
    }
}

/// [`try_run_spec`](crate::try_run_spec) through a cell cache: every cell
/// is looked up first, only the misses are simulated (one [`Sweep`], whose
/// observer stores each result as its cell finishes), and hits and misses
/// fill one slot per flat position, assembled exactly as the uncached run
/// assembles them — so the artifact is byte-identical whether a cell was
/// cached or not.  A full hit does no set-up at all: no workload build, no
/// trace load.
///
/// The first failed store write is returned after the sweep; every cell
/// stored before it stays a hit for the next run.
pub fn try_run_spec_cached(
    spec: &ExperimentSpec,
    store: &Store,
) -> Result<(Vec<Vec<GridResult>>, CacheCounts), String> {
    let cells = spec.cells()?;
    let mut slots: Vec<Option<CellResult>> = Vec::with_capacity(cells.len());
    let mut misses = Vec::new();
    for cell in &cells {
        let key = cell_key(spec, cell)?;
        let hit = match store.get(&key)? {
            Some(v) => Some(CellResult {
                cell: *cell,
                stats: SimStats::from_json(&v, "stats").map_err(|e| {
                    format!("cache entry {}: {e}", store.entry_path(&key).display())
                })?,
                // Wall-clock is per-worker diagnostic data with no meaning
                // for a cached cell; nothing downstream reads it.
                wall: Duration::ZERO,
            }),
            None => {
                misses.push(*cell);
                None
            }
        };
        slots.push(hit);
    }
    let counts = CacheCounts {
        cells: cells.len(),
        cached: cells.len() - misses.len(),
    };
    if !misses.is_empty() {
        let put_error: Mutex<Option<String>> = Mutex::new(None);
        let observer = |r: &CellResult| {
            let stored = cell_key(spec, &r.cell).and_then(|k| store.put(&k, &r.stats.to_json()));
            if let Err(e) = stored {
                put_error
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .get_or_insert(e);
            }
        };
        let mut fresh = Sweep {
            observer: Some(&observer),
            ..Sweep::new(spec, &misses)
        }
        .run()?
        .into_iter();
        for slot in slots.iter_mut().filter(|s| s.is_none()) {
            *slot = fresh.next();
        }
        if let Some(e) = put_error.into_inner().unwrap_or_else(|p| p.into_inner()) {
            return Err(e);
        }
    }
    Ok((spec.rows(slots.into_iter().flatten().collect())?, counts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConfigPreset;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let d = std::env::temp_dir()
                .join(format!("prestage-cache-test-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&d);
            std::fs::create_dir_all(&d).unwrap();
            TempDir(d)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn hash_is_stable_and_spread() {
        let h = content_hash(b"hello");
        assert_eq!(h.len(), 32);
        assert_eq!(h, content_hash(b"hello"));
        assert_ne!(h, content_hash(b"hellp"));
        // Single-bit flips land in different fan-out dirs often enough.
        let dirs: std::collections::BTreeSet<String> = (0u8..64)
            .map(|i| content_hash(&[i])[..2].to_string())
            .collect();
        assert!(dirs.len() > 16, "fan-out too narrow: {dirs:?}");
    }

    #[test]
    fn get_put_roundtrip_and_miss() {
        let tmp = TempDir::new("roundtrip");
        let store = Store::open(&tmp.0).unwrap();
        let key = Json::obj([("kind", "cell".into()), ("l1", 1024usize.into())]);
        assert_eq!(store.get(&key).unwrap(), None);
        let value = Json::obj([("cycles", 123u64.into())]);
        store.put(&key, &value).unwrap();
        assert_eq!(store.get(&key).unwrap(), Some(value.clone()));
        // Idempotent re-put.
        store.put(&key, &value).unwrap();
        assert_eq!(store.get(&key).unwrap(), Some(value));
        // A different key misses.
        let other = Json::obj([("kind", "cell".into()), ("l1", 2048usize.into())]);
        assert_eq!(store.get(&other).unwrap(), None);
    }

    #[test]
    fn collision_is_loud() {
        let tmp = TempDir::new("collision");
        let store = Store::open(&tmp.0).unwrap();
        let key = Json::obj([("kind", "sweep".into())]);
        store.put(&key, &Json::Null).unwrap();
        // Corrupt the entry: swap the stored key for a different one.
        let path = store.entry_path(&key);
        let forged = Json::obj([
            ("schema", CACHE_SCHEMA.into()),
            ("key", Json::obj([("kind", "forged".into())])),
            ("value", Json::Null),
        ])
        .pretty();
        std::fs::write(&path, forged).unwrap();
        let err = store.get(&key).unwrap_err();
        assert!(err.contains("different key"), "{err}");
        assert!(err.contains(&path.display().to_string()), "{err}");
    }

    #[test]
    fn cell_key_is_identity_not_position_or_host_setting() {
        let spec = ExperimentSpec {
            presets: vec![ConfigPreset::Base],
            l1_sizes: vec![1 << 10],
            bench: Some(vec!["gzip".into(), "mcf".into()]),
            warmup_insts: 1_000,
            measure_insts: 4_000,
            ..ExperimentSpec::default()
        };
        let cells = spec.cells().unwrap();
        // A wider spec puts mcf at another bench index and adds an L1
        // size; its mcf cell at the same L1 still has the same key.
        let wide = ExperimentSpec {
            l1_sizes: vec![4 << 10, 1 << 10],
            bench: Some(vec!["gap".into(), "vpr".into(), "mcf".into()]),
            ..spec.clone()
        };
        let wide_names = wide.bench_names().unwrap();
        let wide_cell = wide
            .cells()
            .unwrap()
            .into_iter()
            .find(|c| c.l1 == 1 << 10 && wide_names[c.bench_idx] == "mcf")
            .unwrap();
        let key = |spec: &ExperimentSpec, cell: &SweepCell| cell_key(spec, cell).unwrap().render();
        let mcf = key(&spec, &cells[1]); // bench_idx 1 = mcf
        assert_eq!(mcf, key(&wide, &wide_cell));
        assert_ne!(mcf, key(&spec, &cells[0]));
        // Host-local settings never change the key.
        let host = ExperimentSpec {
            threads: Some(7),
            trace: Some(crate::TraceSource {
                dir: "/somewhere/traces".into(),
            }),
            ..spec.clone()
        };
        assert_eq!(mcf, key(&host, &cells[1]));
        // Every result-changing field does, including the ones a
        // hand-picked field list once left out.
        let variants = [
            ExperimentSpec {
                itlb: Some(prestage_core::ITlbConfig::default_config()),
                ..spec.clone()
            },
            ExperimentSpec {
                insertion: Some(prestage_core::InsertionPolicy::Lru),
                ..spec.clone()
            },
            ExperimentSpec {
                exec_seed: spec.exec_seed + 1,
                ..spec.clone()
            },
        ];
        for v in &variants {
            assert_ne!(mcf, key(v, &cells[1]), "{v:?}");
        }
    }
}
