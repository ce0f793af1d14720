//! The persistent plan tier: one byte-deterministic JSON file per
//! entry, named `<shape>-<profile>.json` after its [`Fingerprint`].
//!
//! The tier is best-effort. A file that cannot be read, decoded or
//! matched to its name is counted in [`DiskTier::io_errors`] and
//! deleted, so the caller's cold re-solve repopulates a clean entry
//! instead of tripping on the same garbage every run. A failed write
//! is counted and otherwise ignored.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::fingerprint::Fingerprint;
use crate::json;
use crate::CachedPlan;

/// A plan directory on disk.
#[derive(Debug)]
pub struct DiskTier {
    dir: PathBuf,
    io_errors: AtomicU64,
}

impl DiskTier {
    /// A tier persisted under `dir` (created on the first write).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DiskTier {
            dir: dir.into(),
            io_errors: AtomicU64::new(0),
        }
    }

    /// Reads and writes that failed, plus undecodable entries evicted.
    pub fn io_errors(&self) -> u64 {
        self.io_errors.load(Ordering::Relaxed)
    }

    fn entry_path(&self, fp: &Fingerprint) -> PathBuf {
        self.dir.join(format!("{}.json", fp.hex()))
    }

    /// The entry stored under exactly `fp`, if any.
    pub fn load(&self, fp: &Fingerprint) -> Option<CachedPlan> {
        let path = self.entry_path(fp);
        let bytes = std::fs::read(&path).ok()?;
        match self.decode(&path, bytes) {
            Some((stored, plan)) if stored == *fp => Some(plan),
            Some(_) => {
                // A key whose content rotted or was hand-edited.
                self.evict_corrupt(&path);
                None
            }
            None => None,
        }
    }

    /// Any entry with the structural half `shape`: the
    /// lexicographically first file, for determinism.
    pub fn load_by_shape(&self, shape: u64) -> Option<(Fingerprint, CachedPlan)> {
        let prefix = format!("{shape:016x}-");
        let mut names: Vec<String> = std::fs::read_dir(&self.dir)
            .ok()?
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.starts_with(&prefix) && n.ends_with(".json"))
            .collect();
        names.sort();
        for name in names {
            let path = self.dir.join(&name);
            let Ok(bytes) = std::fs::read(&path) else {
                self.io_errors.fetch_add(1, Ordering::Relaxed);
                continue;
            };
            match self.decode(&path, bytes) {
                Some((fp, plan)) if fp.shape == shape => return Some((fp, plan)),
                // Mislabeled: the file name's shape prefix does not
                // match the decoded fingerprint.
                Some(_) => self.evict_corrupt(&path),
                None => {}
            }
        }
        None
    }

    /// Writes `plan` under `fp`, replacing any previous entry.
    pub fn store(&self, fp: &Fingerprint, plan: &CachedPlan) {
        let write = || -> std::io::Result<()> {
            std::fs::create_dir_all(&self.dir)?;
            std::fs::write(self.entry_path(fp), json::encode_entry(fp, plan))
        };
        if write().is_err() {
            self.io_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Decodes one entry file; a file that is not UTF-8 (binary
    /// garbage from a torn write) or not a valid entry is evicted.
    fn decode(&self, path: &Path, bytes: Vec<u8>) -> Option<(Fingerprint, CachedPlan)> {
        let decoded = String::from_utf8(bytes)
            .ok()
            .and_then(|text| json::decode_entry(&text));
        if decoded.is_none() {
            self.evict_corrupt(path);
        }
        decoded
    }

    /// Removes an unusable entry and counts the error. If the delete
    /// itself fails the entry just stays a counted miss.
    fn evict_corrupt(&self, path: &Path) {
        self.io_errors.fetch_add(1, Ordering::Relaxed);
        let _ = std::fs::remove_file(path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapcc_synth::primitive::Primitive;
    use adapcc_synth::solver::PlanSeed;
    use adapcc_synth::strategy::{Strategy, SubCollective};

    fn fp(shape: u64, profile: u64) -> Fingerprint {
        Fingerprint { shape, profile }
    }

    fn plan(tag: u64) -> CachedPlan {
        // A minimal distinguishable payload; structure is irrelevant to
        // the tier's mechanics.
        CachedPlan {
            strategy: Strategy {
                primitive: Primitive::AllToAll,
                subs: (0..tag as usize % 3 + 1)
                    .map(|_| SubCollective {
                        fraction: 1.0,
                        chunk: adapcc_simnet::units::ByteSize::from_kib(tag.max(1)),
                        root: None,
                        flows: vec![],
                        aggregate: Default::default(),
                    })
                    .collect(),
            },
            seed: PlanSeed::default(),
        }
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrips_across_instances() {
        let dir = scratch("adapcc_plancache_disk_test");
        let f = fp(0xabc, 0xdef);
        DiskTier::new(&dir).store(&f, &plan(5));
        let tier = DiskTier::new(&dir);
        assert_eq!(tier.load(&f), Some(plan(5)));
        // Same shape, drifted profile: found by the shape scan.
        assert_eq!(tier.load(&fp(0xabc, 0x123)), None);
        assert_eq!(tier.load_by_shape(0xabc), Some((f, plan(5))));
        assert_eq!(tier.load_by_shape(0xabd), None);
        assert_eq!(tier.io_errors(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_are_byte_deterministic() {
        let a = scratch("adapcc_plancache_det_a");
        let b = scratch("adapcc_plancache_det_b");
        let f = fp(0x5, 0x6);
        DiskTier::new(&a).store(&f, &plan(4));
        DiskTier::new(&b).store(&f, &plan(4));
        let name = format!("{}.json", f.hex());
        assert_eq!(
            std::fs::read(a.join(&name)).unwrap(),
            std::fs::read(b.join(&name)).unwrap()
        );
        let _ = std::fs::remove_dir_all(&a);
        let _ = std::fs::remove_dir_all(&b);
    }

    #[test]
    fn corrupt_entry_is_counted_and_deleted() {
        let dir = scratch("adapcc_plancache_corrupt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let f = fp(0x31, 0x42);
        let path = dir.join(format!("{}.json", f.hex()));
        for garbage in [&b"not json"[..], b"{\"fingerpr\x00\xff garbage"] {
            std::fs::write(&path, garbage).unwrap();
            let tier = DiskTier::new(&dir);
            assert_eq!(tier.load(&f), None);
            assert_eq!(tier.io_errors(), 1);
            assert!(!path.exists(), "corrupt entry must be evicted from disk");
        }
        // A clean rewrite is then served without error.
        DiskTier::new(&dir).store(&f, &plan(9));
        let tier = DiskTier::new(&dir);
        assert_eq!(tier.load(&f), Some(plan(9)));
        assert_eq!(tier.io_errors(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mislabeled_entry_is_evicted() {
        let dir = scratch("adapcc_plancache_mislabel_test");
        let (real, fake) = (fp(0x1, 0x2), fp(0x1, 0x3));
        let tier = DiskTier::new(&dir);
        tier.store(&real, &plan(2));
        std::fs::rename(
            dir.join(format!("{}.json", real.hex())),
            dir.join(format!("{}.json", fake.hex())),
        )
        .unwrap();
        assert_eq!(tier.load(&fake), None);
        assert_eq!(tier.io_errors(), 1);
        assert!(!dir.join(format!("{}.json", fake.hex())).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_shape_sibling_is_deleted_during_the_scan() {
        let dir = scratch("adapcc_plancache_corrupt_shape_test");
        std::fs::create_dir_all(&dir).unwrap();
        // A shape-prefixed sibling too short to decode: the scan must
        // skip it, count the error and remove it.
        let bad = dir.join(format!("{:016x}-{:016x}.json", 0x77, 0xdead_u64));
        std::fs::write(&bad, "x").unwrap();
        let tier = DiskTier::new(&dir);
        assert_eq!(tier.load_by_shape(0x77), None);
        assert_eq!(tier.io_errors(), 1);
        assert!(!bad.exists(), "corrupt sibling must be evicted from disk");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
