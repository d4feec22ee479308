//! The two-tier content-addressed result cache.
//!
//! Tier 1 is a bounded in-memory LRU; tier 2 is an optional on-disk store
//! (one file per key under `--cache-dir`). Both tiers are keyed by the
//! stable content hashes from `sampsim_core::stage_cache` — the same store
//! holds profiling-stage entries and rendered response documents, kept
//! apart by their key-domain tags.
//!
//! Disk entries are self-checking: a magic/version header, the key (so a
//! renamed file cannot masquerade as another entry), a length, the
//! payload, and an FNV-1a checksum. Any mismatch — truncation, bit rot,
//! version skew — reads as a miss, never as wrong bytes.
//!
//! Writes go through a temp file in the same directory followed by an
//! atomic rename, so concurrent writers and crashed processes can never
//! leave a half-written entry under a final name.

use sampsim_core::stage_cache::StageCache;
use sampsim_util::bytes::SharedBytes;
use sampsim_util::codec::{Decoder, Encoder};
use sampsim_util::hash::fnv64;
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Magic number of on-disk cache entries.
pub const ENTRY_MAGIC: u32 = 0x53_534343; // "SSCC"
/// On-disk entry format version.
pub const ENTRY_VERSION: u16 = 1;
/// Name of the version-stamp file written into every cache directory.
pub const STAMP_FILE: &str = "CACHE_FORMAT";

/// The exact version-stamp contents for this build's entry format.
fn stamp_contents() -> String {
    format!("sampsim-serve-cache/{ENTRY_VERSION}\n")
}

/// Which tier answered a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The in-memory LRU.
    Memory,
    /// The on-disk store (the entry is promoted to memory on the way out).
    Disk,
}

/// Bounded in-memory LRU over content-addressed byte entries. Entries are
/// [`SharedBytes`] views, so hits are refcount bumps and promoting a disk
/// entry stores the window over the file read rather than a copy.
struct MemoryLru {
    entries: HashMap<u64, (SharedBytes, u64)>,
    capacity: usize,
    tick: u64,
}

impl MemoryLru {
    fn get(&mut self, key: u64) -> Option<SharedBytes> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(&key).map(|(bytes, used)| {
            *used = tick;
            bytes.clone()
        })
    }

    fn put(&mut self, key: u64, bytes: SharedBytes) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            // Evict the least-recently-used entry (linear scan: the map is
            // small and lookups dominate).
            if let Some(&victim) = self
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k)
            {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(key, (bytes, self.tick));
    }
}

/// The two-tier cache shared by every server worker.
pub struct TieredCache {
    memory: Mutex<MemoryLru>,
    disk: Option<PathBuf>,
    /// Hits observed through the [`StageCache`] trait (pipeline-internal
    /// profiling-stage reuse), for the `stats` reply.
    stage_hits: AtomicU64,
}

/// Process-wide unique suffix source for temp files. Per-*instance*
/// counters are not enough: two caches over the same directory in one
/// process (fleet shards under one `--cache-dir` root, a daemon plus a
/// warm-filling router) would both start at 0 and, with the same pid in
/// the name, collide on the very first write of a shared key — one
/// writer's `fs::write` then interleaves with the other's rename and a
/// torn entry gets renamed under the final name.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl TieredCache {
    /// Creates a cache with an in-memory capacity of `mem_entries` and an
    /// optional on-disk tier rooted at `dir` (created if missing).
    ///
    /// Every cache directory carries a version stamp ([`STAMP_FILE`]). A
    /// directory stamped by an *incompatible* entry format is rejected —
    /// inheriting it would be silently useless at best (every entry reads
    /// as a miss) and is the kind of ambiguity that hides real
    /// corruption. An unstamped directory (fresh, or pre-stamp) is
    /// adopted and stamped.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the cache directory cannot be created
    /// or its version stamp mismatches this build's entry format.
    pub fn new(mem_entries: usize, dir: Option<&Path>) -> std::io::Result<Self> {
        if let Some(dir) = dir {
            fs::create_dir_all(dir)?;
            let stamp = dir.join(STAMP_FILE);
            match fs::read_to_string(&stamp) {
                Ok(found) if found != stamp_contents() => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!(
                            "cache dir {} is stamped {:?} but this build writes {:?}; \
                             refusing to inherit it (delete the directory or point \
                             --cache-dir elsewhere)",
                            dir.display(),
                            found.trim_end(),
                            stamp_contents().trim_end()
                        ),
                    ));
                }
                Ok(_) => {}
                // Through temp file + rename, so a concurrent opener reads
                // no stamp or the whole stamp — never a partial one.
                Err(_) => write_atomic(dir, STAMP_FILE, stamp_contents().as_bytes())?,
            }
        }
        Ok(Self {
            memory: Mutex::new(MemoryLru {
                entries: HashMap::new(),
                capacity: mem_entries,
                tick: 0,
            }),
            disk: dir.map(Path::to_path_buf),
            stage_hits: AtomicU64::new(0),
        })
    }

    /// Looks up `key`, reporting which tier answered. Disk hits are
    /// promoted into the memory tier; the promoted entry and the returned
    /// view share the single file-read buffer.
    pub fn get(&self, key: u64) -> Option<(SharedBytes, Tier)> {
        if let Some(bytes) = self.memory.lock().unwrap().get(key) {
            return Some((bytes, Tier::Memory));
        }
        let dir = self.disk.as_ref()?;
        let bytes = read_entry(&entry_path(dir, key), key)?;
        self.memory.lock().unwrap().put(key, bytes.clone());
        Some((bytes, Tier::Disk))
    }

    /// Stores `bytes` under `key` in both tiers. Disk failures are
    /// swallowed: the cache is an accelerator, not a dependency.
    pub fn put(&self, key: u64, bytes: &[u8]) {
        self.memory
            .lock()
            .unwrap()
            .put(key, SharedBytes::from(bytes));
        if let Some(dir) = &self.disk {
            let _ = write_entry(dir, key, bytes);
        }
    }

    /// Hits observed through the [`StageCache`] trait.
    pub fn stage_hits(&self) -> u64 {
        self.stage_hits.load(Ordering::Relaxed)
    }
}

impl StageCache for TieredCache {
    fn get(&self, key: u64) -> Option<SharedBytes> {
        let found = TieredCache::get(self, key).map(|(bytes, _)| bytes);
        if found.is_some() {
            self.stage_hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    fn put(&self, key: u64, bytes: &[u8]) {
        TieredCache::put(self, key, bytes);
    }
}

fn entry_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(entry_name(key))
}

fn entry_name(key: u64) -> String {
    format!("{key:016x}.bin")
}

fn write_entry(dir: &Path, key: u64, bytes: &[u8]) -> std::io::Result<()> {
    let mut enc = Encoder::with_header(ENTRY_MAGIC, ENTRY_VERSION);
    enc.put_u64(key);
    enc.put_u64(bytes.len() as u64);
    enc.put_bytes(bytes);
    enc.put_u64(fnv64(bytes));
    write_atomic(dir, &entry_name(key), &enc.into_bytes())
}

/// Writes `dir/name` through a uniquely named temp file and a rename, so
/// readers see the previous file or the complete new one, never a torn
/// write.
fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> std::io::Result<()> {
    let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!(".{name}.{}.{seq}.tmp", std::process::id()));
    fs::write(&tmp, bytes)?;
    let result = fs::rename(&tmp, dir.join(name));
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Reads and validates a disk entry, returning the payload as a zero-copy
/// window over the single file read (no second payload copy).
fn read_entry(path: &Path, key: u64) -> Option<SharedBytes> {
    let raw = SharedBytes::new(fs::read(path).ok()?);
    let mut dec = Decoder::with_header(&raw, ENTRY_MAGIC, ENTRY_VERSION).ok()?;
    if dec.take_u64().ok()? != key {
        return None;
    }
    let len = dec.take_u64().ok()? as usize;
    if dec.remaining() != len + 8 {
        return None;
    }
    let start = raw.len() - dec.remaining();
    let payload = raw.slice(start..start + len);
    let mut tail = Decoder::new(&raw[start + len..]);
    if tail.take_u64().ok()? != fnv64(&payload) {
        return None;
    }
    Some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lookup helper: copies the view out so tests can compare owned
    /// bytes.
    fn got(cache: &TieredCache, key: u64) -> Option<(Vec<u8>, Tier)> {
        cache.get(key).map(|(b, t)| (b.to_vec(), t))
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sampsim-serve-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memory_tier_hits_and_evicts_lru() {
        let cache = TieredCache::new(2, None).unwrap();
        assert!(cache.get(1).is_none());
        cache.put(1, b"one");
        cache.put(2, b"two");
        assert_eq!(got(&cache, 1), Some((b"one".to_vec(), Tier::Memory)));
        // Key 2 is now the LRU entry; inserting key 3 evicts it.
        cache.put(3, b"three");
        assert!(cache.get(2).is_none());
        assert_eq!(got(&cache, 1), Some((b"one".to_vec(), Tier::Memory)));
        assert_eq!(got(&cache, 3), Some((b"three".to_vec(), Tier::Memory)));
    }

    #[test]
    fn disk_tier_persists_and_promotes() {
        let dir = temp_dir("persist");
        {
            let cache = TieredCache::new(4, Some(&dir)).unwrap();
            cache.put(42, b"payload");
        }
        // A fresh cache (cold memory) reads the entry back from disk…
        let cache = TieredCache::new(4, Some(&dir)).unwrap();
        assert_eq!(got(&cache, 42), Some((b"payload".to_vec(), Tier::Disk)));
        // …and promotes it to the memory tier.
        assert_eq!(got(&cache, 42), Some((b"payload".to_vec(), Tier::Memory)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_disk_entries_read_as_misses() {
        let dir = temp_dir("corrupt");
        let cache = TieredCache::new(0, Some(&dir)).unwrap();
        cache.put(7, b"payload");
        let path = entry_path(&dir, 7);

        // Flip a payload byte: checksum mismatch.
        let mut raw = fs::read(&path).unwrap();
        let mid = raw.len() - 10;
        raw[mid] ^= 0xFF;
        fs::write(&path, &raw).unwrap();
        assert!(cache.get(7).is_none());

        // Truncation.
        let raw = fs::read(&path).unwrap();
        fs::write(&path, &raw[..raw.len() - 1]).unwrap();
        assert!(cache.get(7).is_none());

        // A valid entry renamed to another key misses (key field mismatch).
        cache.put(8, b"other");
        fs::rename(entry_path(&dir, 8), &path).unwrap();
        assert!(cache.get(7).is_none());

        // Garbage header.
        fs::write(&path, b"garbage").unwrap();
        assert!(cache.get(7).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_dir_is_stamped_and_mismatches_are_rejected() {
        let dir = temp_dir("stamp");
        {
            let _cache = TieredCache::new(4, Some(&dir)).unwrap();
            let stamp = fs::read_to_string(dir.join(STAMP_FILE)).unwrap();
            assert_eq!(stamp, stamp_contents());
        }
        // Reopening a correctly stamped directory works.
        assert!(TieredCache::new(4, Some(&dir)).is_ok());
        // A directory stamped by a different entry format is refused —
        // never silently inherited.
        fs::write(dir.join(STAMP_FILE), "sampsim-serve-cache/999\n").unwrap();
        let err = TieredCache::new(4, Some(&dir)).map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("refusing to inherit"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The concurrent shard warm-fill shape: several cache instances
    /// share one directory (distinct shards, a router warm-filling a
    /// sibling) and hammer the *same* key with different payloads while
    /// readers race them. Every successful read must be one of the
    /// payloads, intact — never a torn or interleaved entry.
    #[test]
    fn concurrent_same_key_writes_never_tear() {
        let dir = temp_dir("race");
        const KEY: u64 = 99;
        const WRITERS: usize = 4;
        const ROUNDS: usize = 50;
        // Payloads of very different lengths so an interleaved write is
        // structurally detectable, each self-describing.
        let payloads: Vec<Vec<u8>> = (0..WRITERS)
            .map(|w| {
                let mut p = format!("writer-{w}:").into_bytes();
                p.extend(std::iter::repeat_n(b'a' + w as u8, 64 << w));
                p
            })
            .collect();
        let (first_put, landed) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            for payload in &payloads {
                let dir = dir.clone();
                let first_put = first_put.clone();
                s.spawn(move || {
                    // mem_entries 0: every put is a pure disk write,
                    // every get a fresh disk read.
                    let cache = TieredCache::new(0, Some(&dir)).unwrap();
                    for round in 0..ROUNDS {
                        cache.put(KEY, payload);
                        if round == 0 {
                            // The reader may already be done and gone.
                            let _ = first_put.send(());
                        }
                    }
                });
            }
            let dir = dir.clone();
            let payloads = &payloads;
            s.spawn(move || {
                let cache = TieredCache::new(0, Some(&dir)).unwrap();
                // Start once a write has landed, so the reads race the
                // remaining writes however the threads are scheduled.
                landed.recv().unwrap();
                let mut seen = 0;
                for _ in 0..ROUNDS * 4 {
                    if let Some((bytes, _)) = cache.get(KEY) {
                        seen += 1;
                        assert!(
                            payloads.iter().any(|p| p[..] == bytes[..]),
                            "read a torn entry of {} bytes",
                            bytes.len()
                        );
                    }
                }
                // An entry exists from the first read on; a rename never
                // leaves the key without a file.
                assert!(seen > 0, "reader never saw a valid entry");
            });
        });
        // After the dust settles the entry is one intact payload.
        let cache = TieredCache::new(0, Some(&dir)).unwrap();
        let (bytes, _) = cache.get(KEY).expect("final entry must be readable");
        assert!(payloads.iter().any(|p| p[..] == bytes[..]));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stage_cache_trait_counts_hits() {
        let cache = TieredCache::new(4, None).unwrap();
        assert!(StageCache::get(&cache, 5).is_none());
        StageCache::put(&cache, 5, b"stage");
        assert_eq!(StageCache::get(&cache, 5).as_deref(), Some(&b"stage"[..]));
        assert_eq!(cache.stage_hits(), 1);
    }
}
