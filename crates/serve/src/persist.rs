//! Restart-proof cache: an append-only on-disk log of cache entries.
//!
//! A `bsched serve` daemon's content-addressed cache is pure derived
//! state, but recomputing it is exactly the cost the cache exists to
//! avoid, so a restart should come back warm. The log is a
//! [`RecordLog`] on the core the evaluation journals use (see
//! [`bsched_analyze::journal`]); this module holds its record codec:
//!
//! ```text
//! bsched-cachelog-v1\n                      ← magic + version header
//! [u32 len][u128 key][payload][u32 crc]     ← record, repeated
//! ```
//!
//! All integers are little-endian. `len` is the payload's byte length;
//! `key` is the cache's 128-bit content hash; `payload` is the UTF-8
//! response fragment; `crc` is CRC-32 (IEEE) over `len ‖ key ‖ payload`.
//! Appends are handed to the OS, not synced: a killed process loses
//! nothing, and only the record being written can be torn.
//!
//! Replay runs oldest-first and the latest record for a key wins, so
//! replay order doubles as LRU recency and a warm-started cache has the
//! hot set it died with (bounded by capacity). Unlike the journal, the
//! codec never skips: the first record that is short, oversized,
//! CRC-mismatched or not UTF-8 ends the replay, and the file is cut
//! back to the last good record with a warning — **never** a crash, and
//! never a record resurrected from beyond the torn point (the
//! `persist-corrupt` chaos fault's criterion). Once the file is ~4× its
//! live payload, the server compacts it from the cache's LRU snapshot.

use std::collections::HashMap;
use std::path::Path;
#[cfg(test)]
use std::path::PathBuf;
use std::sync::Arc;

use bsched_analyze::journal::{Codec, RecordLog, Replay};
use bsched_faults::{fault_point, Site};

/// Magic first line: pins the record format. Bump the version if the
/// layout changes — a file whose header does not match is discarded.
const MAGIC: &[u8] = b"bsched-cachelog-v1\n";

/// Upper bound on a single payload (real ones are a few KiB): a larger
/// length field is corrupt, and is treated as a torn tail.
const MAX_PAYLOAD: usize = 16 * 1024 * 1024;

/// Compaction triggers when the file exceeds this multiple of its live
/// bytes…
const COMPACT_FACTOR: u64 = 4;
/// …but never below this size — rewriting a tiny file buys nothing.
const COMPACT_MIN_BYTES: u64 = 64 * 1024;

/// CRC-32 (IEEE) of `bytes`, bit by bit: the reflected polynomial
/// 0xEDB88320 of zlib, PNG and ethernet, so external tools can verify
/// records. Hand-rolled because the workspace vendors no checksum crate.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
        }
    }
    !c
}

/// One record's bytes: `[len][key][payload][crc]`, ready to append.
/// `corrupt_crc` is the `persist-corrupt` fault: an intact body under a
/// wrong checksum, what a kill between the two writes leaves behind.
fn encode_record(key: u128, payload: &str, corrupt_crc: bool) -> Vec<u8> {
    let len = u32::try_from(payload.len()).unwrap_or(u32::MAX);
    let mut record = len.to_le_bytes().to_vec();
    record.extend_from_slice(&key.to_le_bytes());
    record.extend_from_slice(payload.as_bytes());
    let crc = crc32(&record) ^ if corrupt_crc { 0xDEAD_BEEF } else { 0 };
    record.extend_from_slice(&crc.to_le_bytes());
    record
}

/// The CRC-framed record codec. Replay stops at the first record that
/// is short, oversized, CRC-mismatched or not UTF-8; it never skips.
struct Frames;

impl Codec for Frames {
    type Key = u128;
    type Value = Arc<str>;
    const SYNC: bool = false;

    fn resumes(&self, line: &[u8]) -> bool {
        line == MAGIC
    }

    fn decode(&self, raw: &[u8]) -> Option<(usize, Option<(u128, Arc<str>)>)> {
        let len = u32::from_le_bytes(raw.get(..4)?.try_into().unwrap()) as usize;
        if len > MAX_PAYLOAD {
            return None; // corrupt length field
        }
        let body_end = 4 + 16 + len;
        let stored = raw.get(body_end..body_end + 4)?; // torn mid-record
        if crc32(&raw[..body_end]).to_le_bytes() != stored {
            return None; // corrupt record (bad bytes or injected fault)
        }
        let payload = std::str::from_utf8(&raw[20..body_end]).ok()?; // not UTF-8: torn
        let key = u128::from_le_bytes(raw[4..20].try_into().unwrap());
        Some((body_end + 4, Some((key, Arc::from(payload)))))
    }
}

/// What [`CacheLog::open`] recovered: live entries oldest-first (replay
/// order = LRU recency) capped to the cache capacity, the records
/// scanned, and where a torn or corrupt tail was cut.
pub type Recovery = Replay<u128, Arc<str>>;

/// The append-only cache log behind `--cache-log PATH`.
pub struct CacheLog {
    log: RecordLog,
    /// Latest record size per key the log believes is live. Evictions
    /// the cache performs are invisible here, so this *overestimates*
    /// live bytes — which only delays compaction, never corrupts it
    /// (compaction rewrites from the cache's own snapshot).
    live: HashMap<u128, u64>,
    live_bytes: u64,
    appends: u64,
    compactions: u64,
}

impl CacheLog {
    /// Opens (or creates) the log at `path` and recovers its contents,
    /// warning about a discarded foreign file or a truncated tail.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors opening, reading, or truncating the file —
    /// a log that cannot be *accessed* is a configuration error, unlike
    /// one that is merely damaged.
    pub fn open(path: &Path, capacity: usize) -> std::io::Result<(CacheLog, Recovery)> {
        let (log, mut recovery) = RecordLog::open(path, MAGIC, &Frames)?;
        let path = path.display();
        if recovery.discarded {
            eprintln!("bsched-serve: cache log {path} has an unrecognized header; discarding it");
        }
        if let Some(at) = recovery.truncated_at {
            eprintln!("bsched-serve: cache log {path}: torn or corrupt tail cut at byte {at}");
        }
        // Only the hottest tail fits the cache.
        let excess = recovery.entries.len().saturating_sub(capacity.max(1));
        recovery.entries.drain(..excess);
        let mut log = CacheLog {
            log,
            live: HashMap::new(),
            live_bytes: 0,
            appends: 0,
            compactions: 0,
        };
        log.track(&recovery.entries);
        Ok((log, recovery))
    }

    /// Resets the live-byte model to exactly `entries`.
    fn track(&mut self, entries: &[(u128, Arc<str>)]) {
        self.live = (entries.iter())
            .map(|(key, payload)| (*key, 24 + payload.len() as u64)) // + len, key, crc
            .collect();
        self.live_bytes = self.live.values().sum();
    }

    /// Appends one entry and hands it to the OS. The `persist-corrupt`
    /// fault site writes it with a wrong checksum, so recovery's
    /// truncate-and-warn path can be exercised on demand.
    ///
    /// # Errors
    ///
    /// Propagates the write failure; the caller downgrades it to a
    /// counter + warning (a full disk must not take serving down).
    pub fn append(&mut self, key: u128, payload: &str) -> std::io::Result<()> {
        let corrupt = fault_point!(Site::PersistCorrupt).is_some();
        let record = encode_record(key, payload, corrupt);
        self.log.append(&record)?;
        let size = record.len() as u64;
        if let Some(old) = self.live.insert(key, size) {
            self.live_bytes -= old;
        }
        self.live_bytes += size;
        self.appends += 1;
        Ok(())
    }

    /// True when dead bytes dominate and a compaction pass would pay
    /// for itself.
    #[must_use]
    pub fn needs_compaction(&self) -> bool {
        let file_bytes = self.log.bytes();
        file_bytes > COMPACT_MIN_BYTES && file_bytes > COMPACT_FACTOR * self.live_bytes.max(1)
    }

    /// Rewrites the log atomically from the cache's LRU-ordered snapshot
    /// (coldest first, so replay recency matches).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; on error the original log is untouched.
    pub fn compact(&mut self, entries: &[(u128, Arc<str>)]) -> std::io::Result<()> {
        let records = entries
            .iter()
            .flat_map(|(key, payload)| encode_record(*key, payload, false));
        self.log.compact(&records.collect::<Vec<u8>>())?;
        self.track(entries);
        self.compactions += 1;
        Ok(())
    }

    /// Lifetime (appends, compactions) counters for `/stats`.
    #[must_use]
    pub fn counters(&self) -> (u64, u64) {
        (self.appends, self.compactions)
    }

    /// Current file size in bytes.
    #[must_use]
    pub fn file_bytes(&self) -> u64 {
        self.log.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "bsched-persist-{tag}-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32 check: crc32("123456789") == 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrips_appends_through_reopen() {
        let path = tmp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let (mut log, rec) = CacheLog::open(&path, 16).unwrap();
            assert!(rec.entries.is_empty());
            log.append(1, "one").unwrap();
            log.append(2, "two").unwrap();
            log.append(1, "one-v2").unwrap();
        }
        let (_, rec) = CacheLog::open(&path, 16).unwrap();
        assert_eq!(rec.records, 3);
        assert!(rec.truncated_at.is_none());
        // Later record for key 1 wins, and holds its later (hotter)
        // position in replay order.
        let entries: Vec<(u128, &str)> = rec.entries.iter().map(|(k, p)| (*k, &**p)).collect();
        assert_eq!(entries, vec![(2, "two"), (1, "one-v2")]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn recovery_respects_capacity_keeping_the_hot_tail() {
        let path = tmp_path("capacity");
        let _ = std::fs::remove_file(&path);
        {
            let (mut log, _) = CacheLog::open(&path, 16).unwrap();
            for k in 0..10u128 {
                log.append(k, "p").unwrap();
            }
        }
        let (_, rec) = CacheLog::open(&path, 3).unwrap();
        let keys: Vec<u128> = rec.entries.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![7, 8, 9], "only the most recent fit");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_never_resurrected() {
        let path = tmp_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let (mut log, _) = CacheLog::open(&path, 16).unwrap();
            log.append(1, "alpha").unwrap();
            log.append(2, "beta").unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        // Tear the file at every offset inside the *second* record and
        // verify: no panic, first record survives, second never does.
        let first_end = MAGIC.len() + (4 + 16 + 5 + 4);
        for cut in first_end..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (_, rec) = CacheLog::open(&path, 16).unwrap();
            let entries: Vec<(u128, &str)> = rec.entries.iter().map(|(k, p)| (*k, &**p)).collect();
            assert_eq!(entries, vec![(1, "alpha")], "cut at {cut}");
            if cut == first_end {
                // Cut exactly on a record boundary: the file is simply
                // shorter, not torn.
                assert_eq!(rec.truncated_at, None, "cut at {cut}");
            } else {
                assert_eq!(rec.truncated_at, Some(first_end as u64), "cut at {cut}");
                assert_eq!(
                    std::fs::metadata(&path).unwrap().len(),
                    first_end as u64,
                    "file physically truncated at {cut}"
                );
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_crc_cuts_the_log_there() {
        let path = tmp_path("badcrc");
        let _ = std::fs::remove_file(&path);
        {
            let (mut log, _) = CacheLog::open(&path, 16).unwrap();
            log.append(1, "good").unwrap();
            log.append(2, "flipped").unwrap();
            log.append(3, "after").unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte inside record 2: its CRC no longer
        // matches, so recovery must stop before it — record 3 is past
        // the torn point and must NOT be resurrected.
        let rec2_payload = MAGIC.len() + (4 + 16 + 4 + 4) + 4 + 16;
        bytes[rec2_payload] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (_, rec) = CacheLog::open(&path, 16).unwrap();
        let entries: Vec<u128> = rec.entries.iter().map(|(k, _)| *k).collect();
        assert_eq!(entries, vec![1]);
        assert!(rec.truncated_at.is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn foreign_header_is_discarded_not_parsed() {
        let path = tmp_path("foreign");
        std::fs::write(&path, b"not a cache log at all\njunk").unwrap();
        let (mut log, rec) = CacheLog::open(&path, 16).unwrap();
        assert!(rec.entries.is_empty());
        log.append(9, "fresh").unwrap();
        drop(log);
        let (_, rec) = CacheLog::open(&path, 16).unwrap();
        assert_eq!(rec.entries.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compaction_drops_dead_bytes_and_preserves_order() {
        let path = tmp_path("compact");
        let _ = std::fs::remove_file(&path);
        let (mut log, _) = CacheLog::open(&path, 16).unwrap();
        for round in 0..50 {
            for k in 0..4u128 {
                log.append(k, &format!("payload-{round}")).unwrap();
            }
        }
        let before = log.file_bytes();
        let snapshot: Vec<(u128, Arc<str>)> = vec![(2, Arc::from("cold")), (0, Arc::from("hot"))];
        log.compact(&snapshot).unwrap();
        assert!(log.file_bytes() < before);
        assert_eq!(log.counters().1, 1);
        // Post-compaction appends land after the snapshot records.
        log.append(5, "new").unwrap();
        drop(log);
        let (_, rec) = CacheLog::open(&path, 16).unwrap();
        let entries: Vec<(u128, &str)> = rec.entries.iter().map(|(k, p)| (*k, &**p)).collect();
        assert_eq!(entries, vec![(2, "cold"), (0, "hot"), (5, "new")]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn needs_compaction_tracks_dead_ratio() {
        let path = tmp_path("ratio");
        let _ = std::fs::remove_file(&path);
        let (mut log, _) = CacheLog::open(&path, 16).unwrap();
        assert!(!log.needs_compaction(), "fresh log never compacts");
        // One key overwritten many times with a big payload: file bytes
        // grow, live bytes stay one record.
        let big = "x".repeat(8 * 1024);
        for _ in 0..40 {
            log.append(1, &big).unwrap();
        }
        assert!(log.needs_compaction());
        log.compact(&[(1, Arc::from(&*big))]).unwrap();
        assert!(!log.needs_compaction());
        let _ = std::fs::remove_file(&path);
    }
}
