//! Restart-proof cache: an append-only on-disk log of cache entries.
//!
//! A `bsched serve` daemon's content-addressed cache is pure derived
//! state — every entry can be recomputed — but recomputation is exactly
//! the cost the cache exists to avoid, and a fleet that loses its warm
//! state on every restart fails its latency targets for minutes after
//! each deploy. This module makes the cache survive the process.
//!
//! The format follows the evaluation journals' discipline (see
//! [`bsched_analyze::journal`]): exact bytes, atomic replacement,
//! and recovery that *degrades* instead of crashing.
//!
//! ## On-disk format
//!
//! ```text
//! bsched-cachelog-v1\n                      ← magic + version header
//! [u32 len][u128 key][payload][u32 crc]     ← record, repeated
//! ```
//!
//! All integers are little-endian. `len` is the payload's byte length;
//! `key` is the cache's 128-bit content hash; `payload` is the UTF-8
//! response fragment; `crc` is CRC-32 (IEEE) over `len ‖ key ‖ payload`.
//! Appends are flushed per record, so at most the record being written
//! when the process dies can be torn.
//!
//! ## Recovery
//!
//! Records are replayed oldest-first; a later record for the same key
//! wins, and replay order doubles as LRU recency, so a warm-started
//! cache has the same hot set it died with (bounded by capacity). The
//! first record that is short, oversized, CRC-mismatched, or not UTF-8
//! ends the replay: the file is truncated back to the last good record
//! with a warning on stderr — **never** a crash, and never a record
//! resurrected from beyond the torn point (acceptance criterion of the
//! `persist-corrupt` chaos fault).
//!
//! ## Compaction
//!
//! Dead bytes (overwritten or evicted records) accumulate until the
//! file is ~4× its live payload, then the server rewrites it from the
//! cache's LRU-ordered snapshot via [`write_atomic`] — the same
//! atomic-replacement writer the journals use, so a crash during
//! compaction leaves either the old log or the new one, both valid.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bsched_analyze::journal::write_atomic;
use bsched_faults::{fault_point, Site};

/// Magic first line: identifies the file and pins the record format.
/// Bump the version if the record layout ever changes — recovery
/// discards (and warns about) files whose header does not match, like
/// the journal's fingerprint discipline.
const MAGIC: &[u8] = b"bsched-cachelog-v1\n";

/// Upper bound on a single payload. Real response payloads are a few
/// KiB; anything claiming to be larger is a corrupt length field, and
/// treating it as torn tail (instead of allocating it) keeps recovery
/// robust against garbage.
const MAX_PAYLOAD: usize = 16 * 1024 * 1024;

/// Compaction triggers when the file exceeds this multiple of its live
/// bytes…
const COMPACT_FACTOR: u64 = 4;
/// …but never below this size — rewriting a tiny file buys nothing.
const COMPACT_MIN_BYTES: u64 = 64 * 1024;

/// CRC-32 (IEEE 802.3) lookup table, built at compile time. Hand-rolled
/// because the workspace vendors no checksum crate; the polynomial is
/// the reflected 0xEDB88320 everyone else (zlib, PNG, ethernet) uses,
/// so external tools can verify records.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes`.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFF_u32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// One record's bytes: `[len][key][payload][crc]`, ready to append.
fn encode_record(key: u128, payload: &str, corrupt_crc: bool) -> Vec<u8> {
    let len = u32::try_from(payload.len()).unwrap_or(u32::MAX);
    let mut body = Vec::with_capacity(4 + 16 + payload.len() + 4);
    body.extend_from_slice(&len.to_le_bytes());
    body.extend_from_slice(&key.to_le_bytes());
    body.extend_from_slice(payload.as_bytes());
    let mut crc = crc32(&body);
    if corrupt_crc {
        // The `persist-corrupt` fault: the record body is intact but
        // the checksum is wrong, exactly what a kill between the
        // payload write and the crc write leaves behind.
        crc ^= 0xDEAD_BEEF;
    }
    body.extend_from_slice(&crc.to_le_bytes());
    body
}

fn record_size(payload_len: usize) -> u64 {
    4 + 16 + payload_len as u64 + 4
}

/// What [`CacheLog::open`] recovered from an existing log.
pub struct Recovery {
    /// Live entries, oldest-first (replay order = LRU recency), one per
    /// key (the latest record wins), capped to the cache capacity.
    pub entries: Vec<(u128, Arc<str>)>,
    /// Valid records scanned, including ones later records superseded.
    pub records: usize,
    /// Byte offset the file was truncated to when a torn or corrupt
    /// tail was found; `None` when the whole file was valid.
    pub truncated_at: Option<u64>,
}

/// The append-only cache log behind `--cache-log PATH`.
pub struct CacheLog {
    path: PathBuf,
    file: File,
    /// Latest record size per key the log believes is live. Evictions
    /// the cache performs are invisible here, so this *overestimates*
    /// live bytes — which only delays compaction, never corrupts it
    /// (compaction rewrites from the cache's own snapshot).
    live: HashMap<u128, u64>,
    file_bytes: u64,
    live_bytes: u64,
    appends: u64,
    compactions: u64,
}

impl CacheLog {
    /// Opens (or creates) the log at `path` and recovers its contents.
    ///
    /// A missing file is created with just the header. A header
    /// mismatch discards the file (with a warning) rather than guessing
    /// at a foreign format. A torn or corrupt tail is truncated back to
    /// the last valid record (with a warning). None of these crash.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors opening, reading, or truncating the file —
    /// a log that cannot be *accessed* is a configuration error, unlike
    /// one that is merely damaged.
    pub fn open(path: &Path, capacity: usize) -> std::io::Result<(CacheLog, Recovery)> {
        let mut raw = Vec::new();
        let fresh = match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut raw)?;
                false
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => true,
            Err(e) => return Err(e),
        };
        if !fresh && !raw.starts_with(MAGIC) {
            eprintln!(
                "bsched-serve: cache log {} has an unrecognized header; discarding it",
                path.display()
            );
            raw.clear();
        }
        let (scanned, records, valid_end) = scan_records(&raw);
        let truncated_at = (!raw.is_empty() && valid_end < raw.len() as u64).then_some(valid_end);

        // Rewrite the file when anything needs cutting (or it is new):
        // truncate(2) via set_len covers the torn-tail case, and a full
        // header rewrite covers the discarded-foreign-file case.
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(path)?;
        let disk_len = file.metadata()?.len();
        if raw.is_empty() && disk_len > 0 {
            // Foreign header: start over atomically-enough (the old
            // content was unusable regardless of where a crash lands).
            file.set_len(0)?;
        }
        if file.metadata()?.len() == 0 {
            file.write_all(MAGIC)?;
            file.sync_all()?;
        } else if let Some(at) = truncated_at {
            eprintln!(
                "bsched-serve: cache log {} has a torn or corrupt tail; \
                 truncating {} -> {} bytes ({} records recovered)",
                path.display(),
                raw.len(),
                at,
                records
            );
            file.set_len(at)?;
            file.sync_all()?;
            file.seek(std::io::SeekFrom::End(0))?;
        }

        // Dedup: the latest record for a key wins, and keeps that
        // latest position in replay order (it is the key's most recent
        // use). Then cap to capacity — only the hottest tail fits.
        let mut last_index: HashMap<u128, usize> = HashMap::new();
        for (i, (key, _)) in scanned.iter().enumerate() {
            last_index.insert(*key, i);
        }
        let mut entries: Vec<(u128, Arc<str>)> = scanned
            .into_iter()
            .enumerate()
            .filter(|(i, (key, _))| last_index.get(key) == Some(i))
            .map(|(_, (key, payload))| (key, Arc::from(payload)))
            .collect();
        if entries.len() > capacity.max(1) {
            entries.drain(..entries.len() - capacity.max(1));
        }

        let mut live = HashMap::new();
        let mut live_bytes = 0u64;
        for (key, payload) in &entries {
            let size = record_size(payload.len());
            live.insert(*key, size);
            live_bytes += size;
        }
        let file_bytes = file.metadata()?.len();
        let log = CacheLog {
            path: path.to_path_buf(),
            file,
            live,
            file_bytes,
            live_bytes,
            appends: 0,
            compactions: 0,
        };
        let recovery = Recovery {
            entries,
            records,
            truncated_at,
        };
        Ok((log, recovery))
    }

    /// Appends one entry and flushes it to the OS.
    ///
    /// Subject to the `persist-corrupt` fault site, which writes the
    /// record with a wrong checksum — the shape a mid-write kill leaves
    /// — so recovery's truncate-and-warn path can be exercised on
    /// demand.
    ///
    /// # Errors
    ///
    /// Propagates the write failure; the caller downgrades it to a
    /// counter + warning (a full disk must not take serving down).
    pub fn append(&mut self, key: u128, payload: &str) -> std::io::Result<()> {
        let corrupt = fault_point!(Site::PersistCorrupt).is_some();
        let record = encode_record(key, payload, corrupt);
        self.file.write_all(&record)?;
        self.file.flush()?;
        self.file_bytes += record.len() as u64;
        let size = record_size(payload.len());
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
        self.file_bytes > COMPACT_MIN_BYTES
            && self.file_bytes > COMPACT_FACTOR * self.live_bytes.max(1)
    }

    /// Rewrites the log from the cache's LRU-ordered snapshot (coldest
    /// first, so replay recency matches) via [`write_atomic`].
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; on error the original log is untouched
    /// (the temp file may linger, and is overwritten next time).
    pub fn compact(&mut self, entries: &[(u128, Arc<str>)]) -> std::io::Result<()> {
        write_atomic(&self.path, |out| {
            out.write_all(MAGIC)?;
            for (key, payload) in entries {
                out.write_all(&encode_record(*key, payload, false))?;
            }
            Ok(())
        })?;
        // Reopen the append handle on the new inode: the old handle
        // still points at the renamed-over file.
        self.file = OpenOptions::new()
            .append(true)
            .read(true)
            .open(&self.path)?;
        self.file.sync_all()?;
        self.live.clear();
        self.live_bytes = 0;
        for (key, payload) in entries {
            let size = record_size(payload.len());
            self.live.insert(*key, size);
            self.live_bytes += size;
        }
        self.file_bytes = self.file.metadata()?.len();
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
        self.file_bytes
    }
}

/// Scans raw file bytes into `(key, payload)` records. Returns the
/// records in file order, the count, and the byte offset of the end of
/// the last valid record (everything past it is torn or corrupt).
fn scan_records(raw: &[u8]) -> (Vec<(u128, String)>, usize, u64) {
    let mut out = Vec::new();
    if !raw.starts_with(MAGIC) {
        return (out, 0, 0);
    }
    let mut pos = MAGIC.len();
    loop {
        if pos + 4 > raw.len() {
            break; // torn inside a length prefix (or clean EOF)
        }
        let len = u32::from_le_bytes(raw[pos..pos + 4].try_into().unwrap()) as usize;
        if len > MAX_PAYLOAD {
            break; // corrupt length field
        }
        let body_end = pos + 4 + 16 + len;
        if body_end + 4 > raw.len() {
            break; // torn mid-record
        }
        let stored = u32::from_le_bytes(raw[body_end..body_end + 4].try_into().unwrap());
        if crc32(&raw[pos..body_end]) != stored {
            break; // corrupt record (bad bytes or injected fault)
        }
        let key = u128::from_le_bytes(raw[pos + 4..pos + 20].try_into().unwrap());
        let Ok(payload) = std::str::from_utf8(&raw[pos + 20..body_end]) else {
            break; // CRC passed but payload is not UTF-8: treat as torn
        };
        out.push((key, payload.to_owned()));
        pos = body_end + 4;
    }
    let records = out.len();
    (out, records, pos as u64)
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
