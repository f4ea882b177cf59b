//! Crash-safe, resumable record logs and the workspace's one atomic
//! file writer.
//!
//! Results that cost real time — a Table 2 cell, a tuner candidate's
//! score, a served response — are logged so a killed process resumes
//! instead of recomputing. Each such file is a [`RecordLog`]: a header
//! line, then keyed records in one [`Codec`]'s format. **Open** discards
//! a file with another header whole (resuming must be bit-identical to
//! not crashing) and counts what it threw away. **Replay** lets the
//! newest record for a key win and cuts a torn tail. **Append** writes
//! one record, as durably as [`Codec::SYNC`] says. **Compact** rewrites
//! the file from its owner's snapshot through [`write_atomic`].
//!
//! [`Journal`], the table harness's and the tuner's format, is a header
//! `{"journal":MAGIC,"fingerprint":FP}` and one synced line per entry,
//! `{KEY:"key",…fields}` (the owner's [`Record`]). A line without its
//! newline is torn and cut; a complete line that does not parse is
//! skipped and compacted away. Floats are [`hex`] strings of
//! [`f64::to_bits`], so a resumed value is bit-for-bit the measured one.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::hash::Hash;
use std::io::Write as _;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::json::{self, Json};

/// One record format on a [`RecordLog`].
pub trait Codec {
    /// A record's key; on replay the newest record for a key wins.
    type Key: Clone + Eq + Hash;
    /// A record's decoded value.
    type Value;
    /// Whether an append is synced to disk, or only handed to the OS.
    const SYNC: bool;
    /// True when a file whose first line is `line` (newline included) may resume.
    fn resumes(&self, line: &[u8]) -> bool;
    /// Decodes the record at the start of `bytes`: `None` for a torn or
    /// corrupt record, where replay stops; otherwise its nonzero length
    /// and its key and value, or `None` for a complete record to skip.
    #[allow(clippy::type_complexity)]
    fn decode(&self, bytes: &[u8]) -> Option<(usize, Option<(Self::Key, Self::Value)>)>;
}

/// What [`RecordLog::open`] found in an existing file.
pub struct Replay<K, V> {
    /// The newest record per key, oldest first.
    pub entries: Vec<(K, V)>,
    /// Records decoded, superseded ones included.
    pub records: usize,
    /// The header did not match: the file and its `records` were dropped.
    pub discarded: bool,
    /// Offset the file was cut back to at a torn or corrupt record.
    pub truncated_at: Option<u64>,
}

/// An append-only file of keyed records in one [`Codec`]'s format.
pub struct RecordLog {
    path: PathBuf,
    header: Vec<u8>,
    sync: bool,
    file: File,
    len: u64,
}

impl RecordLog {
    /// Opens (or creates) the log at `path` and replays it. A file with
    /// another header becomes `header` alone; one holding skipped
    /// records is compacted; a torn tail is cut off.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors creating, reading or repairing the file.
    #[allow(clippy::type_complexity)]
    pub fn open<C: Codec>(
        path: &Path,
        header: &[u8],
        codec: &C,
    ) -> std::io::Result<(Self, Replay<C::Key, C::Value>)> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let raw = std::fs::read(path)?;
        let first = raw.split_inclusive(|&b| b == b'\n').next().unwrap_or(&[]);
        let resumes = first.ends_with(b"\n") && codec.resumes(first);
        let (mut scanned, mut skipped, mut pos) = (Vec::new(), false, first.len());
        while pos < raw.len() {
            let Some((len, record)) = codec.decode(&raw[pos..]) else {
                break;
            };
            match record {
                Some((key, value)) => scanned.push((key, value, pos..pos + len)),
                None => skipped = true,
            }
            pos += len;
        }
        // The newest record for a key wins, at its own (later) position.
        let newest: HashMap<_, _> = (scanned.iter().enumerate())
            .map(|(i, r)| (r.0.clone(), i))
            .collect();
        let records = scanned.len();
        let (entries, live): (Vec<_>, Vec<_>) = (scanned.into_iter().enumerate())
            .filter(|(i, r)| resumes && newest[&r.0] == *i)
            .map(|(_, (key, value, range))| ((key, value), range))
            .unzip();
        let replay = Replay {
            entries,
            records,
            discarded: !resumes && !raw.is_empty(),
            truncated_at: (resumes && pos < raw.len()).then_some(pos as u64),
        };
        let mut log = RecordLog {
            path: path.to_path_buf(),
            header: header.to_vec(),
            sync: C::SYNC,
            file,
            len: raw.len() as u64,
        };
        if !resumes || skipped {
            let kept: Vec<u8> = live.into_iter().flat_map(|r| &raw[r]).copied().collect();
            log.compact(&kept)?;
        } else if let Some(at) = replay.truncated_at {
            log.file.set_len(at)?;
            log.file.sync_all()?;
            log.len = at;
        }
        Ok((log, replay))
    }

    /// Appends one encoded record, synced when the codec says so.
    ///
    /// # Errors
    ///
    /// Propagates the write failure.
    pub fn append(&mut self, record: &[u8]) -> std::io::Result<()> {
        self.file.write_all(record)?;
        if self.sync {
            self.file.sync_data()?;
        }
        self.len += record.len() as u64;
        Ok(())
    }

    /// Rewrites the log as its header followed by `records`, through
    /// [`write_atomic`], and reopens the append handle.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; on error the log on disk is untouched.
    pub fn compact(&mut self, records: &[u8]) -> std::io::Result<()> {
        write_atomic(&self.path, |f| {
            f.write_all(&self.header)?;
            f.write_all(records)
        })?;
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.len = self.file.metadata()?.len();
        Ok(())
    }

    /// Current file size in bytes.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.len
    }
}

/// One journaled entry kind: its header magic, key field and line codec.
pub trait Record: Clone + Sized {
    /// Header value identifying the journal kind and format version.
    const MAGIC: &'static str;
    /// Name of the field carrying each line's lookup key (written first).
    const KEY: &'static str;
    /// The line's remaining fields as comma-separated `"name":value`
    /// pairs, without braces.
    fn render(&self) -> String;
    /// Decodes an entry from its parsed line; `None` skips the line.
    fn parse(line: &Json) -> Option<Self>;
}

/// The JSONL codec of a [`Journal`] for one fingerprint: a record's value
/// is its entry and line.
struct Lines<R>(String, PhantomData<fn() -> R>);

impl<R: Record> Codec for Lines<R> {
    type Key = String;
    type Value = (R, String);
    const SYNC: bool = true;

    fn resumes(&self, line: &[u8]) -> bool {
        std::str::from_utf8(line).is_ok_and(|line| header_matches(line, R::MAGIC, &self.0))
    }

    fn decode(&self, bytes: &[u8]) -> Option<(usize, Option<(String, (R, String))>)> {
        let len = bytes.iter().position(|&b| b == b'\n')? + 1;
        let line = std::str::from_utf8(&bytes[..len]).ok();
        let record = line.and_then(|l| parse_line(l).map(|(k, r)| (k, (r, l.to_owned()))));
        Some((len, record))
    }
}

struct State<R> {
    /// `(key, line)` in file order, one per key; lines end in `\n`.
    lines: Vec<(String, String)>,
    /// Key → entry for lookup; mirrors `lines`.
    entries: HashMap<String, R>,
    log: RecordLog,
}

/// A crash-safe, resumable record of per-key outcomes.
pub struct Journal<R> {
    state: Mutex<State<R>>,
    /// Entries found on disk but thrown away because the file's
    /// fingerprint did not match this run's.
    discarded: usize,
}

impl<R: Record> Journal<R> {
    /// Opens (or creates) the journal at `path` for a run identified by
    /// `fingerprint`, resuming a matching one; any other is discarded
    /// whole and counted in [`discarded`](Journal::discarded).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors creating, reading or writing the file.
    pub fn open(path: impl Into<PathBuf>, fingerprint: &str) -> std::io::Result<Journal<R>> {
        let header = format!(
            "{{\"journal\":{},\"fingerprint\":{}}}\n",
            json::string(R::MAGIC),
            json::string(fingerprint)
        );
        let codec = Lines::<R>(fingerprint.to_owned(), PhantomData);
        let (log, replay) = RecordLog::open(&path.into(), header.as_bytes(), &codec)?;
        let (lines, entries) = replay
            .entries
            .into_iter()
            .map(|(key, (entry, line))| ((key.clone(), line), (key, entry)))
            .unzip();
        Ok(Journal {
            state: Mutex::new(State {
                lines,
                entries,
                log,
            }),
            discarded: if replay.discarded { replay.records } else { 0 },
        })
    }

    /// Number of recorded entries found on disk but discarded because
    /// the journal's fingerprint did not match this run's.
    #[must_use]
    pub fn discarded(&self) -> usize {
        self.discarded
    }

    /// The recorded entry for `key`, if any.
    #[must_use]
    pub fn lookup(&self, key: &str) -> Option<R> {
        self.state.lock().unwrap().entries.get(key).cloned()
    }

    /// Number of recorded entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().entries.len()
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records `entry` under `key`: a new key is one synced append. A
    /// key recorded again with the same line writes nothing; with a
    /// different line the journal compacts, keeping only the newest
    /// line. Write errors are reported to stderr — losing the journal
    /// must not fail the run itself.
    pub fn record(&self, key: &str, entry: &R) {
        let line = format!(
            "{{\"{}\":{},{}}}\n",
            R::KEY,
            json::string(key),
            entry.render()
        );
        let state = &mut *self.state.lock().unwrap();
        let written = if state
            .entries
            .insert(key.to_owned(), entry.clone())
            .is_none()
        {
            let written = state.log.append(line.as_bytes());
            state.lines.push((key.to_owned(), line));
            written
        } else if state.lines.iter().any(|(k, l)| k == key && *l == line) {
            return;
        } else {
            state.lines.retain(|(k, _)| k != key);
            state.lines.push((key.to_owned(), line));
            let text: String = state.lines.iter().map(|(_, l)| l.as_str()).collect();
            state.log.compact(text.as_bytes())
        };
        if let Err(e) = written {
            eprintln!("warning: journal {}: {e}", state.log.path.display());
        }
    }
}

fn header_matches(line: &str, magic: &str, fingerprint: &str) -> bool {
    let Some(v) = json::parse(line) else {
        return false;
    };
    v.get("journal").and_then(Json::as_str) == Some(magic)
        && v.get("fingerprint").and_then(Json::as_str) == Some(fingerprint)
}

fn parse_line<R: Record>(line: &str) -> Option<(String, R)> {
    let v = json::parse(line)?;
    let key = v.get(R::KEY)?.as_str()?.to_owned();
    Some((key, R::parse(&v)?))
}

/// The temp file [`write_atomic`] stages `path` in: `<path>.tmp`,
/// appended, so it never equals `path` itself (even when `path` ends in
/// `.tmp`) and `run.json` and `run.jsonl` never share one.
#[must_use]
pub fn temp_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

/// Replaces `path` atomically: `write` fills [`temp_path`]`(path)`,
/// which is `sync_all`ed and renamed over `path`. A crash at any instant
/// leaves either the old file or the complete new one, never a torn
/// mix.
///
/// # Errors
///
/// Propagates I/O failures; on error `path` is untouched (the temp file
/// may linger and is overwritten next time).
pub fn write_atomic(
    path: impl AsRef<Path>,
    write: impl FnOnce(&mut File) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let path = path.as_ref();
    let tmp = temp_path(path);
    let mut file = File::create(&tmp)?;
    write(&mut file)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)
}

/// One f64, bit-exact, as a 16-hex-digit JSON string (quotes included).
#[must_use]
pub fn hex(v: f64) -> String {
    format!("\"{:016x}\"", v.to_bits())
}

/// Decodes a [`hex`] string. Exactly 16 hex digits are accepted; a sign,
/// any other length, or a non-string yields `None`.
#[must_use]
pub fn unhex(v: &Json) -> Option<f64> {
    let s = v.as_str()?;
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

/// Mixes a byte string into a fingerprint accumulator (FNV-1a, 64-bit).
/// An accumulator of `0` starts from the FNV offset basis, so
/// `fingerprint_mix(0, b"")` is the empty-input hash. Drivers fold
/// everything that determines their results through this to derive a
/// journal header.
#[must_use]
pub fn fingerprint_mix(acc: u64, bytes: &[u8]) -> u64 {
    let mut h = if acc == 0 { 0xcbf2_9ce4_8422_2325 } else { acc };
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal record: an optional score, `None` meaning "failed".
    #[derive(Debug, Clone, PartialEq)]
    struct Score(Option<f64>);

    impl Record for Score {
        const MAGIC: &'static str = "test-journal-v1";
        const KEY: &'static str = "k";
        fn render(&self) -> String {
            match self.0 {
                Some(v) => format!("\"status\":\"ok\",\"v\":{}", hex(v)),
                None => "\"status\":\"failed\"".to_owned(),
            }
        }
        fn parse(line: &Json) -> Option<Self> {
            match line.get("status")?.as_str()? {
                "ok" => Some(Score(Some(unhex(line.get("v")?)?))),
                "failed" => Some(Score(None)),
                _ => None,
            }
        }
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bsched-analyze-journal-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn journal_survives_reopen_and_discards_other_fingerprints_whole() {
        let dir = scratch("reopen");
        let path = dir.join("results/.journal.jsonl");

        let j = Journal::<Score>::open(&path, "fp-a").expect("open");
        assert!(j.is_empty());
        j.record("a", &Score(Some(std::f64::consts::PI / 3.0)));
        j.record("b", &Score(None));
        assert_eq!(j.len(), 2);
        drop(j);

        let j = Journal::<Score>::open(&path, "fp-a").expect("reopen");
        assert_eq!(j.len(), 2, "matching fingerprint resumes");
        assert_eq!(j.discarded(), 0, "matching fingerprint discards nothing");
        let Some(Score(Some(v))) = j.lookup("a") else {
            panic!("expected a score");
        };
        assert_eq!(v.to_bits(), (std::f64::consts::PI / 3.0).to_bits());
        assert_eq!(j.lookup("b"), Some(Score(None)));
        drop(j);

        let j = Journal::<Score>::open(&path, "fp-b").expect("reopen changed");
        assert!(j.is_empty(), "changed fingerprint discards the journal");
        assert_eq!(j.discarded(), 2, "the discard is counted, not silent");
        assert!(j.lookup("a").is_none() && j.lookup("b").is_none());
        drop(j);

        // The mismatched file was truncated to a bare header, so a later
        // reopen under the new fingerprint has nothing to report.
        let j = Journal::<Score>::open(&path, "fp-b").expect("reopen truncated");
        assert!(j.is_empty());
        assert_eq!(j.discarded(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rerecording_a_key_keeps_only_the_newest_line() {
        let dir = scratch("rerecord");
        let path = dir.join("j.jsonl");
        let j = Journal::<Score>::open(&path, "fp").expect("open");
        j.record("a", &Score(None));
        j.record("b", &Score(Some(1.0)));
        j.record("a", &Score(Some(2.0)));
        assert_eq!(j.lookup("a"), Some(Score(Some(2.0))));
        let text = std::fs::read_to_string(&path).unwrap();
        let keys: Vec<&str> = text.lines().skip(1).map(|l| &l[..8]).collect();
        assert_eq!(keys, ["{\"k\":\"b\"", "{\"k\":\"a\""]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_last_line_is_cut_and_the_next_record_starts_clean() {
        let dir = scratch("torn-append");
        let path = dir.join("j.jsonl");
        let j = Journal::<Score>::open(&path, "fp").expect("open");
        j.record("a", &Score(Some(1.0)));
        drop(j);
        let whole = std::fs::read_to_string(&path).unwrap();
        let torn = "{\"k\":\"b\",\"status\":\"failed\"}";
        std::fs::write(&path, format!("{whole}{torn}")).unwrap();

        let j = Journal::<Score>::open(&path, "fp").expect("reopen torn");
        assert_eq!(j.len(), 1, "a line without its newline is torn");
        assert!(j.lookup("b").is_none());
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            whole,
            "cut on open"
        );
        j.record("c", &Score(None));
        drop(j);

        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(&whole) && text.ends_with('\n'));
        assert_eq!(text.lines().count(), 3, "the new record has its own line");
        let j = Journal::<Score>::open(&path, "fp").expect("reopen appended");
        assert_eq!(j.len(), 2);
        assert_eq!(j.lookup("c"), Some(Score(None)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_and_garbage_lines_are_skipped() {
        for line in [
            "",
            "not json at all",
            "{\"k\":\"x\",\"status\":\"ok\",",
            "{\"k\":\"x\",\"status\":\"weird\"}",
            "{\"other\":\"x\",\"status\":\"failed\"}",
            "[\"k\",\"x\"]",
        ] {
            assert!(parse_line::<Score>(line).is_none(), "{line:?}");
        }
        let line = "{\"k\":\"x\",\"status\":\"failed\"}";
        assert_eq!(parse_line(line), Some(("x".to_owned(), Score(None))));
    }

    #[test]
    fn header_mismatch_and_match() {
        let good = "{\"journal\":\"m\",\"fingerprint\":\"abc\"}";
        assert!(header_matches(good, "m", "abc"));
        assert!(!header_matches(good, "m", "xyz"));
        assert!(!header_matches(good, "other", "abc"));
        assert!(!header_matches("{}", "m", "abc"));
        assert!(!header_matches("", "m", "abc"));
    }

    #[test]
    fn hex_codec_is_bit_exact_and_strict() {
        for v in [0.0, -0.0, 1.5, std::f64::consts::PI / 3.0, f64::INFINITY] {
            let text = hex(v);
            let parsed = unhex(&json::parse(&text).unwrap()).unwrap();
            assert_eq!(parsed.to_bits(), v.to_bits());
        }
        for bad in [
            "+000000000000001",
            "-000000000000001",
            "3ff000000000000",
            "3ff00000000000000",
            "3ff000000000000g",
        ] {
            assert_eq!(unhex(&Json::Str(bad.to_owned())), None, "{bad:?}");
        }
        assert_eq!(unhex(&Json::Num(1.0)), None);
    }

    #[test]
    fn write_atomic_replaces_whole_files_via_an_appended_temp() {
        assert_eq!(temp_path(Path::new("x.tmp")), Path::new("x.tmp.tmp"));
        assert_ne!(
            temp_path(Path::new("run.json")),
            temp_path(Path::new("run.jsonl"))
        );
        let dir = scratch("atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.tmp");
        std::fs::write(&path, "old contents, longer than the new").unwrap();
        write_atomic(&path, |f| f.write_all(b"new")).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "new");
        assert!(!temp_path(&path).exists(), "the temp file is renamed away");
        let failed = write_atomic(&path, |_| Err(std::io::Error::other("boom")));
        assert!(failed.is_err());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "new");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_mix_is_fnv1a() {
        assert_eq!(fingerprint_mix(0, b""), 0xcbf2_9ce4_8422_2325);
        // Published FNV-1a 64 test vector.
        assert_eq!(fingerprint_mix(0, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            fingerprint_mix(fingerprint_mix(0, b"fo"), b"o"),
            fingerprint_mix(0, b"foo")
        );
    }
}
