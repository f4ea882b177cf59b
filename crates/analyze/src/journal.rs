//! Crash-safe, resumable JSONL journals and the workspace's one atomic
//! file writer.
//!
//! Results that cost real time — a Table 2 cell (30 simulated runs plus
//! a bootstrap), an autotuner candidate's score — are journaled so a
//! killed run resumes instead of recomputing. A journal is a JSONL file:
//! a header line `{"journal":MAGIC,"fingerprint":FP}`, then one line per
//! recorded entry, `{KEY:"key",…fields}`. What an entry holds is its
//! owner's business, expressed as a [`Record`] (`bsched-bench`'s table
//! cells, `bsched-tune`'s candidate outcomes).
//!
//! * Every [`Journal::record`] rewrites the whole file through
//!   [`write_atomic`] (temp file, `sync_all`, rename), so the file on
//!   disk is always a complete, parseable prefix of the run: a kill at
//!   any instant loses at most the in-flight entry.
//! * The fingerprint names everything that determines entry values. A
//!   journal whose header does not match is discarded **whole**, never
//!   merged or partially resumed — resuming must be bit-identical to not
//!   having crashed — and the discard is counted
//!   ([`Journal::discarded`]) so callers report it rather than stay
//!   silent.
//! * Floats are written with [`hex`] as 16-hex-digit [`f64::to_bits`]
//!   strings, not decimal, so a resumed value is bit-for-bit the value
//!   that was measured.
//!
//! Unparseable lines (torn, hand-edited) are skipped individually, never
//! panicked on.

use std::collections::HashMap;
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::json::{self, Json};

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

struct State<R> {
    /// `(key, line)` in write order; the header is not included.
    lines: Vec<(String, String)>,
    /// Key → entry for lookup; mirrors `lines`.
    entries: HashMap<String, R>,
}

/// A crash-safe, resumable record of per-key outcomes.
pub struct Journal<R> {
    path: PathBuf,
    header: String,
    state: Mutex<State<R>>,
    /// Entries found on disk but thrown away because the file's
    /// fingerprint did not match this run's.
    discarded: usize,
}

impl<R: Record> Journal<R> {
    /// Opens (or creates) the journal at `path` for a run identified by
    /// `fingerprint`. An existing journal with a matching header is
    /// loaded for resumption; a mismatched or unparseable one is
    /// discarded whole, with the number of thrown-away entries reported
    /// via [`discarded`](Journal::discarded).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors creating the parent directory or writing
    /// the initial header.
    pub fn open(path: impl Into<PathBuf>, fingerprint: &str) -> std::io::Result<Journal<R>> {
        let path = path.into();
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let header = format!(
            "{{\"journal\":{},\"fingerprint\":{}}}",
            json::string(R::MAGIC),
            json::string(fingerprint)
        );
        let mut state = State {
            lines: Vec::new(),
            entries: HashMap::new(),
        };
        let mut discarded = 0;
        if let Ok(existing) = std::fs::read_to_string(&path) {
            let mut lines = existing.lines();
            let resumable = lines
                .next()
                .is_some_and(|first| header_matches(first, R::MAGIC, fingerprint));
            for line in lines {
                let Some((key, entry)) = parse_line::<R>(line) else {
                    continue;
                };
                if resumable {
                    state.entries.insert(key.clone(), entry);
                    state.lines.push((key, line.to_owned()));
                } else {
                    // Counted, so the discard can be reported, not silent.
                    discarded += 1;
                }
            }
        }
        let journal = Journal {
            path,
            header,
            state: Mutex::new(state),
            discarded,
        };
        journal.rewrite(&journal.state.lock().unwrap().lines)?;
        Ok(journal)
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

    /// Records `entry` under `key` and atomically rewrites the file.
    /// Re-recording a key replaces its entry and keeps only the newest
    /// line. Write errors are reported to stderr — losing the journal
    /// must not fail the run itself.
    pub fn record(&self, key: &str, entry: &R) {
        let line = format!(
            "{{\"{}\":{},{}}}",
            R::KEY,
            json::string(key),
            entry.render()
        );
        let mut state = self.state.lock().unwrap();
        let previous = state.entries.insert(key.to_owned(), entry.clone());
        if previous.is_some() {
            state.lines.retain(|(k, _)| k != key);
        }
        state.lines.push((key.to_owned(), line));
        if let Err(e) = self.rewrite(&state.lines) {
            eprintln!("warning: journal {}: {e}", self.path.display());
        }
    }

    fn rewrite(&self, lines: &[(String, String)]) -> std::io::Result<()> {
        let mut text = format!("{}\n", self.header);
        for (_, line) in lines {
            text.push_str(line);
            text.push('\n');
        }
        write_atomic(&self.path, |f| f.write_all(text.as_bytes()))
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
