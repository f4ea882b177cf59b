//! The on-disk journal formats are a compatibility contract: a journal
//! written by an earlier build must resume bit-identically and, once
//! reopened or re-recorded, rewrite byte-identically. The literal files
//! below are in exactly the format the table harness (`bsched-journal-v1`)
//! and the autotuner (`bsched-tune-journal-v1`) have always written.

use std::f64::consts::PI;
use std::path::{Path, PathBuf};

use balanced_scheduling::analyze::journal::{temp_path, unhex, Journal};
use balanced_scheduling::analyze::json::Json;
use balanced_scheduling::analyze::FailureKind;
use balanced_scheduling::tune::{CandidateOutcome, TuneJournal};
use bsched_bench::journal::{Journal as BenchJournal, JournalEntry};

const BENCH_FP: &str = "v1;seed=7;runs=30;cells=2;shape=0123456789abcdef;faults=none";

/// An ok cell (whose bootstrap carries `PI/3`, a float with no short
/// decimal form) and a failed cell whose reason needs escaping.
const BENCH: &str = r#"{"journal":"bsched-journal-v1","fingerprint":"v1;seed=7;runs=30;cells=2;shape=0123456789abcdef;faults=none"}
{"key":"MDG|N(2,2) @ 2|UNLIMITED","status":"ok","imp":{"mean":"4023c00000000000","low":"bff8000000000000","high":"4028800000000000","level":"3fee666666666666"},"trad":{"boot":["4059000000000000","4059600000000000","3ff0c152382d7365"],"mean":"4059300000000000","dyn":"4045000000000000","ilk":"401c800000000000"},"bal":{"boot":["4056800000000000","4056e00000000000"],"mean":"4056b00000000000","dyn":"4045000000000000","ilk":"4008000000000000"},"tspill":"3ff4000000000000","bspill":"4004000000000000"}
{"key":"TRACK|L80(5)|MAX-8","status":"failed","kind":"timeout","reason":"timed out after 5s \"hard\""}
"#;

const TUNE_FP: &str = "6e5a11a9c11c31b6";

/// A score (`PI/3`), a timeout and a failure.
const TUNE: &str = r#"{"journal":"bsched-tune-journal-v1","fingerprint":"6e5a11a9c11c31b6"}
{"candidate":"family=balanced;rounding=nearest;ties=pressure+,exposed+","status":"ok","score":"3ff0c152382d7365"}
{"candidate":"family=average;rounding=nearest;ties=","status":"timeout"}
{"candidate":"family=traditional;rounding=floor;ties=exposed-","status":"failed","reason":"alloc: spill pool exhausted"}
"#;

const MDG: &str = "MDG|N(2,2) @ 2|UNLIMITED";
const TRACK: &str = "TRACK|L80(5)|MAX-8";
const BALANCED: &str = "family=balanced;rounding=nearest;ties=pressure+,exposed+";
const AVERAGE: &str = "family=average;rounding=nearest;ties=";
const TRADITIONAL: &str = "family=traditional;rounding=floor;ties=exposed-";

/// A fresh scratch directory per test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bsched-journal-format-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap()
}

fn bits(vs: &[f64]) -> Vec<u64> {
    vs.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn bench_journal_resumes_bit_identically_and_rewrites_byte_identically() {
    let dir = scratch("bench");
    let path = dir.join("journal.jsonl");
    std::fs::write(&path, BENCH).unwrap();

    let j = BenchJournal::open(&path, BENCH_FP).unwrap();
    assert_eq!((j.len(), j.discarded()), (2, 0));
    assert_eq!(read(&path), BENCH, "reopening rewrites byte-identically");

    let ok = j.lookup(MDG).expect("ok cell resumes");
    let JournalEntry::Ok(cell) = &ok else {
        panic!("expected an ok cell, got {ok:?}");
    };
    let imp = &cell.improvement;
    assert_eq!(
        bits(&[imp.mean_percent, imp.interval.low, imp.interval.high]),
        bits(&[9.875, -1.5, 12.25])
    );
    assert_eq!(imp.interval.level.to_bits(), 0.95f64.to_bits());
    let (t, b) = (&cell.traditional, &cell.balanced);
    assert_eq!(bits(&t.bootstrap_runtimes), bits(&[100.0, 101.5, PI / 3.0]));
    assert_eq!(
        bits(&[t.mean_runtime, t.dynamic_instructions, t.mean_interlocks]),
        bits(&[100.75, 42.0, 7.125])
    );
    assert_eq!(bits(&b.bootstrap_runtimes), bits(&[90.0, 91.5]));
    assert_eq!(
        bits(&[b.mean_runtime, b.dynamic_instructions, b.mean_interlocks]),
        bits(&[90.75, 42.0, 3.0])
    );
    assert_eq!(
        bits(&[cell.traditional_spill_percent, cell.balanced_spill_percent]),
        bits(&[1.25, 2.5])
    );

    let failed = j.lookup(TRACK).expect("failed cell resumes");
    let JournalEntry::Failed { kind, reason } = &failed else {
        panic!("expected a failed cell, got {failed:?}");
    };
    assert_eq!(*kind, FailureKind::Timeout);
    assert_eq!(reason, "timed out after 5s \"hard\"");

    // Re-recording what was resumed renders the very same lines.
    j.record(MDG, &ok);
    j.record(TRACK, &failed);
    assert_eq!(read(&path), BENCH, "re-recording rewrites byte-identically");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tune_journal_resumes_bit_identically_and_rewrites_byte_identically() {
    let dir = scratch("tune");
    let path = dir.join("journal.jsonl");
    std::fs::write(&path, TUNE).unwrap();

    let j = TuneJournal::open(&path, TUNE_FP).unwrap();
    assert_eq!((j.len(), j.discarded()), (3, 0));
    assert_eq!(read(&path), TUNE, "reopening rewrites byte-identically");

    let Some(CandidateOutcome::Score(score)) = j.lookup(BALANCED) else {
        panic!("expected a score");
    };
    assert_eq!(score.to_bits(), (PI / 3.0).to_bits());
    assert_eq!(j.lookup(AVERAGE), Some(CandidateOutcome::TimedOut));
    assert_eq!(
        j.lookup(TRADITIONAL),
        Some(CandidateOutcome::Failed(
            "alloc: spill pool exhausted".into()
        ))
    );

    for key in [BALANCED, AVERAGE, TRADITIONAL] {
        j.record(key, &j.lookup(key).unwrap());
    }
    assert_eq!(read(&path), TUNE, "re-recording rewrites byte-identically");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_changed_fingerprint_or_kind_discards_the_whole_file() {
    let dir = scratch("mismatch");
    let bench = dir.join("bench.jsonl");
    let tune = dir.join("tune.jsonl");

    std::fs::write(&bench, BENCH).unwrap();
    let j = BenchJournal::open(&bench, "other").unwrap();
    assert!(j.is_empty() && j.lookup(MDG).is_none() && j.lookup(TRACK).is_none());
    assert_eq!(j.discarded(), 2, "the discard is counted, not silent");

    std::fs::write(&tune, TUNE).unwrap();
    let j = TuneJournal::open(&tune, "other").unwrap();
    assert!(j.is_empty());
    assert_eq!(j.discarded(), 3);

    // Same fingerprint, other journal kind: the magic differs, so a tune
    // journal never resumes as a bench journal (and its candidate lines
    // do not even parse as cells).
    std::fs::write(&tune, TUNE).unwrap();
    let j = BenchJournal::open(&tune, TUNE_FP).unwrap();
    assert!(j.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_lines_and_signed_hex_are_skipped_not_resumed() {
    let dir = scratch("torn");
    let path = dir.join("journal.jsonl");
    let header = TUNE.lines().next().unwrap();
    let signed = "{\"candidate\":\"c-signed\",\"status\":\"ok\",\"score\":\"+000000000000001\"}";
    let good = "{\"candidate\":\"c-good\",\"status\":\"ok\",\"score\":\"0000000000000001\"}";
    let torn = "{\"candidate\":\"c-torn\",\"status\":\"ok\",\"sco";
    std::fs::write(&path, format!("{header}\n{signed}\n{good}\n{torn}")).unwrap();
    let j = TuneJournal::open(&path, TUNE_FP).unwrap();
    assert_eq!(j.len(), 1);
    assert_eq!(j.lookup("c-signed"), None, "a signed hex float is rejected");
    assert_eq!(
        j.lookup("c-good"),
        Some(CandidateOutcome::Score(f64::from_bits(1)))
    );
    assert_eq!(read(&path), format!("{header}\n{good}\n"));

    // The cell codec shares the strict decoder.
    let ok = BENCH.lines().nth(1).unwrap();
    let bench_signed = ok.replace(
        "\"tspill\":\"3ff4000000000000\"",
        "\"tspill\":\"+ff4000000000000\"",
    );
    assert_ne!(bench_signed, ok);
    std::fs::write(
        &path,
        format!("{}\n{bench_signed}\n", BENCH.lines().next().unwrap()),
    )
    .unwrap();
    assert!(BenchJournal::open(&path, BENCH_FP).unwrap().is_empty());

    assert_eq!(unhex(&Json::Str("+000000000000001".into())), None);
    assert_eq!(
        unhex(&Json::Str("0000000000000001".into())).map(f64::to_bits),
        Some(1)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_journal_named_tmp_never_shares_its_temp_file() {
    for name in ["x.tmp", "run.json", "run.jsonl", "journal"] {
        assert_ne!(temp_path(Path::new(name)), Path::new(name), "{name}");
    }
    assert_ne!(
        temp_path(Path::new("run.json")),
        temp_path(Path::new("run.jsonl"))
    );

    let dir = scratch("tmpname");
    let path = dir.join("x.tmp");
    let j: Journal<CandidateOutcome> = Journal::open(&path, TUNE_FP).unwrap();
    j.record(BALANCED, &CandidateOutcome::Score(PI / 3.0));
    assert!(!temp_path(&path).exists(), "the temp file is renamed away");
    drop(j);
    let j = TuneJournal::open(&path, TUNE_FP).unwrap();
    assert_eq!(j.len(), 1, "a journal at x.tmp resumes");
    let _ = std::fs::remove_dir_all(&dir);
}
