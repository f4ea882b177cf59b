//! Output digests pinned under `expected/` for the default seeds.
//!
//! Each file holds one `NAME VALUE` line per checked output. A run
//! always recomputes the default-seed outputs and compares them here, in
//! addition to checking its own seed's outputs against the serial
//! reference paths, so any change to what the program computes fails
//! the run.

use std::collections::BTreeMap;

use crate::record::Outcome;

/// Default seed of the `tables` workload (`EvalConfig::default().seed`).
pub const TABLES_SEED: u64 = 0x5EED;
/// Default seed of the `tune` workload (the committed `BENCH_tune.json`).
pub const TUNE_SEED: u64 = 42;
/// Default seed of the serve workloads.
pub const SERVE_SEED: u64 = 1;

/// Pinned digests, by file and name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Expected {
    files: BTreeMap<String, BTreeMap<String, String>>,
}

impl Expected {
    /// The digests compiled into the benchmark.
    #[must_use]
    pub fn pinned() -> Expected {
        let mut e = Expected::default();
        e.load("tables", include_str!("../expected/tables.txt"));
        e.load("tune", include_str!("../expected/tune.txt"));
        e.load("serve-warm", include_str!("../expected/serve-warm.txt"));
        e
    }

    /// Adds (or replaces) one file's entries from its text.
    pub fn load(&mut self, file: &str, text: &str) {
        let entries = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .filter_map(|l| l.split_once(' '))
            .map(|(k, v)| (k.to_owned(), v.trim().to_owned()))
            .collect();
        self.files.insert(file.to_owned(), entries);
    }

    /// The pinned value of `name` in `file`.
    #[must_use]
    pub fn get(&self, file: &str, name: &str) -> Option<&str> {
        self.files.get(file)?.get(name).map(String::as_str)
    }

    /// Compares `actual` against the pinned file, recording every
    /// difference (and every pinned name left unchecked) on `out`. The
    /// actual lines are kept in the run record so a deliberate output
    /// change can re-pin them.
    pub fn verify(&self, file: &str, actual: &[(String, String)], out: &mut Outcome) {
        let empty = BTreeMap::new();
        let pinned = self.files.get(file).unwrap_or(&empty);
        for (name, value) in actual {
            match pinned.get(name) {
                Some(want) if want == value => {}
                Some(want) => out.mismatch(format!(
                    "{file}/{name}: digest {value} differs from pinned {want}"
                )),
                None => out.mismatch(format!("{file}/{name}: no pinned digest")),
            }
        }
        for name in pinned.keys() {
            if !actual.iter().any(|(n, _)| n == name) {
                out.mismatch(format!("{file}/{name}: pinned output not produced"));
            }
        }
        let lines: Vec<String> = actual.iter().map(|(n, v)| format!("{n} {v}")).collect();
        out.detail(
            &format!("actual_{}", file.replace('-', "_")),
            bsched_analyze::json::string(&lines.join("\n")),
        );
    }
}

/// 16-hex-digit rendering of a digest.
#[must_use]
pub fn hex(v: u64) -> String {
    format!("{v:016x}")
}

/// Digest of a float slice, bit-exact.
#[must_use]
pub fn floats(acc: u64, values: &[f64]) -> u64 {
    values
        .iter()
        .fold(acc, |h, v| crate::fnv(h, &v.to_bits().to_le_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tampered_digest_is_a_mismatch() {
        let mut e = Expected::default();
        e.load("tables", "# comment\nADM 0011\nBDNA 0022\n");
        let ok = [
            ("ADM".to_owned(), "0011".to_owned()),
            ("BDNA".to_owned(), "0022".to_owned()),
        ];
        let mut out = Outcome::default();
        e.verify("tables", &ok, &mut out);
        assert!(out.correct());
        let tampered = [
            ("ADM".to_owned(), "0011".to_owned()),
            ("BDNA".to_owned(), "0023".to_owned()),
        ];
        let mut out = Outcome::default();
        e.verify("tables", &tampered, &mut out);
        assert!(!out.correct());
        let mut out = Outcome::default();
        e.verify("tables", &ok[..1], &mut out);
        assert!(
            !out.correct(),
            "a pinned output that is not produced fails too"
        );
    }
}
