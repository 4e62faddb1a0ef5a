//! Findings baselines: snapshot the current diagnostics so CI fails only
//! on *new* findings while legacy ones are burned down over time.
//!
//! A baseline is a plain text file, one entry per line:
//!
//! ```text
//! CODE<TAB>file/path.rs<TAB>count
//! ```
//!
//! Entries are keyed by `(code, file)` with a *count*, not by line number —
//! line-keyed baselines churn on every unrelated edit, while count-keyed
//! ones only trip when a file genuinely gains a new instance of a code.
//! Lines starting with `#` are comments. The file is sorted so diffs stay
//! minimal.

use crate::diag::Diagnostic;
use std::collections::BTreeMap;

/// Parsed baseline: (code, file) → allowed count.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Baseline {
    entries: BTreeMap<(String, String), usize>,
}

impl Baseline {
    /// Parse a baseline file's contents. Malformed lines are reported as
    /// errors (a silently-skipped entry would un-baseline real findings).
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut entries = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split('\t');
            let (Some(code), Some(file), Some(count)) = (parts.next(), parts.next(), parts.next())
            else {
                return Err(format!(
                    "baseline line {}: expected CODE<TAB>file<TAB>count, got {:?}",
                    n + 1,
                    line
                ));
            };
            let count: usize = count
                .parse()
                .map_err(|_| format!("baseline line {}: bad count {:?}", n + 1, count))?;
            entries.insert((code.to_string(), file.to_string()), count);
        }
        Ok(Baseline { entries })
    }

    /// Snapshot a set of diagnostics into a baseline.
    pub fn from_diags<'d>(diags: impl IntoIterator<Item = &'d Diagnostic>) -> Baseline {
        let mut entries: BTreeMap<(String, String), usize> = BTreeMap::new();
        for d in diags {
            *entries
                .entry((d.code.to_string(), d.file.clone()))
                .or_insert(0) += 1;
        }
        Baseline { entries }
    }

    /// Render to the on-disk format.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# planet-check findings baseline.\n\
             # One entry per (code, file): findings up to `count` are tolerated;\n\
             # regenerate with `planet-check --write-baseline <this file>`.\n",
        );
        for ((code, file), count) in &self.entries {
            out.push_str(&format!("{code}\t{file}\t{count}\n"));
        }
        out
    }

    /// Split `diags` into (new, baselined). For each (code, file) group the
    /// first `allowed` diagnostics (in line order — `diags` must be sorted)
    /// count as baselined; any excess is new.
    pub fn filter<'d>(
        &self,
        diags: &'d [Diagnostic],
    ) -> (Vec<&'d Diagnostic>, Vec<&'d Diagnostic>) {
        let mut used: BTreeMap<(String, String), usize> = BTreeMap::new();
        let mut fresh = Vec::new();
        let mut old = Vec::new();
        for d in diags {
            let key = (d.code.to_string(), d.file.clone());
            let allowed = self.entries.get(&key).copied().unwrap_or(0);
            let u = used.entry(key).or_insert(0);
            if *u < allowed {
                *u += 1;
                old.push(d);
            } else {
                fresh.push(d);
            }
        }
        (fresh, old)
    }

    /// Number of baseline entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the baseline has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Diagnostic;

    fn d(code: &'static str, file: &str, line: u32) -> Diagnostic {
        Diagnostic::error(code, file, line, "msg".to_string())
    }

    #[test]
    fn roundtrip() {
        let diags = vec![
            d("TIME003", "a.rs", 3),
            d("TIME003", "a.rs", 9),
            d("CB002", "b.rs", 1),
        ];
        let b = Baseline::from_diags(&diags);
        let b2 = Baseline::parse(&b.render()).expect("parses");
        assert_eq!(b, b2);
    }

    #[test]
    fn excess_findings_are_new() {
        let base = Baseline::parse("TIME003\ta.rs\t1\n").expect("parses");
        let diags = vec![d("TIME003", "a.rs", 3), d("TIME003", "a.rs", 9)];
        let (fresh, old) = base.filter(&diags);
        assert_eq!(old.len(), 1);
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].line, 9, "later finding counted as new");
    }

    #[test]
    fn unlisted_code_is_new() {
        let base = Baseline::parse("# empty\n").expect("parses");
        let diags = vec![d("PANIC001", "x.rs", 1)];
        let (fresh, old) = base.filter(&diags);
        assert_eq!((fresh.len(), old.len()), (1, 0));
    }

    #[test]
    fn malformed_line_errors() {
        assert!(
            Baseline::parse("TIME003 a.rs 1\n").is_err(),
            "spaces not tabs"
        );
        assert!(Baseline::parse("TIME003\ta.rs\tmany\n").is_err());
    }
}
