//! Report triage: stable content-addressed report hashes, the
//! `.ridignore` suppression file, and new/resolved/unchanged diff
//! classification. The normative contract (hash inputs and guarantees,
//! `.ridignore` grammar, `rid diff` exit codes) lives in `REPORTS.md`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::cache::Fnv128;
use crate::ipp::IppReport;

/// Version tag folded into every report hash. Bump when the hashed field
/// set or its normalization changes — old hashes (in `.ridignore` files
/// and CI baselines) then stop matching instead of matching wrongly.
const HASH_VERSION: &str = "rid-report-hash/v1";

/// Stable content-addressed hash of one report: 32 lowercase hex digits.
///
/// Hashes the *structural identity* of the finding — function name,
/// refcount expression, the pair's change shape, the callback flag, and
/// the block-trace skeleton with block ids renumbered by first occurrence
/// (so inserting an unrelated function above this one, which shifts raw
/// block ids, does not move the hash). Path indices, the witness
/// constraint/model, and provenance are deliberately excluded: they vary
/// with enumeration details that do not change *which bug* is reported.
///
/// Guarantees (pinned by tests): equal across `--threads`, warm vs cold
/// cache, and edits to unrelated functions. Non-guarantees:
/// the hash moves when the pair's trace shape, refcount, or enclosing
/// function changes — renaming a function is a new finding.
#[must_use]
pub fn report_hash(report: &IppReport) -> String {
    let mut h = Fnv128::new();
    let write_str = |h: &mut Fnv128, s: &str| {
        h.write_u64(s.len() as u64);
        h.write(s.as_bytes());
    };
    write_str(&mut h, HASH_VERSION);
    write_str(&mut h, &report.function);
    write_str(&mut h, &report.refcount.to_string());
    h.write_u64(report.change_a as u64);
    h.write_u64(report.change_b as u64);
    h.write_u64(u64::from(report.callback));
    // First-occurrence renumbering shared across both traces: the skeleton
    // keeps which blocks the two paths share and in what order, while
    // forgetting the absolute ids.
    let mut renumber: BTreeMap<u32, u64> = BTreeMap::new();
    let mut skeleton = |h: &mut Fnv128, trace: &[rid_ir::BlockId]| {
        h.write_u64(trace.len() as u64);
        for block in trace {
            let next = renumber.len() as u64;
            let id = *renumber.entry(block.0).or_insert(next);
            h.write_u64(id);
        }
    };
    skeleton(&mut h, &report.trace_a);
    skeleton(&mut h, &report.trace_b);
    format!("{:032x}", h.finish())
}

/// How one report moved between a baseline and the current run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiffClass {
    /// Present now, absent from the baseline.
    New,
    /// Present in the baseline, absent now.
    Resolved,
    /// Present in both.
    Unchanged,
}

impl DiffClass {
    /// Stable lowercase label used in `rid diff` output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DiffClass::New => "new",
            DiffClass::Resolved => "resolved",
            DiffClass::Unchanged => "unchanged",
        }
    }
}

/// Result of diffing the current reports against a baseline hash list.
#[derive(Clone, Debug, Default)]
pub struct ReportDiff {
    /// `(hash, index into the current report slice)` for findings absent
    /// from the baseline. Only these can fail a CI gate.
    pub new: Vec<(String, usize)>,
    /// `(hash, index)` for findings present in both.
    pub unchanged: Vec<(String, usize)>,
    /// Baseline hashes with no current counterpart (with multiplicity).
    pub resolved: Vec<String>,
}

/// Classifies `reports` against a baseline of report hashes.
///
/// The comparison is a *multiset* match: the hash excludes path indices,
/// so two genuinely distinct reports can share a hash, and each baseline
/// occurrence absorbs exactly one current occurrence. Classification is
/// deterministic — reports are visited in slice order (the analysis
/// already sorts them) and baseline multiplicities deplete first-come.
#[must_use]
pub fn classify_reports(baseline: &[String], reports: &[IppReport]) -> ReportDiff {
    let mut remaining: BTreeMap<&str, usize> = BTreeMap::new();
    for hash in baseline {
        *remaining.entry(hash.as_str()).or_insert(0) += 1;
    }
    let mut diff = ReportDiff::default();
    for (index, report) in reports.iter().enumerate() {
        let hash = report_hash(report);
        match remaining.get_mut(hash.as_str()) {
            Some(count) if *count > 0 => {
                *count -= 1;
                diff.unchanged.push((hash, index));
            }
            _ => diff.new.push((hash, index)),
        }
    }
    for (hash, count) in remaining {
        for _ in 0..count {
            diff.resolved.push(hash.to_owned());
        }
    }
    diff
}

/// A parsed `.ridignore` suppression file.
///
/// Grammar (one entry per line; see `REPORTS.md`):
/// * blank lines and lines starting with `#` are ignored;
/// * a bare 32-lowercase-hex token suppresses the report with that hash;
/// * `pattern:<glob>` suppresses every report whose *function name*
///   matches the glob (`*` matches any run of characters; no other
///   metacharacters).
#[derive(Clone, Debug, Default)]
pub struct Ridignore {
    hashes: Vec<String>,
    patterns: Vec<String>,
}

impl Ridignore {
    /// Parses suppression-file text. Malformed lines are hard errors with
    /// their 1-based line number — a typo'd hash silently suppressing
    /// nothing is exactly the failure mode a CI gate must not have.
    pub fn parse(text: &str) -> Result<Ridignore, String> {
        let mut out = Ridignore::default();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(glob) = line.strip_prefix("pattern:") {
                let glob = glob.trim();
                if glob.is_empty() {
                    return Err(format!(".ridignore line {}: empty pattern", i + 1));
                }
                out.patterns.push(glob.to_owned());
            } else if line.len() == 32
                && line.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
            {
                out.hashes.push(line.to_owned());
            } else {
                return Err(format!(
                    ".ridignore line {}: expected a 32-hex report hash or \
                     `pattern:<glob>`, got `{line}`",
                    i + 1
                ));
            }
        }
        Ok(out)
    }

    /// Whether a report with this hash and function name is suppressed.
    #[must_use]
    pub fn suppresses(&self, hash: &str, function: &str) -> bool {
        self.hashes.iter().any(|h| h == hash)
            || self.patterns.iter().any(|p| glob_match(p, function))
    }

    /// Whether this exact hash entry is already present. `rid suppress`
    /// uses this for idempotent appends; pattern entries are deliberately
    /// not consulted — a broad pattern should not block recording the
    /// precise hash.
    #[must_use]
    pub fn contains_hash(&self, hash: &str) -> bool {
        self.hashes.iter().any(|h| h == hash)
    }

    /// Whether the file has no entries at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty() && self.patterns.is_empty()
    }

    /// Number of entries (hashes + patterns).
    #[must_use]
    pub fn len(&self) -> usize {
        self.hashes.len() + self.patterns.len()
    }

    /// Renders the file back out (used by `rid suppress` when creating a
    /// fresh file; appends preserve the existing text instead).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for hash in &self.hashes {
            let _ = writeln!(out, "{hash}");
        }
        for pattern in &self.patterns {
            let _ = writeln!(out, "pattern:{pattern}");
        }
        out
    }
}

/// `*`-only glob match (anchored at both ends).
fn glob_match(pattern: &str, text: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == text,
        Some((prefix, rest)) => {
            let Some(tail) = text.strip_prefix(prefix) else { return false };
            // Greedy-backtracking on the remaining `*` segments: each
            // segment must appear in order; the final one must be a suffix.
            let mut tail = tail;
            let mut segments = rest.split('*').peekable();
            while let Some(seg) = segments.next() {
                if segments.peek().is_none() {
                    return tail.ends_with(seg);
                }
                match tail.find(seg) {
                    Some(pos) => tail = &tail[pos + seg.len()..],
                    None => return false,
                }
            }
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rid_ir::BlockId;
    use rid_solver::{Conj, Term, Var};

    fn report(function: &str, trace_a: &[u32], trace_b: &[u32]) -> IppReport {
        IppReport {
            function: function.to_owned(),
            refcount: Term::var(Var::formal(0)).field("pm"),
            change_a: 1,
            change_b: 0,
            path_a: 0,
            path_b: 1,
            trace_a: trace_a.iter().map(|&b| BlockId(b)).collect(),
            trace_b: trace_b.iter().map(|&b| BlockId(b)).collect(),
            witness: Conj::truth(),
            callback: false,
            witness_model: Vec::new(),
            provenance: None,
        }
    }

    #[test]
    fn hash_is_32_lowercase_hex() {
        let h = report_hash(&report("f", &[0, 1], &[0, 2]));
        assert_eq!(h.len(), 32);
        assert!(h.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b)));
    }

    #[test]
    fn hash_ignores_path_indices_witness_and_provenance() {
        let a = report("f", &[0, 1], &[0, 2]);
        let mut b = a.clone();
        b.path_a = 7;
        b.path_b = 9;
        b.witness = Conj::unsat();
        b.witness_model = vec![(Term::int(0), 3)];
        assert_eq!(report_hash(&a), report_hash(&b));
    }

    #[test]
    fn hash_ignores_uniform_block_id_shift() {
        // An unrelated edit above the function shifts every raw block id;
        // first-occurrence renumbering makes the skeleton identical.
        let a = report("f", &[10, 11, 13], &[10, 12]);
        let b = report("f", &[20, 21, 23], &[20, 22]);
        assert_eq!(report_hash(&a), report_hash(&b));
    }

    #[test]
    fn hash_moves_when_the_pair_moves() {
        let base = report("f", &[0, 1], &[0, 2]);
        // Different trace shape (the pair now diverges elsewhere).
        assert_ne!(report_hash(&base), report_hash(&report("f", &[0, 1, 3], &[0, 2])));
        // Shared-block structure differs even at equal lengths.
        assert_ne!(report_hash(&base), report_hash(&report("f", &[0, 1], &[1, 2])));
        // Different function.
        assert_ne!(report_hash(&base), report_hash(&report("g", &[0, 1], &[0, 2])));
        // Different change shape.
        let mut other = base.clone();
        other.change_b = -1;
        assert_ne!(report_hash(&base), report_hash(&other));
        // Callback-contract findings are distinct findings.
        let mut cb = base;
        cb.callback = true;
        assert_ne!(report_hash(&report("f", &[0, 1], &[0, 2])), report_hash(&cb));
    }

    #[test]
    fn classify_is_a_multiset_diff() {
        let kept = report("f", &[0, 1], &[0, 2]);
        let gone_hash = report_hash(&report("g", &[0, 1], &[0, 2]));
        let fresh = report("h", &[0, 1], &[0, 2]);
        // Baseline has TWO copies of kept's hash but only one survives.
        let baseline =
            vec![report_hash(&kept), report_hash(&kept), gone_hash.clone()];
        let current = vec![kept, fresh.clone()];
        let diff = classify_reports(&baseline, &current);
        assert_eq!(diff.unchanged.len(), 1);
        assert_eq!(diff.unchanged[0].1, 0);
        assert_eq!(diff.new, vec![(report_hash(&fresh), 1)]);
        let mut resolved = diff.resolved.clone();
        resolved.sort();
        let mut expected = vec![report_hash(&current[0]), gone_hash];
        expected.sort();
        assert_eq!(resolved, expected);
    }

    #[test]
    fn ridignore_parses_hashes_patterns_comments() {
        let text = "# triaged 2026-08-07\n\n0123456789abcdef0123456789abcdef\npattern:vendor_*_probe\n";
        let ig = Ridignore::parse(text).unwrap();
        assert_eq!(ig.len(), 2);
        assert!(ig.suppresses("0123456789abcdef0123456789abcdef", "anything"));
        assert!(ig.suppresses("ffffffffffffffffffffffffffffffff", "vendor_x_probe"));
        assert!(!ig.suppresses("ffffffffffffffffffffffffffffffff", "vendor_x_remove"));
    }

    #[test]
    fn ridignore_rejects_malformed_lines_with_line_numbers() {
        let err = Ridignore::parse("0123\n").unwrap_err();
        assert!(err.contains("line 1"), "got: {err}");
        // Uppercase hex is not a valid entry (hashes are lowercase).
        assert!(Ridignore::parse("0123456789ABCDEF0123456789ABCDEF\n").is_err());
        let err = Ridignore::parse("# ok\npattern:\n").unwrap_err();
        assert!(err.contains("line 2"), "got: {err}");
    }

    #[test]
    fn ridignore_round_trips_through_render() {
        let text = "0123456789abcdef0123456789abcdef\npattern:foo_*\n";
        let ig = Ridignore::parse(text).unwrap();
        assert_eq!(ig.render(), text);
        assert!(Ridignore::parse("").unwrap().is_empty());
    }

    #[test]
    fn glob_semantics() {
        assert!(glob_match("foo", "foo"));
        assert!(!glob_match("foo", "foobar"));
        assert!(glob_match("foo*", "foobar"));
        assert!(glob_match("*bar", "foobar"));
        assert!(glob_match("f*b*r", "foobar"));
        assert!(!glob_match("f*b*z", "foobar"));
        assert!(glob_match("*", ""));
    }
}
