//! Second-stage refutation of IPP reports.
//!
//! Stage one ([`crate::ipp`]) is deliberately over-approximate: the
//! executor's feasibility checks and the joint-constraint check both run
//! under a bounded disequality split budget ([`rid_solver::SatOptions`])
//! and under per-function solver fuel, and every exhaustion degrades
//! toward "satisfiable" (§5.4 of the paper) — so a pair whose joint
//! constraint is *actually* unsatisfiable can still be reported when
//! proving that needed more case splits than the budget allowed.
//!
//! This module is the second stage: after the whole-program pass has
//! produced its reports (and the summary database is complete), each
//! surviving report's joint constraint is re-validated with disequality
//! splitting fully enabled (`max_splits = u32::MAX`) and with the
//! independently satisfiable constraints of single-entry callee
//! summaries conjoined cross-function through the existing
//! [`IncrementalSolver`] (see [`refute_report`] for why the
//! independent-satisfiability guard is what keeps the conjunction
//! sound). Three verdicts come out:
//!
//! * [`Refuted`](RefuteVerdict::Refuted) — the strengthened conjunction
//!   is unsatisfiable: the two paths can never be entered
//!   indistinguishably, the report is spurious and is **dropped**;
//! * [`Confirmed`](RefuteVerdict::Confirmed) — still satisfiable under
//!   the exact check: the report survives with positive evidence;
//! * [`Inconclusive`](RefuteVerdict::Inconclusive) — the refutation ran
//!   out of fuel (or the report carries no provenance to re-check). The
//!   report is **kept**: running out of budget is never treated as a
//!   refutation, preserving the paper's false-positives-only degradation
//!   direction end to end.
//!
//! The pass runs once per analysis, *after* cache write-back staging
//! (cached reports are stage-one reports, so warm runs re-refute
//! deterministically and stay byte-identical to cold runs), and at the
//! end of incremental re-analysis. There it
//! judges only the reports of re-analyzed functions: a carried-over
//! report keeps the verdict it already has, because its function lies
//! outside the affected cone, and the cone is closed under callers, so
//! nothing the verdict was judged against changed. See `DESIGN.md` §17.

use serde::{Deserialize, Serialize};

use rid_solver::{fuel, IncrementalSolver, SatOptions, Term, Var};

use crate::driver::AnalysisStats;
use crate::ipp::IppReport;
use crate::summary::SummaryDb;

/// Outcome of re-validating one report's joint constraints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefuteVerdict {
    /// The strengthened joint conjunction is satisfiable under exact
    /// disequality splitting: the inconsistency is real as far as the
    /// constraint abstraction can tell. The report is kept.
    Confirmed,
    /// The strengthened joint conjunction is unsatisfiable: the two paths
    /// are distinguishable after all and the report is dropped.
    Refuted,
    /// The refutation budget ran out (or the report has no provenance to
    /// re-check). Kept — exhaustion never refutes.
    Inconclusive,
}

impl RefuteVerdict {
    /// Stable lowercase label (matches the serde encoding).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RefuteVerdict::Confirmed => "confirmed",
            RefuteVerdict::Refuted => "refuted",
            RefuteVerdict::Inconclusive => "inconclusive",
        }
    }
}

impl Serialize for RefuteVerdict {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // The lowercase labels are the REPORTS.md contract; the derive
        // would emit the Rust variant names instead.
        serializer.serialize_value(serde::Value::Str(self.label().to_owned()))
    }
}

impl<'de> Deserialize<'de> for RefuteVerdict {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.take_value()? {
            serde::Value::Str(s) => match s.as_str() {
                "confirmed" => Ok(RefuteVerdict::Confirmed),
                "refuted" => Ok(RefuteVerdict::Refuted),
                "inconclusive" => Ok(RefuteVerdict::Inconclusive),
                other => Err(serde::de::Error::custom(format_args!(
                    "unknown refutation verdict {other:?}"
                ))),
            },
            other => Err(serde::de::Error::custom(format_args!(
                "expected refutation verdict string, found {other}"
            ))),
        }
    }
}

/// Solver fuel installed around one report's refutation when the run has
/// no [`crate::budget::Budget::solver_fuel`] configured. Bounded so an
/// adversarial disequality structure cannot hang the pass: splitting is
/// fully enabled, but each split costs a unit of fuel, and exhaustion
/// yields [`RefuteVerdict::Inconclusive`], never a refutation.
pub const DEFAULT_REFUTE_FUEL: u64 = 1 << 22;

/// Base for the synthetic call-site ids used when instantiating callee
/// summary constraints. Chosen far above any instruction-derived site id
/// the executor can produce, so the fresh opaque variables never collide
/// with variables already present in the pair's path constraints.
const REFUTE_SITE_BASE: u32 = 0x4000_0000;

/// Variable slot for the synthetic return value of an instantiated
/// callee summary. `Opaque` subscripts from real summaries are
/// `id * 64 + sub` or `1000 + id` (see [`crate::summary`]); this sits
/// far outside both ranges.
const REFUTE_RET_SUB: u32 = 0x00ff_ffff;

/// Re-validates one report: pushes both sides' path constraints and the
/// usable callee summary constraints into an [`IncrementalSolver`] and
/// asks for satisfiability with splitting fully enabled, under a fuel
/// budget (`fuel_budget`, defaulting to [`DEFAULT_REFUTE_FUEL`]).
///
/// Only callee constraints that cannot flip the verdict unsoundly are
/// conjoined. A summary contributes iff it is complete (not partial),
/// has exactly one entry (multi-entry summaries are disjunctive), and
/// its instantiated constraint is *independently satisfiable*. The last
/// condition is load-bearing: `provenance.callees` is the caller's
/// whole call-graph callee set, not the calls made on the report's two
/// paths, and the instantiation below is over fresh variables disjoint
/// from `cons_a`/`cons_b` — so a satisfiable conjunct can never change
/// the joint verdict, while an independently *unsatisfiable* one (a
/// complete summary minted when stage one's split budget expired before
/// detecting the contradiction) would refute every report of every
/// caller, even reports whose paths never reach that callee. Those
/// conjuncts are detected and skipped — this pass must never refute a
/// true positive.
#[must_use]
pub fn refute_report(
    report: &IppReport,
    db: &SummaryDb,
    fuel_budget: Option<u64>,
) -> RefuteVerdict {
    let Some(p) = &report.provenance else {
        return RefuteVerdict::Inconclusive;
    };
    let mut span = rid_obs::span(rid_obs::SpanKind::Refute, &report.function);
    let _fuel = fuel::install(fuel_budget.unwrap_or(DEFAULT_REFUTE_FUEL));
    let mut solver = IncrementalSolver::new();
    solver.push_conj(&p.cons_a);
    solver.push_conj(&p.cons_b);
    for (site, callee) in p.callees.iter().enumerate() {
        let Some(summary) = db.get(callee) else { continue };
        if summary.partial || summary.entries.len() != 1 {
            continue;
        }
        let site_id = REFUTE_SITE_BASE + site as u32;
        let ret = Term::var(Var::opaque(site_id, REFUTE_RET_SUB));
        let inst = summary.entries[0].instantiate(&[], &ret, site_id);
        // The conjunct is over fresh variables: satisfiable means it is a
        // no-op for the joint verdict, independently unsatisfiable means
        // it would refute this report regardless of the report's own
        // paths — exactly the unsound case, so it is skipped. An
        // exhaustion here degrades toward "satisfiable" and the final
        // fuel check below still turns the verdict inconclusive.
        if !inst.cons.is_sat_with(SatOptions { max_splits: u32::MAX }) {
            continue;
        }
        solver.push_conj(&inst.cons);
    }
    let sat = solver.is_sat(SatOptions { max_splits: u32::MAX });
    let verdict = if fuel::exhausted() {
        RefuteVerdict::Inconclusive
    } else if sat {
        RefuteVerdict::Confirmed
    } else {
        RefuteVerdict::Refuted
    };
    span.set_value(match verdict {
        RefuteVerdict::Refuted => 0,
        RefuteVerdict::Confirmed => 1,
        RefuteVerdict::Inconclusive => 2,
    });
    verdict
}

/// The refutation pass: judges every report that has no verdict yet,
/// records the verdict in its provenance (so `rid explain` can say why
/// it survived), drops the refuted ones, and tallies the split into
/// `stats`.
///
/// A report that already carries a verdict keeps it and is counted
/// under it: only incremental re-analysis hands in such reports, and
/// the module docs say why their verdicts still hold.
pub(crate) fn refute_pass(
    db: &SummaryDb,
    fuel_budget: Option<u64>,
    reports: &mut Vec<IppReport>,
    stats: &mut AnalysisStats,
) {
    reports.retain_mut(|report| {
        let carried = report.provenance.as_ref().and_then(|p| p.refutation);
        let verdict = carried.unwrap_or_else(|| refute_report(report, db, fuel_budget));
        match verdict {
            RefuteVerdict::Confirmed => stats.reports_confirmed += 1,
            RefuteVerdict::Refuted => {
                stats.reports_refuted += 1;
                *stats.refuted_functions.entry(report.function.clone()).or_default() += 1;
            }
            RefuteVerdict::Inconclusive => stats.reports_inconclusive += 1,
        }
        if let Some(p) = report.provenance.as_mut() {
            p.refutation = Some(verdict);
        }
        verdict != RefuteVerdict::Refuted
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipp::ReportProvenance;
    use rid_ir::Pred;
    use rid_solver::{Conj, Lit};

    fn report_with(cons_a: Conj, cons_b: Conj, callees: Vec<String>) -> IppReport {
        IppReport {
            function: "f".to_owned(),
            refcount: Term::var(Var::formal(0)).field("pm"),
            change_a: 1,
            change_b: 0,
            path_a: 0,
            path_b: 1,
            trace_a: Vec::new(),
            trace_b: Vec::new(),
            witness: cons_a.and(&cons_b),
            callback: false,
            witness_model: Vec::new(),
            provenance: Some(ReportProvenance {
                cons_a,
                cons_b,
                joint_sat: true,
                callees,
                refutation: None,
            }),
        }
    }

    fn arg() -> Term {
        Term::var(Var::formal(1))
    }

    /// `0 ≤ a ≤ n` plus `a ≠ 0 … a ≠ n`: unsatisfiable, but proving it
    /// takes `n` case splits — above the stage-one default budget of 64
    /// when `n > 64`.
    fn pigeonhole(n: i64) -> Conj {
        let mut lits = vec![
            Lit::new(Pred::Ge, arg(), Term::int(0)),
            Lit::new(Pred::Le, arg(), Term::int(n)),
        ];
        for k in 0..=n {
            lits.push(Lit::new(Pred::Ne, arg(), Term::int(k)));
        }
        Conj::from_lits(lits)
    }

    #[test]
    fn sat_joint_is_confirmed() {
        let a = Conj::from_lits([Lit::new(Pred::Ge, arg(), Term::int(0))]);
        let b = Conj::from_lits([Lit::new(Pred::Le, arg(), Term::int(10))]);
        let report = report_with(a, b, Vec::new());
        assert_eq!(refute_report(&report, &SummaryDb::new(), None), RefuteVerdict::Confirmed);
    }

    #[test]
    fn deep_split_unsat_joint_is_refuted() {
        // Stage one keeps this pair (needs 71 splits > the 64 budget);
        // stage two, with splitting fully enabled, kills it.
        let joint = pigeonhole(71);
        assert!(joint.is_sat_with(SatOptions::default()), "stage one must be fooled");
        let report = report_with(joint, Conj::truth(), Vec::new());
        assert_eq!(refute_report(&report, &SummaryDb::new(), None), RefuteVerdict::Refuted);
    }

    #[test]
    fn out_of_fuel_is_inconclusive_never_refuting() {
        let report = report_with(pigeonhole(71), Conj::truth(), Vec::new());
        // One unit of fuel cannot even close the matrix, let alone split.
        assert_eq!(
            refute_report(&report, &SummaryDb::new(), Some(1)),
            RefuteVerdict::Inconclusive
        );
    }

    #[test]
    fn missing_provenance_is_inconclusive() {
        let mut report = report_with(Conj::truth(), Conj::truth(), Vec::new());
        report.provenance = None;
        assert_eq!(
            refute_report(&report, &SummaryDb::new(), None),
            RefuteVerdict::Inconclusive
        );
    }

    #[test]
    fn pass_drops_refuted_and_records_verdicts() {
        let confirmed = report_with(Conj::truth(), Conj::truth(), Vec::new());
        let refuted = report_with(pigeonhole(71), Conj::truth(), Vec::new());
        let mut reports = vec![confirmed, refuted];
        let mut stats = AnalysisStats::default();
        refute_pass(&SummaryDb::new(), None, &mut reports, &mut stats);
        assert_eq!(reports.len(), 1);
        assert_eq!(
            reports[0].provenance.as_ref().unwrap().refutation,
            Some(RefuteVerdict::Confirmed)
        );
        assert_eq!((stats.reports_confirmed, stats.reports_refuted), (1, 1));
        assert_eq!(stats.reports_inconclusive, 0);
        assert_eq!(stats.refuted_functions.get("f"), Some(&1));
    }

    #[test]
    fn pass_keeps_carried_verdicts_without_rejudging() {
        // A carried verdict is trusted as is: this report would be
        // refuted if judged again, so surviving proves it was not.
        let mut carried = report_with(pigeonhole(71), Conj::truth(), Vec::new());
        carried.provenance.as_mut().unwrap().refutation = Some(RefuteVerdict::Inconclusive);
        let mut reports = vec![carried];
        let mut stats = AnalysisStats::default();
        refute_pass(&SummaryDb::new(), None, &mut reports, &mut stats);
        assert_eq!(reports.len(), 1);
        assert_eq!(stats.reports_inconclusive, 1);
        assert_eq!((stats.reports_confirmed, stats.reports_refuted), (0, 0));
    }

    #[test]
    fn multi_entry_callee_summaries_are_never_conjoined() {
        // A two-entry callee summary is disjunctive; conjoining one entry
        // (here: an unsatisfiable one) would wrongly refute the report.
        let mut db = SummaryDb::new();
        let mut s = crate::summary::Summary::new("callee");
        s.entries.push(crate::summary::SummaryEntry {
            cons: Conj::unsat(),
            changes: Default::default(),
            ret: None,
        });
        s.entries.push(crate::summary::SummaryEntry::default_entry());
        db.insert(s);
        let report = report_with(Conj::truth(), Conj::truth(), vec!["callee".to_owned()]);
        assert_eq!(refute_report(&report, &db, None), RefuteVerdict::Confirmed);
    }

    /// One complete single-entry summary whose constraint is unsat for
    /// the given caller-side constraints.
    fn db_with_unsat_callee(cons: Conj) -> SummaryDb {
        let mut db = SummaryDb::new();
        let mut s = crate::summary::Summary::new("callee");
        s.entries.push(crate::summary::SummaryEntry {
            cons,
            changes: Default::default(),
            ret: None,
        });
        db.insert(s);
        db
    }

    #[test]
    fn independently_unsat_callee_summary_never_refutes() {
        // `provenance.callees` is the caller's whole call-graph callee
        // set and the instantiation is over fresh variables, so an
        // independently unsatisfiable complete summary would refute
        // every caller report — including ones whose paths never reach
        // the callee. It must be skipped, not conjoined.
        let db = db_with_unsat_callee(Conj::unsat());
        let report = report_with(
            Conj::from_lits([Lit::new(Pred::Ge, arg(), Term::int(0))]),
            Conj::truth(),
            vec!["callee".to_owned()],
        );
        assert_eq!(refute_report(&report, &db, None), RefuteVerdict::Confirmed);
    }

    #[test]
    fn deep_split_unsat_callee_summary_never_refutes() {
        // The seeded-spurious idiom as a *summary*: stage one's split
        // budget expired before detecting the contradiction, so the
        // callee's complete single-entry summary carries a constraint
        // that is unsat only beyond 64 splits. Stage two's pre-check
        // runs with splitting fully enabled and must still skip it.
        let joint = pigeonhole(71);
        assert!(joint.is_sat_with(SatOptions::default()), "stage one must be fooled");
        let db = db_with_unsat_callee(joint);
        let report = report_with(Conj::truth(), Conj::truth(), vec!["callee".to_owned()]);
        assert_eq!(refute_report(&report, &db, None), RefuteVerdict::Confirmed);
    }
}
