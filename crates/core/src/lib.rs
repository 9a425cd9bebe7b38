//! # rid-core — inconsistent path pair checking
//!
//! This crate implements the RID analysis from *RID: Finding Reference
//! Count Bugs with Inconsistent Path Pair Checking* (ASPLOS 2016):
//!
//! * **function summaries** ([`Summary`], §4.3) record refcount changes and
//!   return values under constraints;
//! * **predefined summaries** ([`apis`], §5.1) encode refcount API
//!   specifications — the only input the analysis needs;
//! * **path enumeration** ([`paths`], loops unrolled once, §4.2);
//! * **symbolic execution** ([`exec`], Figure 6 / Algorithm 1) calculates
//!   one summary entry per feasible path subcase, then removes conditions
//!   on local variables by exact projection;
//! * **IPP checking** ([`ipp`], §4.5) reports any two entries that are
//!   indistinguishable from outside (same arguments, same return value)
//!   yet change a refcount differently;
//! * **selective analysis** ([`classify`], §5.2) concentrates work on the
//!   small portion of a kernel that can affect refcounts;
//! * the **driver** ([`driver`]) runs everything bottom-up over the call
//!   graph, optionally in parallel, and [`persist`] implements the
//!   separate-compilation mode of §5.3;
//! * two extensions from the paper's future-work list are included and
//!   off by default: the **callback contract** ([`callbacks`]) catches
//!   the Figure 10 class through function-pointer registrations, and
//!   **incremental recheck** ([`incremental`]) re-analyzes only the
//!   callers of a fixed function (§5.4, limitation 4).
//!
//! ## Quickstart
//!
//! ```
//! use rid_core::{analyze_sources, apis::linux_dpm_apis, AnalysisOptions};
//!
//! // The Figure 8 bug: pm_runtime_get_sync increments the PM count even
//! // when it fails, but the early-error return skips the put.
//! let src = r#"module radeon;
//!     fn radeon_crtc_set_config(dev, set) {
//!         let ret = pm_runtime_get_sync(dev);
//!         if (ret < 0) { return ret; }
//!         ret = drm_crtc_helper_set_config(set);
//!         pm_runtime_put_autosuspend(dev);
//!         return ret;
//!     }"#;
//! let result = analyze_sources([src], &linux_dpm_apis(), &AnalysisOptions::default())?;
//! assert_eq!(result.reports.len(), 1);
//! # Ok::<(), rid_frontend::FrontendError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apis;
pub mod budget;
pub mod cache;
pub mod callbacks;
pub mod callgraph;
pub mod checks;
pub mod classify;
pub mod driver;
pub mod exec;
pub mod fault;
pub mod incremental;
pub mod ipp;
pub mod mining;
pub mod obs;
pub mod paths;
pub mod persist;
pub mod refute;
pub mod report;
pub mod triage;
pub mod slice;
pub mod store;
pub mod summary;

pub use budget::{
    degradation_summary_line, Budget, BudgetMeter, Degradation, DegradeReason, FunctionCost,
};
pub use cache::{CacheEntry, SummaryCache, CACHE_SCHEMA};
pub use callgraph::CallGraph;
pub use classify::{Category, CategoryCounts, Classification};
pub use driver::{
    analyze_program, analyze_program_cached, analyze_program_with_faults, analyze_sources,
    AnalysisOptions, AnalysisResult, AnalysisStats, HistogramSnapshot, WorkerProfile,
    AUTO_STEAL_CAP,
};
pub use exec::{
    summarize_paths, summarize_paths_metered, summarize_paths_mode, ExecMode, PathEntry,
    SummarizeOutcome,
};
pub use fault::FaultPlan;
pub use ipp::{check_ipps, IppOutcome, IppReport, ReportProvenance};
pub use obs::{
    degrade_census, parse_trace_jsonl, record_trace, registry_from_result, registry_from_stats,
};
pub use paths::{enumerate_paths, enumerate_paths_metered, Path, PathLimits, PathSet, PathTree};
pub use refute::{refute_report, RefuteVerdict, DEFAULT_REFUTE_FUEL};
pub use report::{
    classify_report, render_explanation, render_explanations, render_report, render_reports,
    BugKind,
};
pub use store::SummaryStore;
pub use summary::{Summary, SummaryDb, SummaryEntry};
pub use triage::{classify_reports, report_hash, DiffClass, ReportDiff, Ridignore};
