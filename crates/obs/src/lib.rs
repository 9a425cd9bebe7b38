//! # rid-obs — observability for the RID reproduction
//!
//! Three small, dependency-free pieces:
//!
//! * [`trace`] — a zero-cost-when-disabled span/event tracing layer.
//!   Threads record into thread-local **ring buffers** (no locks on the
//!   hot path, one relaxed atomic load when disabled); buffers flush
//!   into a global sink when a thread exits or on [`trace::drain`].
//!   A drained [`trace::Trace`] exports as JSONL (one event per line)
//!   or Chrome `trace_event` JSON that loads directly in
//!   `chrome://tracing` / Perfetto.
//! * [`metrics`] — a registry of named counters, gauges, and log₂-bucket
//!   histograms, rendered as JSON or a plain-text table. The registry is
//!   a passive snapshot type: producers (rid-core) build one from their
//!   own counters, so the hot path never touches it.
//! * [`profile`] — aggregation helpers over a drained trace: per-name
//!   span totals, self-time (parent minus attributed children), and
//!   worst path-explosion offenders.
//!
//! The crate deliberately depends on nothing — it sits below every other
//! workspace crate so any layer can emit events.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod profile;
pub mod trace;

pub use metrics::{Histogram, Registry};
pub use profile::{max_value_by_name, self_times, PhaseProfile};
pub use trace::{drain, enable, enabled, event, span, SpanKind, Trace, TraceEvent};
