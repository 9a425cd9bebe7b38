//! # rid-serve — the batched, incremental analysis daemon
//!
//! Every other entry point in the workspace is a one-shot CLI run that
//! rebuilds state from scratch unless the user hand-threads `--cache` /
//! `--state` files between invocations. This crate turns the machinery
//! built for warm re-analysis — the parallel driver, the
//! content-addressed [`rid_core::SummaryCache`], and
//! [`rid_core::incremental::affected_functions`] — into a long-lived
//! server: one resident project state per registered project, a
//! newline-delimited JSON protocol (see `PROTOCOL.md` at the repository
//! root), and per-project request batching so overlapping `patch`
//! requests collapse into a single re-analysis of the union of their
//! affected functions.
//!
//! The daemon listens on a Unix domain socket ([`serve_unix`]) or, for
//! tests and editor integrations, speaks the same protocol over
//! stdin/stdout ([`serve_stdio`]). Both fronts share one [`Engine`]: a
//! deterministic, single-consumer request queue whose drain loop
//! coalesces patches, maps per-request deadlines onto the existing
//! budget machinery, reports degraded functions in every response
//! envelope, and answers backpressure explicitly when the bounded queue
//! is full. Every executed request (or coalesced batch) is wrapped in a
//! `serve` span so `rid-bench profile` can attribute daemon time.
//!
//! ## Example: one round-trip over the stdio transport
//!
//! ```
//! use rid_serve::{serve_stdio, ServerConfig};
//!
//! // Figure 8 of the paper, served: register a one-module project,
//! // then analyze it. One JSON object per line in, one per line out.
//! let requests = concat!(
//!     r#"{"id":1,"op":"register","project":"demo","sources":{"m.ril":"#,
//!     r#""module m; fn probe(dev) { let ret = pm_runtime_get_sync(dev); "#,
//!     r#"if (ret < 0) { return ret; } ret = helper_update(dev); "#,
//!     r#"pm_runtime_put(dev); return ret; }"}}"#,
//!     "\n",
//!     r#"{"id":2,"op":"analyze","project":"demo"}"#,
//!     "\n",
//! );
//! let mut out = Vec::new();
//! serve_stdio(requests.as_bytes(), &mut out, ServerConfig::default()).unwrap();
//! let out = String::from_utf8(out).unwrap();
//! let lines: Vec<&str> = out.lines().collect();
//! assert_eq!(lines.len(), 2, "one response per request");
//! let analyze: serde_json::Value = serde_json::from_str(lines[1]).unwrap();
//! assert_eq!(analyze["ok"].as_bool(), Some(true));
//! assert_eq!(analyze["result"]["report_count"].as_i64(), Some(1));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod engine;
pub mod fault;
pub mod flightrec;
pub mod journal;
pub mod protocol;
pub mod server;
pub mod signal;
pub mod snapshot;

pub use client::{Client, RetryPolicy};
pub use engine::{Engine, ServerConfig};
pub use fault::ServeFaultPlan;
pub use flightrec::{
    install_panic_hook, latest_flight_record, read_flight_record, render_flight_record, BlackBox,
    FlightRecord, FLIGHTREC_DIR,
};
pub use protocol::{ProjectOptions, Request, PROTOCOL_VERSION};
pub use server::{serve_stdio, serve_unix};
