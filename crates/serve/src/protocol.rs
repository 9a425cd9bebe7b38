//! Wire types of the serve protocol.
//!
//! The transport is newline-delimited JSON: one request object per line
//! in, one response object per line out, every response carrying the
//! `id` of the request it answers. `PROTOCOL.md` at the repository root
//! is the normative description of every message; this module is the
//! implementation the daemon and the thin client share.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use serde_json::Value;

/// Protocol identifier echoed in every response envelope.
///
/// Clients must check the prefix `rid-serve/`; the integer after the
/// slash bumps on any breaking change to request or response shapes
/// (additive, ignorable fields do not bump it).
pub const PROTOCOL_VERSION: &str = "rid-serve/1";

/// One request line, as sent by a client.
///
/// `op` selects the operation (`register`, `analyze`, `patch`,
/// `explain`, `diff`, `stats`, `ping`, `snapshot`, `shutdown`); the
/// other fields are op-specific and default to empty when omitted. See
/// `PROTOCOL.md` for which fields each op requires.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    #[serde(default)]
    pub id: u64,
    /// Operation name.
    pub op: String,
    /// Target project (required by every op except `stats` and
    /// `shutdown`).
    #[serde(default)]
    pub project: String,
    /// Module sources keyed by module file name. `register` sends the
    /// full set; `patch` sends only changed or added modules.
    #[serde(default)]
    pub sources: BTreeMap<String, String>,
    /// `explain` only: restrict to reports of this function.
    #[serde(default)]
    pub function: Option<String>,
    /// Per-request wall-clock deadline in milliseconds, mapped onto the
    /// analysis [`rid_core::Budget`]'s global deadline. Functions that
    /// blow the deadline degrade and are listed in the response
    /// envelope's `degraded` array — never silently dropped.
    #[serde(default)]
    pub deadline_ms: Option<u64>,
    /// When true the request is accepted and queued but not executed
    /// until the next non-deferred request (or EOF / `shutdown`)
    /// triggers a drain. Deferring is how clients opt into batching:
    /// queued `patch` requests for the same project coalesce into one
    /// driver run.
    #[serde(default)]
    pub defer: bool,
    /// `register` only: per-project analysis configuration.
    #[serde(default)]
    pub options: Option<ProjectOptions>,
    /// Client-chosen idempotency key. When set, the engine remembers
    /// the response under this key: a later request carrying the same
    /// key (a retry after a lost reply) is answered from that memory
    /// without executing again. Keys must be unique per logical
    /// request; retries resend the identical line.
    #[serde(default)]
    pub idem: Option<String>,
    /// `stats` only: response encoding for the telemetry payload.
    /// `"json"` (the default when omitted) embeds the registry as a
    /// structured `telemetry` object; `"prometheus"` adds a
    /// `prometheus` string holding a text exposition instead.
    #[serde(default)]
    pub format: Option<String>,
    /// `diff` only: the baseline report-hash list (see `REPORTS.md`)
    /// the project's resident reports are compared against. Omitted or
    /// empty means everything resident is `new`.
    #[serde(default)]
    pub baseline: Option<Vec<String>>,
}

impl Request {
    /// A minimal request with the given id, op, and project; the other
    /// fields start empty.
    #[must_use]
    pub fn new(id: u64, op: &str, project: &str) -> Request {
        Request {
            id,
            op: op.to_owned(),
            project: project.to_owned(),
            sources: BTreeMap::new(),
            function: None,
            deadline_ms: None,
            defer: false,
            options: None,
            idem: None,
            format: None,
            baseline: None,
        }
    }

    /// Serializes the request as one protocol line (no trailing
    /// newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        serde_json::to_string(self)
            .unwrap_or_else(|e| fallback_line(Some(self.id), &e.to_string()))
    }
}

/// Per-project analysis configuration, set at `register` time.
///
/// Unset fields keep the driver defaults ([`rid_core::AnalysisOptions`]).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ProjectOptions {
    /// Worker threads for the parallel driver (default 1).
    #[serde(default)]
    pub threads: Option<usize>,
    /// §5.2 selective analysis (default true).
    #[serde(default)]
    pub selective: Option<bool>,
    /// Callback-contract extension (default false).
    #[serde(default)]
    pub callbacks: Option<bool>,
    /// Per-function wall-clock deadline in milliseconds.
    #[serde(default)]
    pub func_deadline_ms: Option<u64>,
    /// Solver fuel budget per function.
    #[serde(default)]
    pub fuel: Option<u64>,
    /// Predefined API database: `"dpm"` (default), `"python"`, or
    /// `"none"`.
    #[serde(default)]
    pub apis: Option<String>,
    /// Second-stage refutation pass (default true; see `DESIGN.md` §17).
    #[serde(default)]
    pub refute: Option<bool>,
}

/// Builds a success response line: `{id, ok:true, protocol, result,
/// degraded}`.
///
/// `result` and `degraded` are moved into the envelope and rendered
/// once: a `patch` result holds every resident report, and the
/// `json!`/`to_string` route would deep-copy it on the way.
#[must_use]
pub fn ok_line(id: u64, result: Value, degraded: Value) -> String {
    Value::Map(vec![
        ("id".to_owned(), Value::Int(id as i64)),
        ("ok".to_owned(), Value::Bool(true)),
        ("protocol".to_owned(), Value::Str(PROTOCOL_VERSION.to_owned())),
        ("result".to_owned(), result),
        ("degraded".to_owned(), degraded),
    ])
    .to_json()
}

/// One [`ok_line`] per id in `ids`, all answering with the same `result`
/// and `degraded`: the replies to a coalesced batch. The replies differ
/// only in their leading `id`, so the envelope is rendered once and each
/// id is spliced in front of the shared rest.
#[must_use]
pub fn ok_lines(ids: &[u64], result: Value, degraded: Value) -> Vec<String> {
    let template = ok_line(0, result, degraded);
    let rest = &template[r#"{"id":0"#.len()..];
    ids.iter().map(|&id| format!(r#"{{"id":{}{rest}"#, id as i64)).collect()
}

/// Builds an error response line: `{id, ok:false, protocol, error:{kind,
/// message}}`. `id` is `null` when the request line could not be parsed
/// far enough to recover one. Falls back like [`ok_line`] rather than
/// panicking.
#[must_use]
pub fn error_line(id: Option<u64>, kind: &str, message: &str) -> String {
    let envelope = serde_json::json!({
        "id": id,
        "ok": false,
        "protocol": PROTOCOL_VERSION,
        "error": serde_json::json!({ "kind": kind, "message": message }),
    });
    serde_json::to_string(&envelope).unwrap_or_else(|e| fallback_line(id, &e.to_string()))
}

/// A hand-assembled error envelope that cannot fail to serialize: the
/// last-resort reply when the real envelope would not. Every byte of
/// `detail` is escaped by hand, so the line is valid JSON no matter
/// what the serializer choked on.
fn fallback_line(id: Option<u64>, detail: &str) -> String {
    let id = id.map_or_else(|| "null".to_owned(), |id| id.to_string());
    let mut message = String::with_capacity(detail.len() + 40);
    message.push_str("response serialization failed: ");
    for c in detail.chars() {
        match c {
            '"' => message.push_str("\\\""),
            '\\' => message.push_str("\\\\"),
            '\n' => message.push_str("\\n"),
            '\r' => message.push_str("\\r"),
            '\t' => message.push_str("\\t"),
            c if (c as u32) < 0x20 => message.push_str(&format!("\\u{:04x}", c as u32)),
            c => message.push(c),
        }
    }
    format!(
        "{{\"id\":{id},\"ok\":false,\"protocol\":\"{PROTOCOL_VERSION}\",\
         \"error\":{{\"kind\":\"internal\",\"message\":\"{message}\"}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips_with_defaults() {
        let line = r#"{"id":7,"op":"analyze","project":"p"}"#;
        let req: Request = serde_json::from_str(line).unwrap();
        assert_eq!(req.id, 7);
        assert_eq!(req.op, "analyze");
        assert_eq!(req.project, "p");
        assert!(req.sources.is_empty());
        assert!(!req.defer);
        assert!(req.deadline_ms.is_none());
        let back: Request = serde_json::from_str(&req.to_line()).unwrap();
        assert_eq!(back.op, "analyze");
    }

    #[test]
    fn missing_op_is_a_parse_error() {
        assert!(serde_json::from_str::<Request>(r#"{"id":1}"#).is_err());
    }

    #[test]
    fn envelopes_carry_protocol_and_id() {
        let ok: Value =
            serde_json::from_str(&ok_line(3, serde_json::json!({"n": 1}), Value::Seq(vec![])))
                .unwrap();
        assert_eq!(ok["id"].as_i64(), Some(3));
        assert_eq!(ok["ok"].as_bool(), Some(true));
        assert_eq!(ok["protocol"].as_str(), Some(PROTOCOL_VERSION));
        assert_eq!(ok["result"]["n"].as_i64(), Some(1));

        let err: Value = serde_json::from_str(&error_line(None, "parse", "bad json")).unwrap();
        assert!(err["id"].is_null());
        assert_eq!(err["ok"].as_bool(), Some(false));
        assert_eq!(err["error"]["kind"].as_str(), Some("parse"));
    }

    #[test]
    fn batch_replies_match_single_replies() {
        let result = serde_json::json!({"reports": vec![serde_json::json!({"function": "f"})]});
        let degraded = serde_json::json!([serde_json::json!({"function": "g", "ms": 3})]);
        let lines = ok_lines(&[0, 7, 12345], result.clone(), degraded.clone());
        for (line, id) in lines.iter().zip([0, 7, 12345]) {
            assert_eq!(line, &ok_line(id, result.clone(), degraded.clone()));
        }
    }

    #[test]
    fn idem_key_roundtrips_and_defaults_to_none() {
        let req: Request =
            serde_json::from_str(r#"{"id":1,"op":"analyze","project":"p"}"#).unwrap();
        assert!(req.idem.is_none());
        let req: Request = serde_json::from_str(
            r#"{"id":1,"op":"analyze","project":"p","idem":"k-1"}"#,
        )
        .unwrap();
        assert_eq!(req.idem.as_deref(), Some("k-1"));
        let back: Request = serde_json::from_str(&req.to_line()).unwrap();
        assert_eq!(back.idem.as_deref(), Some("k-1"));
    }

    #[test]
    fn fallback_envelope_is_valid_json_for_hostile_details() {
        let line = fallback_line(Some(9), "quote \" slash \\ newline \n ctl \u{1}");
        let parsed: Value = serde_json::from_str(&line).expect("fallback must parse");
        assert_eq!(parsed["id"].as_i64(), Some(9));
        assert_eq!(parsed["error"]["kind"].as_str(), Some("internal"));
        let none = fallback_line(None, "x");
        let parsed: Value = serde_json::from_str(&none).unwrap();
        assert!(parsed["id"].is_null());
    }
}
