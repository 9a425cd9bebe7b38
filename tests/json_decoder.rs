//! The vendored JSON decoder (`compat/serde_json`), pinned where the
//! root test suite runs it: every daemon request line, `rid client`
//! reply, journal replay, state file and cache-entry payload goes
//! through it. Decoded values, escape handling, error messages, the
//! nesting cap and linear decoding time are all part of that contract.

use std::time::{Duration, Instant};

use serde_json::Value;

fn decode(text: &str) -> Value {
    serde_json::from_str(text).unwrap_or_else(|e| panic!("{text:?} must decode: {e}"))
}

fn decode_err(text: &str) -> String {
    match serde_json::from_str::<Value>(text) {
        Ok(value) => panic!("{text:?} must not decode, got {value}"),
        Err(e) => e.to_string(),
    }
}

#[test]
fn simple_escapes_decode() {
    let value = decode(r#""q\" b\\ s\/ n\n r\r t\t b\b f\f""#);
    assert_eq!(value, "q\" b\\ s/ n\n r\r t\t b\u{8} f\u{c}");
    assert_eq!(decode(r#""\u0041\u00e9\u4e2d""#), "Aé中");
    assert!(decode_err(r#""\x""#).starts_with("bad escape"));
}

#[test]
fn raw_multibyte_text_decodes_in_keys_and_values() {
    let value = decode(r#"{"clé": "naïve — 中文 😀", "k": ["ü", "😀😀"]}"#);
    assert_eq!(value["clé"], "naïve — 中文 😀");
    assert_eq!(value["k"][0], "ü");
    assert_eq!(value["k"][1], "😀😀");
    // Rendering and decoding again is the identity.
    assert_eq!(decode(&value.to_json()), value);
}

#[test]
fn surrogate_pair_escapes_decode_to_one_astral_char() {
    // How Python's default `json.dumps` writes non-BMP text.
    assert_eq!(decode(r#""\ud83d\ude00""#), "😀");
    assert_eq!(decode(r#""a\ud83d\ude00b\u00e9""#), "a😀bé");
    assert_eq!(decode(r#"{"\ud83d\ude00": 1}"#)["😀"], 1i64);
    // A lone surrogate of either half is no char.
    for lone in [r#""\ud83d""#, r#""\ud83dx""#, r#""\ud83dA""#, r#""\ude00""#] {
        assert_eq!(decode_err(lone), "bad \\u escape", "{lone}");
    }
}

#[test]
fn error_messages_are_unchanged() {
    assert_eq!(decode_err(r#""abc"#), "unterminated string");
    assert_eq!(decode_err(r#"{"k": "v"#), "unterminated string");
    assert_eq!(decode_err("1 2"), "trailing input at byte 2");
    assert_eq!(decode_err(r#"{"a": 1} x"#), "trailing input at byte 9");
    assert_eq!(decode_err(r#""\u12""#), "bad \\u escape");
}

#[test]
fn nesting_is_capped_instead_of_overflowing_the_stack() {
    let ok = format!("{}{}", "[".repeat(128), "]".repeat(128));
    assert!(serde_json::from_str::<Value>(&ok).is_ok());
    let too_deep = format!("{}{}", "[".repeat(129), "]".repeat(129));
    assert_eq!(decode_err(&too_deep), "recursion limit exceeded at byte 128");
    // Far deeper than any stack could recurse: an error, not an abort.
    assert!(decode_err(&"[{\"k\":".repeat(100_000)).starts_with("recursion limit exceeded"));
}

/// A `register`-shaped line of ~4 MB: many long strings with escapes and
/// multibyte text. A decoder that re-validates the rest of the input per
/// character needs hours for it; a linear one, well under a second even
/// unoptimized. The budget sits orders of magnitude from both.
#[test]
fn multi_megabyte_string_heavy_line_decodes_in_linear_time() {
    let module =
        "fn f(dev) {\n    let r = pm_runtime_get_sync(dev); // naïve \"quote\"\n    return r;\n}\n"
            .repeat(500);
    let sources: Vec<(String, Value)> = (0..100)
        .map(|i| (format!("module_{i:04}.ril"), Value::Str(format!("module m{i};\n{module}"))))
        .collect();
    let line = Value::Map(vec![
        ("id".to_owned(), Value::Int(1)),
        ("op".to_owned(), Value::Str("register".to_owned())),
        ("sources".to_owned(), Value::Map(sources)),
    ])
    .to_json();
    assert!(line.len() > 4_000_000, "line is {} bytes", line.len());

    let started = Instant::now();
    let decoded = decode(&line);
    let elapsed = started.elapsed();
    let last = format!("module m99;\n{module}");
    assert_eq!(decoded["sources"]["module_0099.ril"].as_str(), Some(last.as_str()));
    assert!(elapsed < Duration::from_secs(10), "decoding took {elapsed:?}");
}
