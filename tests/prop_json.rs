//! Hostile input for the JSON shim's parser (`validate --json` reads
//! whatever file it is handed): truncated and doubled `RunReport`
//! documents, random bytes, JSON-shaped noise, nesting past the depth
//! limit and cut-short `\u` escapes. Each must come back `Err` — or `Ok`
//! where the input is valid JSON — and never panic. Values with
//! multibyte strings survive `to_string` → `from_str` unchanged.

use massivegnn::{Engine, EngineConfig, Mode, PrefetchConfig};
use proptest::prelude::*;
use serde::Serialize;
use serde_json::{from_str, to_string, to_string_pretty, Value};
use std::sync::OnceLock;

/// A real report, pretty-printed as `--json-out` writes it.
fn report_document() -> &'static str {
    static DOC: OnceLock<String> = OnceLock::new();
    DOC.get_or_init(|| {
        let engine = Engine::build(EngineConfig {
            num_parts: 2,
            trainers_per_part: 1,
            epochs: 1,
            fanouts: vec![4, 4],
            hidden_dim: 8,
            mode: Mode::Prefetch(PrefetchConfig::default()),
            ..Default::default()
        });
        to_string_pretty(&engine.run().to_value())
    })
}

#[test]
fn every_truncated_prefix_of_a_report_is_an_error() {
    let doc = report_document();
    let whole = from_str(doc).expect("the whole document parses");
    assert_eq!(from_str(&to_string(&whole)).unwrap(), whole);
    for (cut, _) in doc.char_indices() {
        assert!(from_str(&doc[..cut]).is_err(), "prefix of {cut} bytes");
    }
}

#[test]
fn a_report_followed_by_a_second_copy_is_an_error() {
    let doc = report_document();
    for sep in ["", " ", "\n", ","] {
        let err = from_str(&format!("{doc}{sep}{doc}")).unwrap_err();
        assert!(err.offset >= doc.len(), "{sep:?}: {err}");
    }
}

#[test]
fn nesting_past_the_limit_is_an_error() {
    for depth in [300, 10_000] {
        let arrays = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(from_str(&arrays).is_err(), "{depth} arrays");
        let objects = format!("{}0{}", "{\"a\":".repeat(depth), "}".repeat(depth));
        assert!(from_str(&objects).is_err(), "{depth} objects");
    }
    let within = format!("{}{}", "[".repeat(200), "]".repeat(200));
    assert!(from_str(&within).is_ok());
}

#[test]
fn cut_short_unicode_escapes_are_errors() {
    for tail in ["", "0", "00", "00e", "00e9"] {
        assert!(
            from_str(&format!("\"\\u{tail}")).is_err(),
            "{tail:?} unclosed"
        );
    }
    for body in [
        "\\u", "\\u0", "\\u00", "\\u00e", "\\u00g9", "\\u+0e9", "\\u00é",
    ] {
        assert!(from_str(&format!("\"{body}\"")).is_err(), "{body:?}");
    }
    assert_eq!(
        from_str("\"\\u00e9\"").unwrap(),
        Value::Str("é".into()),
        "the whole escape still parses"
    );
}

/// Pieces of JSON and of what breaks it.
const FRAGMENTS: [&str; 24] = [
    "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u", "\\u00e9", "0", "-", "1.5", "e", "E+", "true",
    "nul", "null", " ", "\n", "é", "😀", "\"k\":", "\u{0}",
];

/// Characters a string value is drawn from: ASCII, the escaped ones,
/// control characters and two-, three- and four-byte scalars.
const CHARS: [char; 16] = [
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{7f}', 'é', 'ß', '中', '😀',
    '\u{fffd}',
];

/// A value tree read off `codes`: each code picks a kind, and containers
/// take the codes after it for their children.
fn value_from(codes: &mut impl Iterator<Item = u32>, depth: usize) -> Value {
    let Some(code) = codes.next() else {
        return Value::Null;
    };
    let string = |codes: &mut dyn Iterator<Item = u32>| -> String {
        let len = codes.next().unwrap_or(0) % 12;
        codes
            .take(len as usize)
            .map(|c| CHARS[c as usize % CHARS.len()])
            .collect()
    };
    match (code % 8, depth < 4) {
        (0, _) => Value::Null,
        (1, _) => Value::Bool(code % 16 < 8),
        (2, _) => Value::U64(u64::from(code) << 20),
        (3, _) => Value::I64(-i64::from(code) - 1),
        (4, _) => Value::F64(f64::from(code) / 7.0 - 1e3),
        (6, true) => {
            let n = codes.next().unwrap_or(0) % 4;
            Value::Arr((0..n).map(|_| value_from(codes, depth + 1)).collect())
        }
        (7, true) => {
            let n = codes.next().unwrap_or(0) % 4;
            Value::Obj(
                (0..n)
                    .map(|_| (string(codes), value_from(codes, depth + 1)))
                    .collect(),
            )
        }
        _ => Value::Str(string(codes)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..96)) {
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(v) = from_str(&text) {
            prop_assert_eq!(from_str(&to_string(&v)).unwrap(), v);
        }
    }

    #[test]
    fn json_shaped_noise_never_panics(picks in prop::collection::vec(0usize..24, 0..40)) {
        let text: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        if let Ok(v) = from_str(&text) {
            prop_assert_eq!(from_str(&to_string(&v)).unwrap(), v);
        }
    }

    #[test]
    fn values_with_multibyte_strings_round_trip(codes in prop::collection::vec(0u32..1 << 16, 1..160)) {
        let v = value_from(&mut codes.into_iter(), 0);
        prop_assert_eq!(from_str(&to_string(&v)).unwrap(), v.clone());
        prop_assert_eq!(from_str(&to_string_pretty(&v)).unwrap(), v);
    }
}
