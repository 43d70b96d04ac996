//! Linear-time decode of the deployment artifact.
//!
//! The serving registry loads the per-user recommendation JSON at startup,
//! so decoding must be linear in the document. The string scanner once
//! re-validated the whole remaining buffer for every string character: a
//! 10,000-user export took 273 s to load in a release build. These tests
//! pin the linear scan (a 10,000-user round trip) and its output (a
//! derandomized corpus of strings mixing ASCII runs, multi-byte scalars and
//! escapes at run boundaries must decode byte-equal to its source).

use geopriv_core::configurator::UserVerdict;
use geopriv_core::error::CoreError;
use geopriv_core::json::JsonValue;
use geopriv_core::report;
use geopriv_mobility::UserId;
use proptest::prelude::*;
use std::time::Duration;

/// The committed three-user golden export (feasible, infeasible with a
/// non-ASCII reason, unmodeled with an escaped reason), replicated to
/// `users` rows with distinct ids, predictions and reasons.
fn fleet_export(users: usize) -> String {
    let path = format!("{}/tests/golden/per_user_recommendation.json", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(path).unwrap();
    let template = report::per_user_recommendation_from_json(&golden).unwrap();
    let mut fleet = template.clone();
    fleet.users = (0..users)
        .map(|i| {
            let mut row = template.users[i % template.users.len()].clone();
            row.user = UserId::from(i as u64 + 1);
            for (_, value) in &mut row.predictions {
                *value += i as f64 * 1e-9;
            }
            match &mut row.verdict {
                UserVerdict::Feasible => {}
                UserVerdict::Infeasible { reason } | UserVerdict::Unmodeled { reason } => {
                    reason.push_str(&format!(" — row {i}: \"ε\"\t\\ 😀"));
                }
            }
            row
        })
        .collect();
    report::per_user_recommendation_to_json(&fleet)
}

#[test]
fn ten_thousand_user_export_round_trips_in_linear_time() {
    let export = fleet_export(10_000);
    assert!(export.len() > 3_000_000, "export is {} bytes", export.len());
    // A linear parse takes well under a second even unoptimized; the
    // quadratic one needed minutes at this size. The decode runs on its own
    // thread so a regression fails at the bound instead of hanging the
    // suite; the bound only catches the asymptotic regression, not noise.
    let (sender, receiver) = std::sync::mpsc::channel();
    let document = export.clone();
    std::thread::spawn(move || {
        let _ = sender.send(report::per_user_recommendation_from_json(&document));
    });
    let decoded = receiver
        .recv_timeout(Duration::from_secs(30))
        .expect("decoding a 10,000-user export took over 30 s: is the parse quadratic again?")
        .unwrap();
    assert_eq!(decoded.users.len(), 10_000);
    // Byte-identical re-export: every string and float survived the parse.
    assert_eq!(report::per_user_recommendation_to_json(&decoded), export);
}

/// One piece of a generated JSON string: its source text (between the
/// quotes) and the text it decodes to.
fn piece(kind: u32, len: usize, code: u32) -> (String, String) {
    const SIMPLE: [(&str, char); 8] = [
        ("\\\"", '"'),
        ("\\\\", '\\'),
        ("\\/", '/'),
        ("\\n", '\n'),
        ("\\r", '\r'),
        ("\\t", '\t'),
        ("\\b", '\u{8}'),
        ("\\f", '\u{c}'),
    ];
    let scalar = |lo: u32, hi: u32| {
        let value = lo + code % (hi - lo);
        // Surrogates are not scalars; step over them.
        char::from_u32(value).unwrap_or('\u{e000}')
    };
    let repeat = |c: char| -> (String, String) {
        let text: String = std::iter::repeat(c).take(len).collect();
        (text.clone(), text)
    };
    match kind {
        // An ASCII run without quotes or backslashes.
        0 => {
            let text: String = (0..len)
                .map(|k| {
                    let c = char::from(b' ' + ((code as usize + k * 7) % 95) as u8);
                    if c == '"' || c == '\\' {
                        'q'
                    } else {
                        c
                    }
                })
                .collect();
            (text.clone(), text)
        }
        1 => repeat(scalar(0x80, 0x800)),
        2 => repeat(scalar(0x800, 0x1_0000)),
        3 => repeat(scalar(0x1_0000, 0x11_0000)),
        // A simple escape.
        4 => {
            let (source, decoded) = SIMPLE[code as usize % SIMPLE.len()];
            (source.to_string(), decoded.to_string())
        }
        // A `\u` escape of a BMP scalar, in either hex case.
        _ => {
            let c = scalar(0, 0x1_0000);
            let hex = format!("{:04x}", u32::from(c));
            let hex = if code % 2 == 0 { hex } else { hex.to_uppercase() };
            (format!("\\u{hex}"), c.to_string())
        }
    }
}

fn corpus_string(pieces: &[(u32, usize, u32)]) -> (String, String) {
    let mut source = String::new();
    let mut decoded = String::new();
    for &(kind, len, code) in pieces {
        let (s, d) = piece(kind, len, code);
        source.push_str(&s);
        decoded.push_str(&d);
    }
    (source, decoded)
}

fn offset_of(err: &CoreError) -> Option<usize> {
    let text = err.to_string();
    let tail = text.rsplit("(at byte ").next()?;
    tail.trim_end_matches(')').parse().ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn string_corpus_decodes_byte_equal(
        pieces in prop::collection::vec((0u32..6, 0usize..6, 0u32..0x11_0000), 0..24)
    ) {
        let (source, decoded) = corpus_string(&pieces);
        let parsed = JsonValue::parse(&format!("\"{source}\"")).unwrap();
        prop_assert_eq!(parsed.as_str().map(str::as_bytes), Some(decoded.as_bytes()));
        // The same text as an object key and an array element.
        let document = format!("{{\"{source}\": [\"{source}\", 1]}}");
        let parsed = JsonValue::parse(&document).unwrap();
        let members = parsed.members().unwrap();
        prop_assert_eq!(members.len(), 1);
        prop_assert_eq!(&members[0].0, &decoded);
        prop_assert_eq!(members[0].1.elements().unwrap()[0].as_str(), Some(decoded.as_str()));
    }

    #[test]
    fn malformed_strings_fail_with_typed_offsets(
        pieces in prop::collection::vec((0u32..6, 0usize..6, 0u32..0x11_0000), 0..12),
        fault in 0usize..6,
    ) {
        let (source, _) = corpus_string(&pieces);
        let escape_at = 1 + source.len() + 1; // the `u` after the backslash
        let (document, at, reason) = match fault {
            0 => (format!("\"{source}"), 1 + source.len(), "unterminated string"),
            1 => (format!("\"{source}\\"), 1 + source.len() + 1, "unterminated string"),
            2 => (format!("\"{source}\\u12\""), escape_at, "malformed \\u escape"),
            3 => (format!("\"{source}\\u12G4\""), escape_at, "malformed \\u escape"),
            4 => (format!("\"{source}\\u+123\""), escape_at, "malformed \\u escape"),
            _ => (format!("\"{source}\\uD800\""), escape_at, "\\u escape is not a scalar"),
        };
        let err = JsonValue::parse(&document).unwrap_err();
        prop_assert!(matches!(err, CoreError::Parse { .. }), "{document:?}: {err}");
        prop_assert!(err.to_string().contains(reason), "{document:?}: {err}");
        prop_assert_eq!(offset_of(&err), Some(at), "{document:?}: {err}");
    }
}
