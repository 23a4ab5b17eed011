//! Hostile-input and round-trip properties of the hand-rolled JSON
//! parser: it must never panic (or overflow the stack) on any input, and
//! it must read back exactly what the writer prints.

use diffnet_observe::json::{parse, Json, MAX_DEPTH};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fragments that steer random documents into every parser branch:
/// nesting, strings with escapes, literals, numbers, separators.
const TOKENS: &[&str] = &[
    "[", "]", "{", "}", ",", ":", "\"", "\\", "\\u", "\\u00e9", "\\ud800", "\\n", "a", "é", "0",
    "-", "1.5", "e", "E+", "nul", "null", "true", "fals", " ", "\n", "\"k\":",
];

fn random_string(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0usize..12);
    (0..len)
        .map(|_| match rng.gen_range(0u32..4) {
            0 => char::from(rng.gen_range(0u8..0x20)),
            1 => ['"', '\\', '/', 'é', '中', '😀'][rng.gen_range(0usize..6)],
            2 => char::from_u32(rng.gen_range(0u32..0x11_0000)).unwrap_or('\u{fffd}'),
            _ => char::from(rng.gen_range(0x20u8..0x7f)),
        })
        .collect()
}

fn random_number(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0u32..3) {
        0 => rng.gen_range(-1_000_000i64..1_000_000) as f64,
        1 => rng.gen::<f64>() * 1e6 - 5e5,
        _ => loop {
            let v = f64::from_bits(rng.gen::<u64>());
            if v.is_finite() {
                break v;
            }
        },
    }
}

/// A random value tree at most `depth` levels deep. Numbers are finite:
/// the writer prints non-finite floats as `null` by design.
fn random_json(rng: &mut StdRng, depth: usize) -> Json {
    let kinds = if depth == 0 { 4 } else { 6 };
    match rng.gen_range(0u32..kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => Json::Num(random_number(rng)),
        3 => Json::Str(random_string(rng)),
        4 => Json::Arr(
            (0..rng.gen_range(0usize..5))
                .map(|_| random_json(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.gen_range(0usize..5))
                .map(|_| (random_string(rng), random_json(rng, depth - 1)))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Arbitrary bytes (lossily decoded, as a response body would be)
    // parse to a value or an error, never a panic.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = parse(&String::from_utf8_lossy(&bytes));
    }

    // Token soup reaches the deeper branches (escapes, nesting, literal
    // prefixes) that uniform bytes rarely hit.
    #[test]
    fn token_soup_never_panics(picks in proptest::collection::vec(0usize..TOKENS.len(), 0..300)) {
        let text: String = picks.iter().map(|&i| TOKENS[i]).collect();
        let _ = parse(&text);
    }

    // Nesting past the cap is an error, never a stack overflow.
    #[test]
    fn deep_nesting_is_an_error(extra in 1usize..10_000, object in any::<bool>()) {
        let open = if object { "{\"k\":" } else { "[" };
        let text = open.repeat(MAX_DEPTH + extra);
        prop_assert!(parse(&text).is_err());
    }

    // print → parse is the identity, for both writers.
    #[test]
    fn printed_values_parse_back_unchanged(seed in any::<u64>()) {
        let value = random_json(&mut StdRng::seed_from_u64(seed), 4);
        let pretty = parse(&value.to_pretty()).map_err(|e| e.to_string())?;
        prop_assert_eq!(&pretty, &value);
        let compact = parse(&value.to_compact()).map_err(|e| e.to_string())?;
        prop_assert_eq!(&compact, &value);
    }
}
