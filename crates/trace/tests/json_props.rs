//! Property tests for the JSON codec: the reader never panics on hostile
//! text, and every tree the writer renders (pretty or one-line) reads
//! back as the same tree.

use cheriot_trace::json::{parse, Json};
use proptest::prelude::*;
use proptest::TestRng;

/// Characters that stress the string writer and reader: quotes,
/// backslashes, every escape the writer emits, other control characters,
/// and multi-byte UTF-8.
const STRING_CHARS: &[char] = &[
    'a',
    'Z',
    '0',
    ' ',
    '"',
    '\\',
    '/',
    '\n',
    '\r',
    '\t',
    '\u{0}',
    '\u{1}',
    '\u{8}',
    '\u{c}',
    '\u{1f}',
    '\u{7f}',
    'ä',
    'µ',
    '€',
    '\u{fffd}',
    '\u{1f600}',
];

fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize]
}

fn string(rng: &mut TestRng) -> String {
    (0..rng.below(8)).map(|_| pick(rng, STRING_CHARS)).collect()
}

fn number(rng: &mut TestRng) -> Json {
    match rng.below(5) {
        0 => Json::from(rng.next_u64()),
        1 => Json::from(rng.next_u64() as i64),
        2 => Json::fixed((rng.unit_f64() - 0.5) * 1e6, rng.below(5) as usize),
        3 => Json::from(rng.below(10)),
        _ => Json::Num(pick(rng, &["-0", "1e-3", "2.50E+10", "0.0", "-12.5e6"]).to_string()),
    }
}

/// A random JSON tree at most `depth` containers deep.
#[derive(Clone, Copy, Debug)]
struct Tree {
    depth: u32,
}

impl Strategy for Tree {
    type Value = Json;

    fn generate(&self, rng: &mut TestRng) -> Json {
        let leaf = self.depth == 0 || rng.below(3) == 0;
        let inner = Tree {
            depth: self.depth.saturating_sub(1),
        };
        match rng.below(if leaf { 4 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.below(2) == 1),
            2 => number(rng),
            3 => Json::Str(string(rng)),
            4 => Json::Arr((0..rng.below(4)).map(|_| inner.generate(rng)).collect()),
            _ => Json::Obj(
                (0..rng.below(4))
                    .map(|_| (string(rng), inner.generate(rng)))
                    .collect(),
            ),
        }
    }
}

/// Text assembled from JSON tokens, fragments of escapes and literals,
/// and stray bytes: mostly malformed, sometimes valid.
#[derive(Clone, Copy, Debug)]
struct Hostile;

const TOKENS: &[&str] = &[
    "{", "}", "[", "]", ":", ",", "\"", "\\", "\\u", "\\ud83d", "\\ude00", "d800", "\\n", "0", "1",
    "-", ".", "e", "E", "+", "9", "true", "fals", "null", " ", "\n", "\u{1}", "ä", "😀", "\"k\"",
    "x",
];

impl Strategy for Hostile {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        (0..rng.below(40)).map(|_| pick(rng, TOKENS)).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn parse_never_panics_on_hostile_text(text in Hostile) {
        // An error is fine; a panic fails the test. A successful parse
        // must re-read from its own rendering.
        if let Ok(doc) = parse(&text) {
            prop_assert_eq!(parse(&doc.render_line()), Ok(doc));
        }
    }

    #[test]
    fn rendered_trees_read_back_identically(doc in Tree { depth: 4 }) {
        prop_assert_eq!(parse(&doc.render()), Ok(doc.clone()));
        prop_assert_eq!(parse(&doc.render_line()), Ok(doc));
    }
}

proptest! {
    #[test]
    fn parse_never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = parse(&String::from_utf8_lossy(&bytes));
    }
}
