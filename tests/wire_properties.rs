//! Property tests for the wire and journal codecs: hostile bytes never
//! panic the parsers, every document the JSON parser accepts survives a
//! write/read round trip bit for bit, and every journal record kind
//! round-trips through its JSONL line — the property journal replay
//! depends on.

use adept::platform::{MflopRate, Seconds};
use adept::serve::{ExecutionSample, Json, Record, Request, ServiceDef, SessionConfig};
use proptest::prelude::*;

/// SplitMix64: expands one proptest-drawn seed into a structured case,
/// since the offline proptest shim offers only ranges, tuples and vecs.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }

    /// Any finite `f64`, from every exponent: random bits, resampled
    /// until finite.
    fn finite(&mut self) -> f64 {
        loop {
            let v = f64::from_bits(self.next());
            if v.is_finite() {
                return v;
            }
        }
    }

    /// A unit-interval draw, `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A counter as journals carry it: JSON numbers are `f64`, exact up
    /// to 2^53.
    fn counter(&mut self) -> u64 {
        self.below(1 << 53)
    }

    /// A string mixing ASCII with what the writer must escape and
    /// multi-byte characters.
    fn text(&mut self) -> String {
        const CHARS: &[char] = &[
            'a', 'z', '0', ' ', '-', '"', '\\', '/', '\n', '\r', '\t', '\u{1}', '\u{8}', '\u{c}',
            '\u{1f}', '\u{7f}', 'é', '\u{2028}', '€', '😀',
        ];
        let len = self.below(12);
        (0..len).map(|_| self.pick(CHARS)).collect()
    }
}

/// JSON fragments mixed into the hostile byte strings, so they reach
/// past the first byte of the parsers more often than noise would.
const FRAGMENTS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    "\"",
    ":",
    ",",
    "\\",
    "\\u",
    "\\ud800",
    "-",
    "0",
    "7",
    ".",
    "e",
    "E",
    "+",
    "1e999",
    "-1e999",
    "1e-999",
    "null",
    "true",
    "false",
    "nul",
    "\"id\"",
    "\"method\"",
    "\"params\"",
    "\"record\"",
    "\"tick\"",
    "\"rates\"",
    " ",
    "\n",
];

/// A hostile line: `depth` openers around random bytes and fragments,
/// closed again half the time. Depths reach past the parser's nesting
/// cap of 64.
fn hostile_line(seed: u64, tokens: &[u16], depth: usize) -> Vec<u8> {
    let mut g = Gen(seed);
    let mut bytes = Vec::new();
    let openers: Vec<&[u8]> = (0..depth)
        .map(|_| {
            if g.one_in(2) {
                b"[".as_slice()
            } else {
                b"{\"k\":".as_slice()
            }
        })
        .collect();
    for opener in &openers {
        bytes.extend_from_slice(opener);
    }
    for &t in tokens {
        match t.checked_sub(256) {
            None => bytes.push(t as u8),
            Some(i) => bytes.extend_from_slice(FRAGMENTS[usize::from(i)].as_bytes()),
        }
    }
    if g.one_in(2) {
        for opener in openers.iter().rev() {
            bytes.push(if opener[0] == b'[' { b']' } else { b'}' });
        }
    }
    bytes
}

/// A number literal in any of the forms the parser accepts, with
/// exponents well past both ends of `f64`'s range (±308).
fn number_literal(g: &mut Gen) -> String {
    let mut s = String::new();
    if g.one_in(3) {
        s.push('-');
    }
    let digits = 1 + g.below(20);
    for i in 0..digits {
        let d = if i == 0 { 1 + g.below(9) } else { g.below(10) };
        s.push(char::from(b'0' + d as u8));
    }
    if g.one_in(2) {
        s.push('.');
        for _ in 0..1 + g.below(8) {
            s.push(char::from(b'0' + g.below(10) as u8));
        }
    }
    if g.one_in(2) {
        s.push(g.pick(&['e', 'E']));
        let exp = g.below(661) as i64 - 330;
        s.push_str(&exp.to_string());
    }
    s
}

/// A string literal using every escape the parser reads.
fn string_literal(g: &mut Gen) -> String {
    const PIECES: &[&str] = &[
        "a", "Z", " ", "é", "😀", "\\\"", "\\\\", "\\/", "\\n", "\\r", "\\t", "\\b", "\\f",
        "\\u0041", "\\u00e9", "\\u0001", "\\ud800", "\\u2028",
    ];
    let mut s = String::from("\"");
    for _ in 0..g.below(8) {
        s.push_str(g.pick(PIECES));
    }
    s.push('"');
    s
}

/// A JSON document's text, nesting at most `depth` more containers.
fn document(g: &mut Gen, depth: usize) -> String {
    let kind = if depth == 0 { g.below(5) } else { g.below(7) };
    match kind {
        0 => "null".to_string(),
        1 => g.pick(&["true", "false"]).to_string(),
        2 | 3 => number_literal(g),
        4 => string_literal(g),
        5 => {
            let items: Vec<String> = (0..g.below(5)).map(|_| document(g, depth - 1)).collect();
            format!("[{}]", items.join(","))
        }
        _ => {
            let pairs: Vec<String> = (0..g.below(5))
                .map(|_| format!("{}: {}", string_literal(g), document(g, depth - 1)))
                .collect();
            format!("{{ {} }}", pairs.join(" , "))
        }
    }
}

/// Structural equality with numbers compared bit for bit (`==` on
/// `f64` would equate `0.0` and `-0.0`).
fn bit_eq(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
        (Json::Arr(xs), Json::Arr(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| bit_eq(x, y))
        }
        (Json::Obj(xs), Json::Obj(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((kx, x), (ky, y))| kx == ky && bit_eq(x, y))
        }
        _ => a == b,
    }
}

/// A demand vector: finite non-negative rates and `INFINITY`
/// ("unbounded", journaled as `null`).
fn demand(g: &mut Gen) -> Vec<f64> {
    (0..1 + g.below(4))
        .map(|_| {
            if g.one_in(4) {
                f64::INFINITY
            } else {
                g.finite().abs()
            }
        })
        .collect()
}

/// A session config that `SessionConfig::from_json` accepts.
fn session_config(g: &mut Gen) -> SessionConfig {
    SessionConfig {
        drift_threshold: g.finite().abs().max(f64::MIN_POSITIVE),
        min_sustained: g.counter(),
        // `u64::MAX` is the "never again" cooldown; it rides as 2^64 and
        // saturates back.
        cooldown_ticks: if g.one_in(4) { u64::MAX } else { g.counter() },
        demand_alpha: 1.0 - g.unit(),
        wapp_alpha: 1.0 - g.unit(),
        headroom: g.finite().abs().max(f64::MIN_POSITIVE),
        max_changes: 1 + g.counter(),
        failure_probability: g.unit(),
        failure_seed: g.counter(),
    }
}

/// One journal record of any kind.
fn record(g: &mut Gen) -> Record {
    match g.below(5) {
        0 => Record::Register {
            tenant: g.text(),
            platform: g.text(),
            fingerprint: g.next(),
            services: (0..1 + g.below(4))
                .map(|_| ServiceDef {
                    name: g.text(),
                    wapp_mflop: g.finite(),
                    weight: g.finite(),
                })
                .collect(),
            demand: demand(g),
            config: session_config(g),
        },
        1 => Record::Tick {
            rates: (0..g.below(5)).map(|_| g.finite()).collect(),
            executions: (0..g.below(4))
                .map(|_| ExecutionSample {
                    service: g.below(64) as usize,
                    duration: Seconds(g.finite()),
                    power: MflopRate(g.finite()),
                })
                .collect(),
        },
        2 => Record::Replan { demand: demand(g) },
        3 => Record::Migration {
            seq: g.counter(),
            tick: g.counter(),
            changes: g.counter(),
            servers_after: g.counter(),
        },
        _ => Record::Drain,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic_the_parsers(
        seed in 0u64..u64::MAX,
        tokens in proptest::collection::vec(0u16..256 + FRAGMENTS.len() as u16, 0..160),
        depth in 0usize..72,
    ) {
        let bytes = hostile_line(seed, &tokens, depth);
        // Decoded as the daemon's connection loop decodes a frame.
        let line = String::from_utf8_lossy(&bytes);
        let parsed = Json::parse(&line);
        let _ = Request::parse(&line);
        let _ = Record::parse(&line, 1);
        if let Ok(v) = parsed {
            prop_assert!(
                Json::parse(&v.to_string()).is_ok(),
                "accepted {line:?} but not its own encoding"
            );
        }
    }

    #[test]
    fn accepted_documents_round_trip_bit_for_bit(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let text = document(&mut g, 4);
        if let Ok(v) = Json::parse(&text) {
            let encoded = v.to_string();
            let again = Json::parse(&encoded);
            prop_assert!(
                again.as_ref().is_ok_and(|w| bit_eq(&v, w)),
                "{text:?} parsed to {v:?}, wrote {encoded:?}, re-parsed to {again:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_journal_record_round_trips(seed in 0u64..u64::MAX) {
        let r = record(&mut Gen(seed));
        let line = r.to_json().to_string();
        let back = Record::parse(&line, 1);
        prop_assert!(
            back.as_ref().is_ok_and(|b| *b == r),
            "{r:?} wrote {line:?}, read back {back:?}"
        );
    }
}
