//! Seeded input generation: every spec the program sees is `.g` text
//! derived from a committed base spec by a seeded signal renaming.
//!
//! Generation is a pure function of the seed. Renaming inserts a seeded
//! digit tag after the first character of every signal name, which keeps
//! the relative order of all names (and their order against the `csc<i>`
//! names state-signal insertion picks). Canonical state graphs sort by
//! signal name, so every renaming of one base spec synthesizes the same
//! circuit up to names: the expected verdicts, inserted-signal counts and
//! literal counts below hold for every seed, while the text — and with it
//! every content-addressed cache key — differs per renaming.

use simc_benchmarks::{generators, scale, suite};

/// A small deterministic generator (splitmix64).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` in the named stream, so different workloads
    /// and purposes never share draws.
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut rng = Rng(seed ^ 0x005E_ED0F_51AC_u64);
        for b in stream.bytes() {
            rng.0 ^= u64::from(b);
            rng.next_u64();
        }
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Deals `items` in rounds, each a fresh seeded shuffle, so every item
/// comes up equally often: the mix of a run does not depend on the seed.
pub struct Deck<T> {
    items: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    /// A deck holding each item `n` times.
    pub fn new(counts: &[(T, usize)]) -> Deck<T> {
        let items: Vec<T> = counts
            .iter()
            .flat_map(|&(item, n)| std::iter::repeat_n(item, n))
            .collect();
        Deck {
            next: items.len(),
            items,
        }
    }

    /// The next item; a fresh shuffle starts each round.
    pub fn deal(&mut self, rng: &mut Rng) -> T {
        if self.next == self.items.len() {
            rng.shuffle(&mut self.items);
            self.next = 0;
        }
        self.next += 1;
        self.items[self.next - 1]
    }
}

/// A committed base spec with the answers every renaming of it must get.
#[derive(Debug, Clone)]
pub struct Base {
    /// Stable name (`ganesh_8`, `sequencer-3`, `ring-14`).
    pub name: String,
    /// The un-renamed `.g` text.
    pub text: String,
    /// State signals MC-reduction inserts (Table 1 "added signals").
    pub added: u64,
    /// Literals of the basic-gate implementation (Table 1 "literals").
    pub literals: u64,
}

/// Expected `(added signals, literals)` per base spec, recorded from the
/// default seed with `simc batch`. A change that alters synthesis quality
/// shows here as a correctness failure naming the spec.
const EXPECTED: &[(&str, u64, u64)] = &[
    ("nak-pa", 1, 18),
    ("nowick", 1, 14),
    ("duplicator", 2, 22),
    ("ganesh_8", 4, 51),
    ("berkel2", 2, 18),
    ("berkel3", 4, 36),
    ("mp-forward-pkt", 0, 10),
    ("luciano", 1, 12),
    ("Delement", 1, 10),
    ("sequencer-2", 2, 22),
    ("sequencer-3", 4, 36),
    ("sequencer-4", 4, 51),
    ("sequencer-5", 6, 71),
    ("ring-13", 0, 38),
    ("ring-14", 0, 42),
    ("ring-15", 0, 44),
];

fn base(name: String, text: String) -> Base {
    let &(_, added, literals) = EXPECTED
        .iter()
        .find(|(n, _, _)| *n == name)
        .unwrap_or_else(|| panic!("no expected values recorded for `{name}`"));
    Base {
        name,
        text,
        added,
        literals,
    }
}

/// The nine Table 1 suite specs plus `generators::sequencer(2..=5)`:
/// small graphs that violate MC, so state-signal insertion does the work.
pub fn assign_bases() -> Vec<Base> {
    let mut bases: Vec<Base> = suite::all()
        .into_iter()
        .map(|b| base(b.name.to_string(), b.stg.to_g_string()))
        .collect();
    for n in 2..=5 {
        let stg = generators::sequencer(n).expect("sequencer builds for n <= 15");
        bases.push(base(format!("sequencer-{n}"), stg.to_g_string()));
    }
    bases
}

/// `scale::ring(13..=15)`: 16k to 64k states with CSC by construction.
/// Three widths, not more: a run must hold enough samples of each for a
/// steady median (the middle width) and tail (the widest).
pub fn volume_bases() -> Vec<Base> {
    (13..=15)
        .map(|w| {
            let stg = scale::ring(w).expect("ring builds for widths <= 60");
            base(format!("ring-{w}"), stg.to_g_string())
        })
        .collect()
}

/// Names a `.g` text declares in its `.inputs`/`.outputs`/`.internal`
/// lines.
fn declared_signals(text: &str) -> Vec<String> {
    text.lines()
        .filter_map(|line| {
            let mut words = line.split_whitespace();
            match words.next() {
                Some(".inputs" | ".outputs" | ".internal") => {
                    Some(words.map(str::to_string).collect::<Vec<_>>())
                }
                _ => None,
            }
        })
        .flatten()
        .collect()
}

/// The renamed form of `name` under `tag`.
fn renamed(name: &str, tag: &str) -> String {
    let mut chars = name.chars();
    let first = chars.next().expect("signal names are non-empty");
    format!("{first}{tag}{}", chars.as_str())
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Renames every signal of a `.g` text with a seeded tag: declarations
/// and every transition (`name+`, `name-/2`, inside `<a+,b->` markings).
pub fn rename(text: &str, rng: &mut Rng) -> String {
    const TAG_CHARS: &[u8] = b"0123456789";
    let tag: String = (0..4)
        .map(|_| TAG_CHARS[rng.below(TAG_CHARS.len())] as char)
        .collect();
    let signals = declared_signals(text);
    let mut out = String::with_capacity(text.len() + 8 * signals.len());
    for line in text.lines() {
        let mut words = line.split_whitespace();
        if let Some(directive @ (".inputs" | ".outputs" | ".internal")) = words.next() {
            out.push_str(directive);
            for word in words {
                out.push(' ');
                out.push_str(&renamed(word, &tag));
            }
        } else {
            let mut rest = line;
            while let Some(start) = rest.find(is_ident) {
                out.push_str(&rest[..start]);
                let ident_len = rest[start..]
                    .find(|c: char| !is_ident(c))
                    .unwrap_or(rest.len() - start);
                let ident = &rest[start..start + ident_len];
                let after = &rest[start + ident_len..];
                if (after.starts_with('+') || after.starts_with('-'))
                    && signals.iter().any(|s| s == ident)
                {
                    out.push_str(&renamed(ident, &tag));
                } else {
                    out.push_str(ident);
                }
                rest = after;
            }
            out.push_str(rest);
        }
        out.push('\n');
    }
    out
}

/// One generated input: a renamed copy of a base spec.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Index of the base spec it renames.
    pub base: usize,
    /// The `.g` text the program receives.
    pub text: String,
}

/// `rounds` rounds over `bases`: each round holds every base once, in a
/// seeded order, each a fresh renaming. Balanced rounds keep the mix of
/// sizes — and so the medians — independent of the seed; the seed picks
/// order and names.
pub fn rounds(bases: &[Base], seed: u64, stream: &str, rounds: usize) -> Vec<Vec<Spec>> {
    let mut rng = Rng::new(seed, stream);
    let mut deck = Deck::new(&(0..bases.len()).map(|b| (b, 1)).collect::<Vec<_>>());
    (0..rounds)
        .map(|_| {
            (0..bases.len())
                .map(|_| {
                    let base = deck.deal(&mut rng);
                    Spec {
                        base,
                        text: rename(&bases[base].text, &mut rng),
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renaming_keeps_name_order_and_structure() {
        let mut rng = Rng::new(7, "test");
        for b in assign_bases()
            .into_iter()
            .chain(volume_bases().into_iter().take(1))
        {
            let text = rename(&b.text, &mut rng);
            assert_ne!(text, b.text, "{}", b.name);
            let old = declared_signals(&b.text);
            let new = declared_signals(&text);
            let mut reference: Vec<String> = (0..8).map(|i| format!("csc{i}")).collect();
            reference.extend(old.iter().cloned());
            for (i, x) in old.iter().enumerate() {
                for y in &reference {
                    let ny = new
                        .iter()
                        .zip(&old)
                        .find(|(_, o)| *o == y)
                        .map_or(y, |(n, _)| n);
                    assert_eq!(x.cmp(y), new[i].cmp(ny), "{}: {x} vs {y}", b.name);
                }
            }
            let original = simc_stg::parse_g(&b.text).expect("base parses");
            let reparsed = simc_stg::parse_g(&text).expect("renamed text parses");
            let (sg1, sg2) = (
                original.to_state_graph().unwrap(),
                reparsed.to_state_graph().unwrap(),
            );
            assert_eq!(sg1.state_count(), sg2.state_count(), "{}", b.name);
            assert_eq!(sg1.edge_count(), sg2.edge_count(), "{}", b.name);
        }
    }

    #[test]
    fn generation_is_a_pure_function_of_the_seed() {
        let bases = assign_bases();
        let a = rounds(&bases, 42, "x", 3);
        let b = rounds(&bases, 42, "x", 3);
        let c = rounds(&bases, 43, "x", 3);
        let texts = |r: &Vec<Vec<Spec>>| -> Vec<String> {
            r.iter().flatten().map(|s| s.text.clone()).collect()
        };
        assert_eq!(texts(&a), texts(&b));
        assert_ne!(texts(&a), texts(&c));
        for round in &a {
            let mut seen: Vec<usize> = round.iter().map(|s| s.base).collect();
            seen.sort_unstable();
            assert_eq!(
                seen,
                (0..bases.len()).collect::<Vec<_>>(),
                "every base once per round"
            );
        }
    }
}
