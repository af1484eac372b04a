//! The native reference: what every generated program must leave in its
//! arrays, computed in plain Rust with wrapping `i64` arithmetic and the
//! documented builtins (`g(x) = x + 7`). Nothing here touches `wlp-ir`, so
//! an interpreter bug cannot hide behind an identical bug in the checker.
//!
//! A program is a list of statement [`Group`]s sharing one induction
//! variable `i` that runs from `start` while `i < n`. A group is one of the
//! seven corpus templates, with its arrays renamed by a suffix and one
//! small constant `c` woven into a right-hand side (`c` takes the
//! template's own value, or 0 where the template has no constant, for the
//! canonical corpus text).

use std::collections::BTreeMap;

/// 64-bit FNV-1a, the digest `docs/PROTOCOL.md` names for result arrays
/// and program keys.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of an integer array: FNV-1a-64 over each element's
/// little-endian bytes, in order.
pub fn digest(data: &[i64]) -> u64 {
    let bytes: Vec<u8> = data.iter().flat_map(|x| x.to_le_bytes()).collect();
    fnv1a64(&bytes)
}

/// The seven corpus templates, in `corpus()` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Swap,
    GatherScatter,
    CountedFill,
    GuardedUpdate,
    PartialSums,
    Wavefront,
    McsparsePair,
}

impl Kind {
    pub const ALL: [Kind; 7] = [
        Kind::Swap,
        Kind::GatherScatter,
        Kind::CountedFill,
        Kind::GuardedUpdate,
        Kind::PartialSums,
        Kind::Wavefront,
        Kind::McsparsePair,
    ];

    /// The name `corpus()` lists the template under.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Swap => "swap",
            Kind::GatherScatter => "gather_scatter",
            Kind::CountedFill => "counted_fill",
            Kind::GuardedUpdate => "guarded_update",
            Kind::PartialSums => "partial_sums",
            Kind::Wavefront => "wavefront",
            Kind::McsparsePair => "mcsparse_pair",
        }
    }

    /// The constant the canonical corpus text carries (0 = none).
    pub fn canonical_c(self) -> i64 {
        match self {
            Kind::GatherScatter | Kind::McsparsePair => 2,
            Kind::Wavefront => 3,
            _ => 0,
        }
    }

    /// First value of `i` in the canonical corpus text: templates that
    /// read element `i - 1` start at 1.
    pub fn canonical_start(self) -> usize {
        match self {
            Kind::GatherScatter | Kind::CountedFill | Kind::GuardedUpdate => 0,
            _ => 1,
        }
    }
}

/// One template instance inside a program body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    pub kind: Kind,
    /// Appended to every array and scalar name the group owns (`""` for
    /// the canonical corpus text).
    pub suffix: String,
    /// The group's constant; see [`Kind::canonical_c`].
    pub c: i64,
}

impl Group {
    pub fn canonical(kind: Kind) -> Group {
        Group {
            kind,
            suffix: String::new(),
            c: kind.canonical_c(),
        }
    }

    pub fn name(&self, base: &str) -> String {
        format!("{base}{}", self.suffix)
    }
}

/// Named arrays, ordered by name (the order the daemon reports digests in).
pub type Arrays = BTreeMap<String, Vec<i64>>;

/// What a `run` response must report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    pub iterations: u64,
    pub exited_at: Option<u64>,
    pub digests: Vec<(String, u64)>,
}

fn arr<'a>(arrays: &'a mut Arrays, g: &Group, base: &str) -> &'a mut Vec<i64> {
    arrays
        .get_mut(&g.name(base))
        .unwrap_or_else(|| panic!("reference: array `{}` was not generated", g.name(base)))
}

/// Whether `g`'s `exit if` fires at the head of iteration `i` (only
/// guarded_update has one; the interpreter hoists exit tests to the head
/// of the iteration, so the test sees the element before its update).
fn exits(g: &Group, i: usize, arrays: &mut Arrays, limit: i64) -> bool {
    g.kind == Kind::GuardedUpdate && arr(arrays, g, "A")[i] > limit
}

/// One iteration of one group.
fn step(g: &Group, i: usize, arrays: &mut Arrays) {
    let c = g.c;
    match g.kind {
        Kind::Swap => {
            let a = arr(arrays, g, "A");
            let tmp = a[2 * i];
            a[2 * i] = a[2 * i - 1].wrapping_add(c);
            a[2 * i - 1] = tmp;
        }
        Kind::GatherScatter => {
            let b = c.wrapping_mul(arr(arrays, g, "w")[i]);
            arr(arrays, g, "B")[i] = b;
            let e = usize::try_from(arr(arrays, g, "idx")[i]).expect("idx is non-negative");
            let a = arr(arrays, g, "A");
            a[e] = a[e].wrapping_add(b);
        }
        Kind::CountedFill => {
            let w = arr(arrays, g, "w")[i];
            arr(arrays, g, "A")[i] = w.wrapping_add(c);
        }
        Kind::GuardedUpdate => {
            let a = arr(arrays, g, "A");
            a[i] = a[i].wrapping_add(7).wrapping_add(c);
        }
        Kind::PartialSums => {
            let a = arr(arrays, g, "A");
            a[i] = a[i].wrapping_add(a[i - 1]).wrapping_add(c);
        }
        Kind::Wavefront => {
            let w = arr(arrays, g, "w")[i];
            let b = arr(arrays, g, "B");
            let prev = b[i - 1];
            b[i] = prev.wrapping_add(w);
            arr(arrays, g, "C")[i] = prev.wrapping_add(c);
        }
        Kind::McsparsePair => {
            let w = arr(arrays, g, "w")[i];
            let a = arr(arrays, g, "A");
            let prev = a[i - 1];
            a[i] = prev.wrapping_add(w);
            let b = arr(arrays, g, "B");
            b[i] = b[i - 1].wrapping_mul(c);
            arr(arrays, g, "C")[i] = prev.wrapping_add(w);
        }
    }
}

/// Runs `groups` over `i in start..n` on `arrays` and digests the result.
/// `limit` is the guarded_update exit bound (every guarded group shares
/// the request's one bound, under its own suffixed name).
pub fn run(groups: &[Group], start: usize, n: usize, limit: i64, mut arrays: Arrays) -> Outcome {
    let mut done = 0u64;
    for i in start..n {
        if groups.iter().any(|g| exits(g, i, &mut arrays, limit)) {
            break;
        }
        for g in groups {
            step(g, i, &mut arrays);
        }
        done += 1;
    }
    Outcome {
        iterations: done,
        // both a failing `while` condition and a firing `exit if` are
        // reported as the (0-based) iteration count at which they fired
        exited_at: Some(done),
        digests: arrays.iter().map(|(k, v)| (k.clone(), digest(v))).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_the_standard_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    /// One `case` block of `tests/expected_n8.txt`.
    #[derive(Default)]
    struct Case {
        name: String,
        start: usize,
        limit: i64,
        groups: Vec<Group>,
        input: Arrays,
        output: Arrays,
        digests: Vec<(String, u64)>,
        iterations: u64,
    }

    fn cases() -> Vec<Case> {
        let mut cases: Vec<Case> = Vec::new();
        for line in include_str!("../tests/expected_n8.txt").lines() {
            let words: Vec<&str> = line.split_whitespace().collect();
            let ints = |w: &[&str]| {
                w.iter()
                    .map(|x| x.parse::<i64>().unwrap())
                    .collect::<Vec<_>>()
            };
            match words[..] {
                [] => {}
                [first, ..] if first.starts_with('#') => {}
                ["case", name, "start", start, "limit", limit] => cases.push(Case {
                    name: name.into(),
                    start: start.parse().unwrap(),
                    limit: limit.parse().unwrap(),
                    ..Case::default()
                }),
                ["group", kind, suffix, c] => cases.last_mut().unwrap().groups.push(Group {
                    kind: *Kind::ALL.iter().find(|k| k.name() == kind).unwrap(),
                    suffix: if suffix == "-" {
                        String::new()
                    } else {
                        suffix.into()
                    },
                    c: c.parse().unwrap(),
                }),
                ["in", name, ref data @ ..] => {
                    cases
                        .last_mut()
                        .unwrap()
                        .input
                        .insert(name.into(), ints(data));
                }
                ["out", name, ref data @ ..] => {
                    cases
                        .last_mut()
                        .unwrap()
                        .output
                        .insert(name.into(), ints(data));
                }
                ["digest", name, hex] => cases.last_mut().unwrap().digests.push((
                    name.into(),
                    u64::from_str_radix(hex.trim_start_matches("0x"), 16).unwrap(),
                )),
                ["iterations", n] => cases.last_mut().unwrap().iterations = n.parse().unwrap(),
                _ => panic!("unreadable line in expected_n8.txt: {line}"),
            }
        }
        cases
    }

    #[test]
    fn reference_matches_the_hand_written_results_at_n_8() {
        let cases = cases();
        // all seven templates, the colliding subscripts, the salted variants
        assert_eq!(cases.len(), 12);
        for kind in Kind::ALL {
            assert!(
                cases.iter().any(|c| c.name == kind.name()),
                "{}",
                kind.name()
            );
        }
        for case in cases {
            let got = run(&case.groups, case.start, 8, case.limit, case.input.clone());
            assert_eq!(got.iterations, case.iterations, "{}", case.name);
            assert_eq!(got.exited_at, Some(case.iterations), "{}", case.name);
            assert_eq!(got.digests, case.digests, "{}", case.name);
            // the file's digests are the digests of the file's arrays
            for (name, d) in &case.digests {
                assert_eq!(digest(&case.output[name]), *d, "{} {name}", case.name);
            }
        }
    }

    #[test]
    fn digest_is_fnv_over_little_endian_elements() {
        // 1 and 256 differ only in which byte of the element is set
        assert_eq!(digest(&[1]), fnv1a64(&[1, 0, 0, 0, 0, 0, 0, 0]));
        assert_eq!(digest(&[256]), fnv1a64(&[0, 1, 0, 0, 0, 0, 0, 0]));
        assert_eq!(digest(&[-1]), fnv1a64(&[0xff; 8]));
        assert_eq!(digest(&[]), fnv1a64(b""));
    }
}
