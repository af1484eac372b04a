//! Generated multi-recurrence loop bodies for the fission suites:
//! independent array recurrences, cross-array consumers at distances 1–3,
//! same-iteration consumers and pure DOALL statements, one array `X{j}`
//! written per statement.

use proptest::prelude::*;

/// One generated body statement writing its own array `X{j}`.
#[derive(Debug, Clone)]
pub enum Kind {
    /// `Xj[i] = Xj[i - 1] + w[i] + c` — a provable recurrence.
    Recurrence,
    /// `Xj[i] = Xof[i - dist] + w[i] + c` — a cross-array carried read.
    Consumer { of: usize, dist: usize },
    /// `Xj[i] = Xof[i] + c` — a loop-independent cross-array read.
    SameIter { of: usize },
    /// `Xj[i] = c * w[i]` — fully independent.
    Independent,
}

#[derive(Debug, Clone)]
pub struct Params {
    pub n: usize,
    pub stmts: Vec<(Kind, i64)>,
}

/// Raw per-statement choice; `of` targets are resolved modulo the
/// statement's position so consumers always read an *earlier* array.
fn stmt_strategy() -> impl Strategy<Value = (u8, usize, usize, i64)> {
    (0u8..4, 0usize..8, 1usize..4, -3i64..4)
}

pub fn params_strategy() -> impl Strategy<Value = Params> {
    (6usize..40, prop::collection::vec(stmt_strategy(), 2..5)).prop_map(|(n, raw)| {
        let stmts = raw
            .into_iter()
            .enumerate()
            .map(|(j, (sel, of_raw, dist, c))| {
                let kind = match sel {
                    0 => Kind::Recurrence,
                    1 if j > 0 => Kind::Consumer {
                        of: of_raw % j,
                        dist,
                    },
                    2 if j > 0 => Kind::SameIter { of: of_raw % j },
                    3 => Kind::Independent,
                    _ => Kind::Recurrence, // first statement has no earlier array
                };
                (kind, c)
            })
            .collect();
        Params { n, stmts }
    })
}

pub fn source_of(p: &Params) -> String {
    let mut body = String::new();
    for (j, (kind, c)) in p.stmts.iter().enumerate() {
        let line = match kind {
            Kind::Recurrence => format!("X{j}[i] = X{j}[i - 1] + w[i] + {c}"),
            Kind::Consumer { of, dist } => format!("X{j}[i] = X{of}[i - {dist}] + w[i] + {c}"),
            Kind::SameIter { of } => format!("X{j}[i] = X{of}[i] + {c}"),
            Kind::Independent => format!("X{j}[i] = {c} * w[i]"),
        };
        body.push_str(&format!("    {line}\n"));
    }
    body.push_str("    i = i + 1\n");
    // i starts at 3 so every distance-1..3 read stays in bounds
    format!("integer i = 3\nwhile (i < {}) {{\n{body}}}", p.n)
}
