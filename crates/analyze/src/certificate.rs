//! Speculation-safety certificates: the static contract the runtime
//! consumes.
//!
//! A certificate summarizes what the analysis *proved* about one loop: how
//! many writes an iteration can perform at most (the may-write bound),
//! which of those writes are **certified-uncertain** (only they need
//! shadow instrumentation), and the refined verdict. Its output is
//! [`SafetyCertificate::write_budget`], which bounds the undo log:
//! `SpeculativeArray::with_budget` gets the certified bound instead of the
//! naive every-write one, and `wlp-serve` reserves it from the tenant's
//! credits per request.

use crate::privatize::Privatization;
use wlp_core::taxonomy::{Parallelism, TerminatorClass};
use wlp_ir::{ArrayId, LoopIr, Subscript, WRef};

/// The analysis verdict a certificate carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CertVerdict {
    /// No run-time test needed: every surviving access is provably
    /// independent. Execute as a DOALL.
    CertifiedDoall,
    /// A loop-carried dependence is provable: speculation would abort
    /// deterministically. Execute sequentially.
    CertifiedSequential,
    /// Some accesses stay uncertain: speculate, but only the certified
    /// write bound needs shadowing/undo.
    SpeculateBounded,
}

impl CertVerdict {
    /// Short stable name (cache lines, JSON responses).
    pub fn name(&self) -> &'static str {
        match self {
            CertVerdict::CertifiedDoall => "certified_doall",
            CertVerdict::CertifiedSequential => "certified_sequential",
            CertVerdict::SpeculateBounded => "speculate_bounded",
        }
    }

    fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "certified_doall" => CertVerdict::CertifiedDoall,
            "certified_sequential" => CertVerdict::CertifiedSequential,
            "speculate_bounded" => CertVerdict::SpeculateBounded,
            _ => return None,
        })
    }
}

/// The static safety contract for one loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SafetyCertificate {
    /// Refined verdict.
    pub verdict: CertVerdict,
    /// Dataflow-classified terminator.
    pub terminator: TerminatorClass,
    /// Dispatcher parallelism of the refined plan.
    pub parallelism: Parallelism,
    /// Statically bounded may-write set size per iteration: every write
    /// the remainder can perform (dispatcher updates are materialized up
    /// front and excluded).
    pub writes_per_iter: u64,
    /// Of those, the writes the analysis could **not** certify — only
    /// these need shadow marks and undo entries.
    pub uncertain_writes_per_iter: u64,
    /// The arrays the uncertainty lives in (the shadow structures to
    /// allocate). Empty for certified verdicts.
    pub uncertain_arrays: Vec<ArrayId>,
    /// The statements whose accesses must go through the shadow (the
    /// uncertain partition of the remainder). Everything else is the
    /// *certified* partition: provably conflict-free, left uninstrumented.
    /// Empty for certified verdicts.
    pub uncertain_stmts: Vec<usize>,
}

impl SafetyCertificate {
    /// Whether the run-time PD test is still required.
    pub fn needs_pd(&self) -> bool {
        self.uncertain_writes_per_iter > 0
    }

    /// The certified undo-log budget for `iters` iterations: only
    /// uncertain writes are stamped. A valid execution can never trip it.
    pub fn write_budget(&self, iters: u64) -> u64 {
        self.uncertain_writes_per_iter * iters
    }

    /// The budget a certificate-less runtime must assume: every write
    /// shadowed. The gap to [`write_budget`](Self::write_budget) is the
    /// memory and `T_d` the certificate saves.
    pub fn naive_write_budget(&self, iters: u64) -> u64 {
        self.writes_per_iter * iters
    }
}

/// A failure decoding a compact certificate line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertDecodeError {
    /// What was malformed.
    pub msg: String,
}

impl std::fmt::Display for CertDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "certificate decode error: {}", self.msg)
    }
}

impl std::error::Error for CertDecodeError {}

fn decode_err<T>(msg: impl Into<String>) -> Result<T, CertDecodeError> {
    Err(CertDecodeError { msg: msg.into() })
}

impl SafetyCertificate {
    /// Encodes the certificate as one stable, newline-free text line —
    /// the cache-friendly representation `wlp-serve`'s certificate cache
    /// stores and ships. The format is versioned (`cert-v1;…`) and
    /// round-trips exactly: [`decode_compact`](Self::decode_compact) of
    /// the result equals `self` (property-tested in
    /// `tests/cert_roundtrip.rs`).
    pub fn encode_compact(&self) -> String {
        let term = match self.terminator {
            TerminatorClass::RemainderInvariant => "ri",
            TerminatorClass::RemainderVariant => "rv",
        };
        let par = match self.parallelism {
            Parallelism::Full => "full",
            Parallelism::ParallelPrefix => "prefix",
            Parallelism::Sequential => "seq",
        };
        let join = |xs: &[String]| xs.join(",");
        format!(
            "cert-v1;verdict={};term={};par={};w={};u={};ua={};us={}",
            self.verdict.name(),
            term,
            par,
            self.writes_per_iter,
            self.uncertain_writes_per_iter,
            join(
                &self
                    .uncertain_arrays
                    .iter()
                    .map(|a| a.0.to_string())
                    .collect::<Vec<_>>()
            ),
            join(
                &self
                    .uncertain_stmts
                    .iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
            ),
        )
    }

    /// Decodes a [`encode_compact`](Self::encode_compact) line.
    pub fn decode_compact(line: &str) -> Result<Self, CertDecodeError> {
        let mut fields = line.trim().split(';');
        if fields.next() != Some("cert-v1") {
            return decode_err("missing `cert-v1` version tag");
        }
        let mut verdict = None;
        let mut term = None;
        let mut par = None;
        let mut w = None;
        let mut u = None;
        let mut ua = None;
        let mut us = None;
        for field in fields {
            let Some((key, val)) = field.split_once('=') else {
                return decode_err(format!("field `{field}` has no `=`"));
            };
            match key {
                "verdict" => {
                    verdict = Some(CertVerdict::from_name(val).ok_or_else(|| CertDecodeError {
                        msg: format!("unknown verdict `{val}`"),
                    })?);
                }
                "term" => {
                    term = Some(match val {
                        "ri" => TerminatorClass::RemainderInvariant,
                        "rv" => TerminatorClass::RemainderVariant,
                        _ => return decode_err(format!("unknown terminator `{val}`")),
                    });
                }
                "par" => {
                    par = Some(match val {
                        "full" => Parallelism::Full,
                        "prefix" => Parallelism::ParallelPrefix,
                        "seq" => Parallelism::Sequential,
                        _ => return decode_err(format!("unknown parallelism `{val}`")),
                    });
                }
                "w" => w = Some(parse_u64(val)?),
                "u" => u = Some(parse_u64(val)?),
                "ua" => {
                    ua = Some(
                        parse_list(val)?
                            .into_iter()
                            .map(|n| ArrayId(n as u32))
                            .collect(),
                    );
                }
                "us" => {
                    us = Some(parse_list(val)?.into_iter().map(|n| n as usize).collect());
                }
                _ => return decode_err(format!("unknown field `{key}`")),
            }
        }
        Ok(SafetyCertificate {
            verdict: verdict.ok_or_else(|| CertDecodeError {
                msg: "missing `verdict`".into(),
            })?,
            terminator: term.ok_or_else(|| CertDecodeError {
                msg: "missing `term`".into(),
            })?,
            parallelism: par.ok_or_else(|| CertDecodeError {
                msg: "missing `par`".into(),
            })?,
            writes_per_iter: w.ok_or_else(|| CertDecodeError {
                msg: "missing `w`".into(),
            })?,
            uncertain_writes_per_iter: u.ok_or_else(|| CertDecodeError {
                msg: "missing `u`".into(),
            })?,
            uncertain_arrays: ua.ok_or_else(|| CertDecodeError {
                msg: "missing `ua`".into(),
            })?,
            uncertain_stmts: us.ok_or_else(|| CertDecodeError {
                msg: "missing `us`".into(),
            })?,
        })
    }
}

fn parse_u64(val: &str) -> Result<u64, CertDecodeError> {
    val.parse::<u64>().map_err(|_| CertDecodeError {
        msg: format!("`{val}` is not an unsigned integer"),
    })
}

fn parse_list(val: &str) -> Result<Vec<u64>, CertDecodeError> {
    if val.is_empty() {
        return Ok(Vec::new());
    }
    val.split(',').map(parse_u64).collect()
}

impl serde::Serialize for SafetyCertificate {
    fn serialize(&self) -> serde::Value {
        serde::Value::Object(vec![
            (
                "verdict".into(),
                serde::Value::Str(self.verdict.name().into()),
            ),
            (
                "terminator".into(),
                serde::Value::Str(
                    match self.terminator {
                        TerminatorClass::RemainderInvariant => "remainder_invariant",
                        TerminatorClass::RemainderVariant => "remainder_variant",
                    }
                    .into(),
                ),
            ),
            (
                "writes_per_iter".into(),
                serde::Value::UInt(self.writes_per_iter),
            ),
            (
                "uncertain_writes_per_iter".into(),
                serde::Value::UInt(self.uncertain_writes_per_iter),
            ),
            (
                "uncertain_arrays".into(),
                serde::Value::Array(
                    self.uncertain_arrays
                        .iter()
                        .map(|a| serde::Value::UInt(u64::from(a.0)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Counts the body's write bound and the uncertain subset.
///
/// `refined` is the body after privatization censoring; `priv_info` tells
/// which original writes were privatized (they still execute, so they
/// count toward the may-write bound, but touch private memory — no shadow,
/// no undo). A surviving write is *uncertain* iff its array also carries
/// `Unknown`-subscript accesses in the refined body, or its statement is
/// incident to a loop-carried edge in the dispatcher-censored remainder
/// (`carried_stmts`) — the accesses the PD shadow must instrument.
pub fn count_writes(
    body: &LoopIr,
    refined: &LoopIr,
    priv_info: &Privatization,
    carried_stmts: &std::collections::BTreeSet<usize>,
) -> (u64, u64, Vec<ArrayId>, Vec<usize>) {
    // dispatcher updates are materialized up front (closed form / prefix),
    // so only remainder statements contribute to the may-write bound
    let writes_per_iter: u64 = body
        .stmts
        .iter()
        .filter(|s| !matches!(s.kind, wlp_ir::StmtKind::Update(_)))
        .map(|s| s.writes.len() as u64)
        .sum();

    let mut uncertain_arrays: Vec<ArrayId> = refined
        .stmts
        .iter()
        .flat_map(|s| s.writes.iter().chain(s.reads.iter()))
        .filter_map(|r| match r {
            WRef::Element(a, Subscript::Unknown) => Some(*a),
            _ => None,
        })
        .collect();
    uncertain_arrays.sort();
    uncertain_arrays.dedup();

    // recurrence updates are evaluated by closed form / parallel prefix,
    // not through the shadowed store — their writes are never uncertain
    let flagged: Vec<(usize, &WRef)> = refined
        .stmts
        .iter()
        .enumerate()
        .filter(|(_, s)| !matches!(s.kind, wlp_ir::StmtKind::Update(_)))
        .flat_map(|(si, s)| s.writes.iter().map(move |w| (si, w)))
        .filter(|(si, w)| {
            carried_stmts.contains(si)
                || match w {
                    WRef::Element(a, _) => {
                        uncertain_arrays.contains(a) && !priv_info.arrays.contains(a)
                    }
                    WRef::Scalar(v) => !priv_info.scalars.contains(v),
                }
        })
        .collect();
    let uncertain = flagged.len() as u64;
    let mut uncertain_stmts: Vec<usize> = flagged.iter().map(|(si, _)| *si).collect();
    uncertain_stmts.sort_unstable();
    uncertain_stmts.dedup();

    (
        writes_per_iter,
        uncertain,
        uncertain_arrays,
        uncertain_stmts,
    )
}
