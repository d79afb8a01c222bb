//! Machine-checkable certificates for the expensive verdicts of the
//! k-set agreement pipeline, with tiny standalone checkers.
//!
//! Every costly verdict the workspace produces — a shelling order
//! (Fig. 4 / Lemma 4.6 of the paper), a table of GF(2) Betti numbers,
//! a one-round solvability decision — can be emitted as a compact,
//! plain-data **certificate** and re-verified by a checker in this
//! crate. The point of the split (DESIGN.md §11):
//!
//! - **Checker independence.** The checkers share *no* search code with
//!   the producers. The shelling checker re-implements the shelling
//!   step condition over sorted `u32` slices; the homology checker
//!   rebuilds the face closure and boundary rows from the facet list
//!   and verifies an explicit row-combination witness; the solvability
//!   checker replays the decision map over every execution. A bug in
//!   the shelling search, the chain engine, or the CSP solver cannot
//!   silently re-confirm itself.
//! - **Differential surface for parallelism.** Certificates are checked
//!   in-run by the `fig4`/`rounds`/`solv` experiments and offline by
//!   the [`cert-check`](../src/bin/cert-check.rs) binary over files
//!   emitted with `experiments --certs <dir>`, at any `KSA_THREADS`.
//! - **Plain data.** Certificates serialize to a line-based text format
//!   ([`Cert::to_text`] / [`Cert::parse`]) with no serde machinery, so
//!   a third party can audit or re-implement a checker from the format
//!   description alone.
//!
//! # Soundness scope
//!
//! Positive verdicts are *fully* certified: an accepted
//! [`ShellingCert`] order, [`HomologyCert`] rank table or
//! [`SolvabilityCert`] decision map is correct for the instance
//! embedded in the certificate, whatever the producer did. Negative
//! verdicts are certified exactly where exhaustive re-checking is
//! cheap (the shelling checker brute-forces all facet orders up to 8
//! facets) and otherwise carried as structural **attestations**
//! (exhaustion statistics + symmetry-group signature) whose internal
//! consistency is checked but whose search is not replayed. Binding a
//! certificate's embedded instance (interned facets, expanded graphs)
//! back to the original model is the producer's job; the `label` field
//! records the claimed origin for auditing.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod homology;
mod shelling;
mod solvability;
mod text;

pub use homology::{check_homology, HomologyCert, RankWitness};
pub use shelling::{check_shelling, ShellingCert, ShellingVerdict, BRUTE_FORCE_MAX_FACETS};
pub use solvability::{check_solvability, SolvVerdict, SolvabilityCert};

use std::fmt;

/// Why a certificate failed to parse or verify.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertError {
    /// The text payload is not a well-formed certificate.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was expected or found there.
        msg: String,
    },
    /// The certificate parsed but the checker refuted its claim.
    Reject(String),
    /// Replaying the certificate would exceed the checker's hard work
    /// cap (a malformed or adversarial instance, not a verdict).
    TooLarge(String),
}

impl fmt::Display for CertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            CertError::Reject(msg) => write!(f, "certificate rejected: {msg}"),
            CertError::TooLarge(msg) => write!(f, "certificate too large to replay: {msg}"),
        }
    }
}

impl std::error::Error for CertError {}

/// Magic first-line prefix of every serialized certificate.
pub const FORMAT_VERSION: &str = "ksa-cert/1";

/// A parsed certificate of any kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cert {
    /// A shellability verdict (order or exhaustion) for a pure complex.
    Shelling(ShellingCert),
    /// A reduced GF(2) Betti table with per-dimension rank witnesses.
    Homology(HomologyCert),
    /// A one-round solvability verdict (decision map or exhaustion).
    Solvability(SolvabilityCert),
}

impl Cert {
    /// The certificate kind tag used in the serialized header.
    pub fn kind(&self) -> &'static str {
        match self {
            Cert::Shelling(_) => "shelling",
            Cert::Homology(_) => "homology",
            Cert::Solvability(_) => "solvability",
        }
    }

    /// The producer-assigned origin label (model / figure / round).
    pub fn label(&self) -> &str {
        match self {
            Cert::Shelling(c) => &c.label,
            Cert::Homology(c) => &c.label,
            Cert::Solvability(c) => &c.label,
        }
    }

    /// Serialize to the line-based text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(FORMAT_VERSION);
        out.push(' ');
        out.push_str(self.kind());
        out.push('\n');
        match self {
            Cert::Shelling(c) => c.to_text_body(&mut out),
            Cert::Homology(c) => c.to_text_body(&mut out),
            Cert::Solvability(c) => c.to_text_body(&mut out),
        }
        out
    }

    /// Parse a certificate from its text serialization.
    pub fn parse(input: &str) -> Result<Cert, CertError> {
        let mut cur = text::Cursor::new(input);
        let header = cur.next("header")?;
        let mut tokens = header.split_whitespace();
        let version = tokens.next().unwrap_or("");
        if version != FORMAT_VERSION {
            return Err(cur.err(format!("expected `{FORMAT_VERSION} <kind>` header")));
        }
        let kind = tokens.next().unwrap_or("");
        let cert = match kind {
            "shelling" => Cert::Shelling(ShellingCert::parse_body(&mut cur)?),
            "homology" => Cert::Homology(HomologyCert::parse_body(&mut cur)?),
            "solvability" => Cert::Solvability(SolvabilityCert::parse_body(&mut cur)?),
            other => return Err(cur.err(format!("unknown certificate kind `{other}`"))),
        };
        cur.expect_done()?;
        Ok(cert)
    }

    /// Run the standalone checker for this certificate kind.
    pub fn check(&self) -> Result<(), CertError> {
        match self {
            Cert::Shelling(c) => check_shelling(c),
            Cert::Homology(c) => check_homology(c),
            Cert::Solvability(c) => check_solvability(c),
        }
    }
}

pub(crate) fn strictly_ascending(xs: &[u32]) -> bool {
    xs.windows(2).all(|w| w[0] < w[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_rejects_bad_header() {
        assert!(matches!(
            Cert::parse("nonsense"),
            Err(CertError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            Cert::parse("ksa-cert/1 quux\n"),
            Err(CertError::Parse { line: 1, .. })
        ));
        assert!(matches!(Cert::parse(""), Err(CertError::Parse { .. })));
    }

    #[test]
    fn numbers_round_trip_at_digit_and_width_edges() {
        let cert = Cert::Homology(HomologyCert {
            label: "edges".into(),
            facets: vec![vec![0, 9, 10, u32::MAX], vec![99, 100]],
            betti: vec![u64::MAX, 10],
            connectivity: -1,
            ranks: vec![RankWitness {
                k: 1,
                rank: 1,
                basis: vec![vec![0, 9, 10, u32::MAX]],
                combo: vec![vec![9, 10]],
            }],
        });
        let text = cert.to_text();
        assert!(text.contains("\n0 9 10 4294967295\n"), "{text}");
        assert!(text.contains("\nbetti 18446744073709551615 10\n"), "{text}");
        assert_eq!(Cert::parse(&text), Ok(cert));
    }

    #[test]
    fn parse_errors_keep_their_messages_and_lines() {
        let parse_err = |text: &str| match Cert::parse(text) {
            Err(CertError::Parse { line, msg }) => (line, msg),
            other => panic!("expected a parse error, got {other:?}"),
        };
        let head = "ksa-cert/1 homology\n";
        assert_eq!(
            parse_err(&format!("{head}label x\n")),
            (
                3,
                "unexpected end of certificate, expected `facets ...`".into()
            )
        );
        assert_eq!(
            parse_err(&format!("{head}label x\nfacts 1\n")),
            (3, "expected `facets ...`, found `facts 1`".into())
        );
        assert_eq!(
            parse_err(&format!("{head}\nlabel x\n")),
            (2, "blank line, expected `label ...`".into())
        );
        assert_eq!(
            parse_err(&format!("{head}label x\nfacets 1\n")),
            (
                4,
                "unexpected end of certificate, expected a facet vertex line".into()
            )
        );
        assert_eq!(
            parse_err(&format!("{head}label x\nfacets 1\n0 x\n")),
            (4, "bad number `x` in a facet vertex line".into())
        );
    }
}
