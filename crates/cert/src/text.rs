//! Line-based text (de)serialization helpers shared by the cert kinds.

use crate::CertError;
use std::fmt;

/// A strict line cursor over a certificate payload.
///
/// Lines are right-trimmed; trailing blank lines are ignored; interior
/// blank lines are a parse error (they would silently shift records).
pub(crate) struct Cursor<'a> {
    lines: Vec<&'a str>,
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(input: &'a str) -> Self {
        let mut lines: Vec<&'a str> = input.lines().map(str::trim_end).collect();
        while lines.last().is_some_and(|l| l.is_empty()) {
            lines.pop();
        }
        Cursor { lines, pos: 0 }
    }

    /// The 1-based number of the line most recently consumed (or about
    /// to be consumed when none has been).
    fn line_no(&self) -> usize {
        self.pos.max(1)
    }

    pub(crate) fn err(&self, msg: impl Into<String>) -> CertError {
        CertError::Parse {
            line: self.line_no(),
            msg: msg.into(),
        }
    }

    /// Consume and return the next line; `what` names the expectation
    /// for the error messages, and is only formatted when one is raised.
    pub(crate) fn next(&mut self, what: impl fmt::Display) -> Result<&'a str, CertError> {
        let line = self
            .lines
            .get(self.pos)
            .copied()
            .ok_or_else(|| CertError::Parse {
                line: self.pos + 1,
                msg: format!("unexpected end of certificate, expected {what}"),
            })?;
        self.pos += 1;
        if line.is_empty() {
            return Err(self.err(format!("blank line, expected {what}")));
        }
        Ok(line)
    }

    /// Consume a line of the form `<tag> <rest>`, returning `rest`
    /// (which may be empty for tags that carry no payload).
    pub(crate) fn tagged(&mut self, tag: &str) -> Result<&'a str, CertError> {
        let line = self.next(format_args!("`{tag} ...`"))?;
        match line.strip_prefix(tag) {
            Some("") => Ok(""),
            Some(rest) if rest.starts_with(' ') => Ok(rest.trim_start()),
            _ => Err(self.err(format!("expected `{tag} ...`, found `{line}`"))),
        }
    }

    /// Consume a line of whitespace-separated numbers.
    pub(crate) fn num_line<T: std::str::FromStr>(
        &mut self,
        what: &str,
    ) -> Result<Vec<T>, CertError> {
        let line = self.next(what)?;
        parse_nums(line).map_err(|tok| self.err(format!("bad number `{tok}` in {what}")))
    }

    pub(crate) fn expect_done(&mut self) -> Result<(), CertError> {
        if self.pos < self.lines.len() {
            self.pos += 1;
            Err(self.err("trailing content after certificate"))
        } else {
            Ok(())
        }
    }
}

/// Parse whitespace-separated numbers; on failure returns the bad token.
pub(crate) fn parse_nums<T: std::str::FromStr>(s: &str) -> Result<Vec<T>, String> {
    s.split_whitespace()
        .map(|tok| tok.parse::<T>().map_err(|_| tok.to_string()))
        .collect()
}

/// Append `nums` to `out` in decimal, separated by single spaces, then a
/// newline. The digits are written straight into `out`.
pub(crate) fn push_nums<T: Into<u64>>(out: &mut String, nums: impl IntoIterator<Item = T>) {
    let mut sep = "";
    for n in nums {
        out.push_str(sep);
        sep = " ";
        let (mut n, mut digits, mut at) = (n.into(), [0u8; 20], 20);
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
    }
    out.push('\n');
}

/// Validate and serialize a label line. Labels are free-form but must
/// be single-line and nonempty; producers pass model / figure names.
pub(crate) fn push_label(out: &mut String, label: &str) {
    let clean: String = label
        .chars()
        .map(|c| if c.is_control() { '?' } else { c })
        .collect();
    out.push_str("label ");
    out.push_str(if clean.is_empty() { "unnamed" } else { &clean });
    out.push('\n');
}
