//! Scripted-session transcripts: the determinism contract as a file.
//!
//! A transcript is a plain-text script of one connection's wire
//! traffic:
//!
//! ```text
//! # comment
//! > {"jsonrpc":"2.0","id":1,"method":"server_info","params":{}}
//! < {"jsonrpc":"2.0","id":1,"result":{...}}
//! ```
//!
//! `>` lines are sent verbatim; `<` lines are the *expected* reply
//! bytes (notifications first, response last — exactly as the server
//! frames them). Because the server is deterministic, replaying the
//! golden transcript must reproduce every `<` line byte-identically,
//! at any `--threads` width. CI's `serve-smoke` job holds the server
//! to that, and [`ReplayReport`] renders the diff when it fails.

use crate::client::Client;

/// One scripted exchange: a request line and its expected reply lines.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// The request line to send (no newline).
    pub send: String,
    /// The expected reply lines, in order.
    pub expect: Vec<String>,
}

/// A parsed transcript.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Transcript {
    /// The scripted exchanges, in order.
    pub steps: Vec<Step>,
}

/// One replayed step that came back with different bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct Mismatch {
    /// Zero-based step index in the transcript.
    pub step: usize,
    /// The request line that was sent.
    pub sent: String,
    /// What the transcript expected.
    pub expected: Vec<String>,
    /// What the server actually said.
    pub actual: Vec<String>,
}

/// The outcome of replaying a transcript against a live server.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Steps replayed.
    pub steps: usize,
    /// Steps whose reply bytes differed.
    pub mismatches: Vec<Mismatch>,
}

impl ReplayReport {
    /// Whether every step reproduced byte-identically.
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// A human-readable diff of every mismatch (empty string when ok).
    pub fn diff(&self) -> String {
        let mut out = String::new();
        for m in &self.mismatches {
            out.push_str(&format!("step {}: > {}\n", m.step + 1, m.sent));
            for line in &m.expected {
                out.push_str(&format!("  expected: {line}\n"));
            }
            for line in &m.actual {
                out.push_str(&format!("  actual:   {line}\n"));
            }
            // Pinpoint the first divergence so a CI log is enough to
            // debug: which reply line differs, and at which byte the
            // texts split (long JSON lines look identical at a glance).
            let first = m
                .expected
                .iter()
                .zip(&m.actual)
                .position(|(e, a)| e != a)
                .or_else(|| {
                    (m.expected.len() != m.actual.len())
                        .then_some(m.expected.len().min(m.actual.len()))
                });
            if let Some(i) = first {
                let expected = m.expected.get(i).map(String::as_str).unwrap_or("<missing>");
                let actual = m.actual.get(i).map(String::as_str).unwrap_or("<missing>");
                let byte = expected
                    .bytes()
                    .zip(actual.bytes())
                    .position(|(e, a)| e != a)
                    .unwrap_or_else(|| expected.len().min(actual.len()));
                out.push_str(&format!(
                    "  first difference: reply line {} (byte {byte})\n",
                    i + 1
                ));
                out.push_str(&format!("    expected: {expected}\n"));
                out.push_str(&format!("    actual:   {actual}\n"));
                let context_start = byte.saturating_sub(20);
                let excerpt = |s: &str| {
                    s.get(context_start..(byte + 20).min(s.len()))
                        .unwrap_or("")
                        .to_string()
                };
                out.push_str(&format!(
                    "    near byte {byte}: expected ...{}... vs actual ...{}...\n",
                    excerpt(expected),
                    excerpt(actual)
                ));
            }
        }
        out
    }
}

impl Transcript {
    /// Parses transcript text. Blank lines and `#` comments are
    /// ignored; a `<` line before any `>` line is an error.
    pub fn parse(text: &str) -> Result<Transcript, String> {
        let mut steps: Vec<Step> = Vec::new();
        for (k, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(send) = line.strip_prefix('>') {
                steps.push(Step {
                    send: send.trim().to_string(),
                    expect: Vec::new(),
                });
            } else if let Some(expect) = line.strip_prefix('<') {
                match steps.last_mut() {
                    Some(step) => step.expect.push(expect.trim().to_string()),
                    None => {
                        return Err(format!("line {}: `<` before any `>` line", k + 1));
                    }
                }
            } else {
                return Err(format!(
                    "line {}: expected `>`, `<`, `#`, or blank, got: {line}",
                    k + 1
                ));
            }
        }
        Ok(Transcript { steps })
    }

    /// Renders the transcript back to canonical text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for step in &self.steps {
            out.push_str(&format!("> {}\n", step.send));
            for line in &step.expect {
                out.push_str(&format!("< {line}\n"));
            }
        }
        out
    }

    /// Replays every step against a live server and reports byte
    /// mismatches.
    pub fn replay(&self, client: &mut Client) -> std::io::Result<ReplayReport> {
        let mut mismatches = Vec::new();
        for (k, step) in self.steps.iter().enumerate() {
            let actual = client.exchange_line(&step.send)?;
            if actual != step.expect {
                mismatches.push(Mismatch {
                    step: k,
                    sent: step.send.clone(),
                    expected: step.expect.clone(),
                    actual,
                });
            }
        }
        Ok(ReplayReport {
            steps: self.steps.len(),
            mismatches,
        })
    }

    /// Sends every step and records what the server actually replied —
    /// how a golden transcript is (re)generated.
    pub fn record(&self, client: &mut Client) -> std::io::Result<Transcript> {
        let mut steps = Vec::new();
        for step in &self.steps {
            let actual = client.exchange_line(&step.send)?;
            steps.push(Step {
                send: step.send.clone(),
                expect: actual,
            });
        }
        Ok(Transcript { steps })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_render_round_trip() {
        let text = "# hello\n\n> {\"a\":1}\n< {\"b\":2}\n< {\"c\":3}\n> {\"d\":4}\n";
        let t = Transcript::parse(text).expect("parses");
        assert_eq!(t.steps.len(), 2);
        assert_eq!(t.steps[0].expect.len(), 2);
        assert_eq!(
            t.render(),
            "> {\"a\":1}\n< {\"b\":2}\n< {\"c\":3}\n> {\"d\":4}\n"
        );
        assert_eq!(Transcript::parse(&t.render()).expect("reparses"), t);
    }

    #[test]
    fn orphan_expect_is_rejected() {
        let err = Transcript::parse("< {\"b\":2}\n").unwrap_err();
        assert!(err.contains("before any"), "{err}");
    }

    #[test]
    fn junk_lines_are_rejected_with_position() {
        let err = Transcript::parse("> ok\nwhat is this\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn report_diff_names_the_step() {
        let report = ReplayReport {
            steps: 3,
            mismatches: vec![Mismatch {
                step: 1,
                sent: "{\"x\":1}".to_string(),
                expected: vec!["{\"y\":1}".to_string()],
                actual: vec!["{\"y\":2}".to_string()],
            }],
        };
        assert!(!report.ok());
        let diff = report.diff();
        assert!(diff.contains("step 2"), "{diff}");
        assert!(diff.contains("expected: {\"y\":1}"), "{diff}");
        assert!(diff.contains("actual:   {\"y\":2}"), "{diff}");
        // The diff pinpoints the diverging line and byte: the texts
        // split at the value of "y", byte 5 of {"y":1} vs {"y":2}.
        assert!(
            diff.contains("first difference: reply line 1 (byte 5)"),
            "{diff}"
        );
    }

    #[test]
    fn report_diff_pinpoints_missing_lines() {
        // Matching prefix but a missing reply line: the first
        // difference is the line the actual output never produced.
        let report = ReplayReport {
            steps: 1,
            mismatches: vec![Mismatch {
                step: 0,
                sent: "{\"x\":1}".to_string(),
                expected: vec!["{\"a\":1}".to_string(), "{\"b\":2}".to_string()],
                actual: vec!["{\"a\":1}".to_string()],
            }],
        };
        let diff = report.diff();
        assert!(diff.contains("first difference: reply line 2"), "{diff}");
        assert!(diff.contains("actual:   <missing>"), "{diff}");
    }
}
