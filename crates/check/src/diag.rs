//! Span-carrying diagnostics and the compiler-style report renderer, with a
//! machine-readable JSON mode for CI.

use std::fmt::Write as _;

/// How severe a finding is. `Error` diagnostics fail the build gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: printed, never fails the gate.
    Warning,
    /// Protocol-threatening: fails the gate.
    Error,
}

impl Severity {
    fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One finding, anchored to a source position.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Stable machine code, e.g. `FLOW001`.
    pub code: &'static str,
    /// Severity of the finding.
    pub severity: Severity,
    /// Workspace-relative path of the file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description of the defect.
    pub message: String,
    /// A concrete next step, when one exists.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// An error diagnostic.
    pub fn error(code: &'static str, file: &str, line: u32, message: String) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            file: file.to_string(),
            line,
            message,
            suggestion: None,
        }
    }

    /// Attach a suggestion.
    pub fn with_suggestion(mut self, s: impl Into<String>) -> Self {
        self.suggestion = Some(s.into());
        self
    }
}

/// Sort diagnostics for stable output: by file, line, then code.
pub fn sort(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| (a.file.as_str(), a.line, a.code).cmp(&(b.file.as_str(), b.line, b.code)));
}

/// Render the human-readable report.
pub fn render_text(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        let _ = writeln!(out, "{}[{}]: {}", d.severity.as_str(), d.code, d.message);
        let _ = writeln!(out, "  --> {}:{}", d.file, d.line);
        if let Some(s) = &d.suggestion {
            let _ = writeln!(out, "  help: {s}");
        }
    }
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diags.len() - errors;
    let _ = writeln!(
        out,
        "planet-check: {errors} error(s), {warnings} warning(s)"
    );
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render the machine-readable report: a JSON array of diagnostic objects.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n  {{\"code\":\"{}\",\"severity\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"",
            d.code,
            d.severity.as_str(),
            json_escape(&d.file),
            d.line,
            json_escape(&d.message)
        );
        if let Some(s) = &d.suggestion {
            let _ = write!(out, ",\"suggestion\":\"{}\"", json_escape(s));
        }
        out.push('}');
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_and_sorts() {
        let mut diags = vec![
            Diagnostic::error("B002", "b.rs", 9, "second".into()),
            Diagnostic::error("A001", "a.rs", 3, "first".into()).with_suggestion("do the thing"),
        ];
        sort(&mut diags);
        let text = render_text(&diags);
        assert!(text.find("A001").unwrap() < text.find("B002").unwrap());
        assert!(text.contains("--> a.rs:3"));
        assert!(text.contains("help: do the thing"));
        assert!(text.contains("2 error(s)"));
    }

    #[test]
    fn json_is_escaped() {
        let diags = vec![Diagnostic::error(
            "X001",
            "x.rs",
            1,
            "quote \" and \\ backslash".into(),
        )];
        let json = render_json(&diags);
        assert!(json.contains("\\\""));
        assert!(json.contains("\\\\"));
        assert!(json.contains("\"line\":1"));
    }
}
