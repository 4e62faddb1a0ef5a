//! The pass pipeline: six protocol-aware analyses over the shared model,
//! plus token-scanning helpers they have in common. `determinism` is
//! lexical; `time`/`panic` run on the CFG + dataflow layer in
//! [`crate::cfg`]; `time` (inside one file) and `panic`/`flow`/`race`/`sync`
//! (across the workspace) follow calls through the one call graph in
//! [`crate::callgraph`].

pub mod determinism;
pub mod flow;
pub mod panic;
pub mod race;
pub mod sync;
pub mod time;

use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};
use crate::model::SourceFile;

/// Report `code` at `line` of `file`, unless the line (or the one above it)
/// carries `// check:allow(<allow>)`: `allow` is the pass's marker name.
pub(crate) fn flag(
    out: &mut Vec<Diagnostic>,
    file: &SourceFile,
    allow: &str,
    code: &'static str,
    line: u32,
    message: String,
    suggestion: &str,
) {
    if file.allowed(allow, line) {
        return;
    }
    out.push(Diagnostic::error(code, &file.path, line, message).with_suggestion(suggestion));
}

/// True when token index `idx` lies in one of `ranges`.
pub(crate) fn in_ranges(ranges: &[std::ops::Range<usize>], idx: usize) -> bool {
    ranges.iter().any(|r| r.contains(&idx))
}

/// An occurrence of a qualified path `Base::Name` in a token range.
#[derive(Debug, Clone)]
pub struct PathHit {
    /// The right-hand identifier (`Name`).
    pub name: String,
    /// 1-based line of the occurrence.
    pub line: u32,
    /// Token index of the right-hand identifier.
    pub idx: usize,
}

/// Find every `base :: <ident>` occurrence inside `range`.
pub fn find_paths(toks: &[Tok], range: std::ops::Range<usize>, base: &str) -> Vec<PathHit> {
    let mut out = Vec::new();
    let mut i = range.start;
    while i + 3 < range.end.min(toks.len()) {
        if toks[i].is_ident(base)
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && toks[i + 3].kind == TokKind::Ident
        {
            out.push(PathHit {
                name: toks[i + 3].text.clone(),
                line: toks[i + 3].line,
                idx: i + 3,
            });
            i += 4;
        } else {
            i += 1;
        }
    }
    out
}
