//! The pass pipeline: protocol-aware analyses over the shared model, plus
//! token-scanning helpers they have in common. `state`/`locks`/`determinism`
//! are lexical; `time`/`callback`/`panic` run on the CFG + dataflow layer
//! in [`crate::cfg`]; `flow`/`race` (and the re-rooted
//! `callback`/`panic`) run on the workspace-wide call graph in
//! [`crate::callgraph`].

pub mod callback;
pub mod determinism;
pub mod flow;
pub mod locks;
pub mod panic;
pub mod race;
pub mod state;
pub mod sync;
pub mod time;

use crate::lexer::{Tok, TokKind};

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
