//! Per-function control-flow graphs over the structural parser's token
//! ranges, plus a small bitset dataflow solver.
//!
//! The CFG is *structural*: it is recovered from the token stream of a
//! function body ([`crate::parse::FnDef::body`]) without type information.
//! Construction rules (also documented in DESIGN.md):
//!
//! * Tokens accumulate into the current basic block until a control keyword
//!   (`if`, `match`, `loop`, `while`, `for`) appears at paren- and
//!   bracket-depth 0 of the current statement sequence. Control constructs
//!   nested inside parentheses (call arguments) fold into the enclosing
//!   expression's block — a deliberate approximation that keeps blocks
//!   aligned with statement-level control flow.
//! * `if c { A } else { B }` branches to the lowered `A` and `B` sequences
//!   and joins after; a missing `else` adds a condition-false fall-through
//!   edge. `else if` chains lower each condition into its own block so arm
//!   bodies never leak into condition blocks.
//! * `match e { p1 => B1, ... }` branches to every arm body and joins after.
//!   Match is assumed exhaustive (rustc guarantees it), so there is no
//!   fall-through edge.
//! * `while`/`for` loops get entry → body, body → body (back edge),
//!   body → after and entry → after (zero iterations) edges. `loop` is
//!   lowered the same way — the body → after edge over-approximates a
//!   `loop` that only exits by `break`, which is conservative for
//!   must-analyses (a fact becomes *harder* to prove, never easier).
//! * `return` edges to the function exit; `break`/`continue` edge to the
//!   innermost loop's after/head block; `let ... else { B }` lowers `B` as
//!   a nested block whose own `return`/`break`/`continue` terminator
//!   produces the diverging edge, so the join after it is exactly the
//!   "binding succeeded" continuation.
//! * Closures are opaque straight-line code folded into the current block.
//! * The `?` operator is *not* modelled as an early return (the analysed
//!   protocol crates do not use it in handlers); DESIGN.md records this.
//!
//! The solver ([`solve`]) runs classic iterative dataflow over the graph
//! with facts packed into a `u64` bitmask: pick a direction, a meet
//! (intersection for *must*, union for *may*) and a per-block gen mask.

use crate::lexer::Tok;
use std::ops::Range;

/// One basic block: a contiguous token range holding no statement-level
/// control flow.
#[derive(Debug, Clone)]
pub struct Block {
    /// Token index range of the block (may be empty for join points).
    pub range: Range<usize>,
}

/// A function body's control-flow graph.
#[derive(Debug)]
pub struct Cfg {
    /// The blocks. Block 0 is the entry; [`Cfg::exit`] is the (empty)
    /// virtual exit every terminating path reaches.
    pub blocks: Vec<Block>,
    /// Successor lists, indexed by block.
    pub succs: Vec<Vec<usize>>,
    /// Index of the virtual exit block.
    pub exit: usize,
}

impl Cfg {
    /// Predecessor lists (computed on demand; CFGs here are tiny).
    pub fn preds(&self) -> Vec<Vec<usize>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for (b, ss) in self.succs.iter().enumerate() {
            for &s in ss {
                preds[s].push(b);
            }
        }
        preds
    }
}

/// Builder state threaded through lowering.
struct Builder<'t> {
    toks: &'t [Tok],
    blocks: Vec<Block>,
    succs: Vec<Vec<usize>>,
    /// (head, after) block indices of the enclosing loops, innermost last.
    /// `head` is a trampoline block with an edge to the body entry.
    loop_stack: Vec<(usize, usize)>,
    exit: usize,
}

impl Builder<'_> {
    fn new_block(&mut self, range: Range<usize>) -> usize {
        self.blocks.push(Block { range });
        self.succs.push(Vec::new());
        self.blocks.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        if !self.succs[from].contains(&to) {
            self.succs[from].push(to);
        }
    }

    /// Lower a statement sequence. Control enters at a fresh block whose
    /// index is returned in `.0`; `.1` is the set of open-ended blocks the
    /// caller must connect onward (empty when every path diverged).
    fn lower_seq(&mut self, range: Range<usize>) -> (usize, Vec<usize>) {
        let entry = self.new_block(range.start..range.start);
        let mut cur = entry;
        let mut i = range.start;
        let mut depth = 0i32; // paren/bracket depth; braces handled per-construct
        while i < range.end {
            let t = &self.toks[i];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if depth == 0 && t.is_punct('|') {
                // A closure (or `||`/pattern-or): skip to the matching `|`
                // so a closure's control keywords don't split the block;
                // the skipped tokens still fold into `cur`.
                let mut j = i + 1;
                while j < range.end && !self.toks[j].is_punct('|') {
                    if self.toks[j].is_punct(';') || self.toks[j].is_punct('{') {
                        break; // not a closure header after all
                    }
                    j += 1;
                }
                if j < range.end && self.toks[j].is_punct('|') {
                    self.blocks[cur].range.end = j + 1;
                    i = j + 1;
                    // A braced closure body is folded whole.
                    if i < range.end && self.toks[i].is_punct('{') {
                        let end = crate::parse::skip_group(self.toks, i, '{', '}');
                        self.blocks[cur].range.end = end;
                        i = end;
                    }
                    continue;
                }
            } else if depth == 0 && t.is_punct('{') {
                // A bare block (let-else body, unsafe block, plain scope):
                // lower it as a nested sequence so control flow inside it
                // (notably a let-else's `return`) is modelled. A `let .. =
                // .. else { B }` is conditional — the binding-success path
                // bypasses B entirely — so it also gets a direct edge to
                // the join; a plain block only flows through its body.
                let end = crate::parse::skip_group(self.toks, i, '{', '}');
                let is_let_else = i > range.start && self.toks[i - 1].is_ident("else");
                let (sub_entry, sub_open) = self.lower_seq(i + 1..end - 1);
                self.edge(cur, sub_entry);
                let nb = self.new_block(end..end);
                for f in sub_open {
                    self.edge(f, nb);
                }
                if is_let_else {
                    self.edge(cur, nb);
                }
                cur = nb;
                i = end;
                continue;
            } else if depth == 0 && t.is_ident("if") {
                self.blocks[cur].range.end = i;
                let mut cond = cur;
                let mut arm_open: Vec<usize> = Vec::new();
                let mut j = i; // index of the current chain's `if`
                let after_pos = loop {
                    let Some(bs) = find_body_brace(self.toks, j + 1, range.end) else {
                        // Unparseable (e.g. macro soup): treat the rest as
                        // straight-line code in `cond` and stop lowering.
                        self.blocks[cond].range.end = range.end;
                        arm_open.push(cond);
                        break range.end;
                    };
                    self.blocks[cond].range.end = bs;
                    let body_end = crate::parse::skip_group(self.toks, bs, '{', '}');
                    let (arm_entry, mut arm_exit) = self.lower_seq(bs + 1..body_end - 1);
                    self.edge(cond, arm_entry);
                    arm_open.append(&mut arm_exit);
                    if body_end < range.end && self.toks[body_end].is_ident("else") {
                        if body_end + 1 < range.end && self.toks[body_end + 1].is_ident("if") {
                            // else-if: fresh condition block for the tail.
                            let nc = self.new_block(body_end + 1..body_end + 1);
                            self.edge(cond, nc);
                            cond = nc;
                            j = body_end + 1;
                            continue;
                        }
                        let eb = body_end + 1;
                        if eb < range.end && self.toks[eb].is_punct('{') {
                            let ee = crate::parse::skip_group(self.toks, eb, '{', '}');
                            let (e_entry, mut e_exit) = self.lower_seq(eb + 1..ee - 1);
                            self.edge(cond, e_entry);
                            arm_open.append(&mut e_exit);
                            break ee;
                        }
                        arm_open.push(cond);
                        break eb;
                    }
                    arm_open.push(cond); // condition-false fall-through
                    break body_end;
                };
                let nb = self.new_block(after_pos..after_pos);
                for f in arm_open {
                    self.edge(f, nb);
                }
                cur = nb;
                i = after_pos;
                continue;
            } else if depth == 0 && t.is_ident("match") {
                self.blocks[cur].range.end = i;
                let Some(bs) = find_body_brace(self.toks, i + 1, range.end) else {
                    self.blocks[cur].range.end = range.end;
                    i = range.end;
                    continue;
                };
                self.blocks[cur].range.end = bs;
                let body_end = crate::parse::skip_group(self.toks, bs, '{', '}');
                let mut arm_open: Vec<usize> = Vec::new();
                let arms = match_arm_bodies(self.toks, bs + 1..body_end - 1);
                for (arm_s, arm_e) in &arms {
                    let (a_entry, mut a_exit) = self.lower_seq(*arm_s..*arm_e);
                    self.edge(cur, a_entry);
                    arm_open.append(&mut a_exit);
                }
                if arms.is_empty() {
                    // No arms recovered: conservative fall-through.
                    arm_open.push(cur);
                }
                let nb = self.new_block(body_end..body_end);
                for f in arm_open {
                    self.edge(f, nb);
                }
                cur = nb;
                i = body_end;
                continue;
            } else if depth == 0 && (t.is_ident("loop") || t.is_ident("while") || t.is_ident("for"))
            {
                let zero_iter = !t.is_ident("loop");
                self.blocks[cur].range.end = i;
                let Some(bs) = find_body_brace(self.toks, i + 1, range.end) else {
                    self.blocks[cur].range.end = range.end;
                    i = range.end;
                    continue;
                };
                self.blocks[cur].range.end = bs;
                let body_end = crate::parse::skip_group(self.toks, bs, '{', '}');
                let head = self.new_block(bs..bs); // `continue` trampoline
                let after = self.new_block(body_end..body_end);
                self.loop_stack.push((head, after));
                let (b_entry, b_exit) = self.lower_seq(bs + 1..body_end - 1);
                self.loop_stack.pop();
                self.edge(head, b_entry);
                self.edge(cur, head);
                for f in &b_exit {
                    self.edge(*f, head); // back edge
                    self.edge(*f, after);
                }
                if zero_iter || b_exit.is_empty() {
                    self.edge(cur, after);
                }
                cur = after;
                i = body_end;
                continue;
            } else if depth == 0 && t.is_ident("return") {
                // Consume the return expression up to `;` or range end.
                let mut j = i + 1;
                let mut d = 0i32;
                while j < range.end {
                    let tt = &self.toks[j];
                    if tt.is_punct('(') || tt.is_punct('[') || tt.is_punct('{') {
                        d += 1;
                    } else if tt.is_punct(')') || tt.is_punct(']') || tt.is_punct('}') {
                        d -= 1;
                    } else if d == 0 && tt.is_punct(';') {
                        break;
                    }
                    j += 1;
                }
                self.blocks[cur].range.end = j.min(range.end);
                self.edge(cur, self.exit);
                // Anything after is dead until the enclosing join; give it
                // a fresh, predecessor-less block.
                let nb = self.new_block(j.min(range.end)..j.min(range.end));
                cur = nb;
                i = (j + 1).min(range.end);
                continue;
            } else if depth == 0 && (t.is_ident("break") || t.is_ident("continue")) {
                self.blocks[cur].range.end = i + 1;
                if let Some(&(head, after)) = self.loop_stack.last() {
                    let target = if t.is_ident("break") { after } else { head };
                    self.edge(cur, target);
                } else {
                    // break/continue whose loop the builder did not recover
                    // (e.g. a labelled break through an approximated
                    // construct): treat as a path terminator.
                    self.edge(cur, self.exit);
                }
                let nb = self.new_block(i + 1..i + 1);
                cur = nb;
                i += 1;
                continue;
            }
            self.blocks[cur].range.end = i + 1;
            i += 1;
        }
        (entry, vec![cur])
    }
}

/// Find the `{` opening a control construct's body, skipping the condition
/// expression. Struct literals in conditions require parens in Rust
/// (`if x == (S { .. })`), so the first `{` at paren-depth 0 is the body.
pub(crate) fn find_body_brace(toks: &[Tok], from: usize, end: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut j = from;
    while j < end {
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 0 && t.is_punct('{') {
            return Some(j);
        } else if depth == 0 && t.is_punct(';') {
            return None;
        }
        j += 1;
    }
    None
}

/// One recovered `match` arm.
#[derive(Debug, Clone)]
pub(crate) struct Arm {
    /// Token range of the pattern (and any guard) before `=>`.
    pub pattern: Range<usize>,
    /// Token range of the arm body (inside braces, or the expression).
    pub body: Range<usize>,
}

/// Split a `match` body into arms. Arms look like `PAT (if GUARD)? => BODY
/// ,?` where BODY is a braced block or an expression ending at a top-level
/// comma.
pub(crate) fn match_arms(toks: &[Tok], range: Range<usize>) -> Vec<Arm> {
    let mut arms = Vec::new();
    let mut i = range.start;
    while i < range.end {
        // Find `=>` at depth 0 (pattern braces bump depth, so struct
        // patterns like `Msg::Submit { .. } =>` parse correctly).
        let mut depth = 0i32;
        let mut arrow = None;
        let mut j = i;
        while j < range.end {
            let t = &toks[j];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
            } else if depth == 0
                && t.is_punct('=')
                && j + 1 < range.end
                && toks[j + 1].is_punct('>')
            {
                arrow = Some(j);
                break;
            }
            j += 1;
        }
        let Some(a) = arrow else { break };
        let pattern = i..a;
        let body_start = a + 2;
        if body_start >= range.end {
            break;
        }
        let body_end = if toks[body_start].is_punct('{') {
            crate::parse::skip_group(toks, body_start, '{', '}')
        } else {
            // Expression arm: scan to the next top-level comma.
            let mut d = 0i32;
            let mut k = body_start;
            while k < range.end {
                let t = &toks[k];
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    d += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    d -= 1;
                } else if d == 0 && t.is_punct(',') {
                    break;
                }
                k += 1;
            }
            k
        };
        arms.push(Arm {
            pattern,
            body: body_start..body_end.min(range.end),
        });
        i = body_end;
        while i < range.end && toks[i].is_punct(',') {
            i += 1;
        }
    }
    arms
}

/// Arm-body token ranges only (the CFG builder's view of a `match`).
fn match_arm_bodies(toks: &[Tok], range: Range<usize>) -> Vec<(usize, usize)> {
    match_arms(toks, range)
        .into_iter()
        .map(|a| (a.body.start, a.body.end))
        .collect()
}

/// Build the CFG for a function body token range. Block 0 is the entry.
pub fn build_cfg(toks: &[Tok], body: Range<usize>) -> Cfg {
    let mut b = Builder {
        toks,
        blocks: Vec::new(),
        succs: Vec::new(),
        loop_stack: Vec::new(),
        exit: usize::MAX,
    };
    // Reserve the exit block first so `return` lowering can reference it.
    let exit = b.new_block(body.end..body.end);
    b.exit = exit;
    let (entry, open) = b.lower_seq(body);
    for f in open {
        b.edge(f, exit);
    }
    let cfg = Cfg {
        blocks: b.blocks,
        succs: b.succs,
        exit,
    };
    cfg.rooted(entry)
}

impl Cfg {
    /// Normalise so that block 0 is the entry.
    fn rooted(mut self, entry: usize) -> Cfg {
        if entry == 0 {
            return self;
        }
        self.blocks.swap(0, entry);
        self.succs.swap(0, entry);
        for ss in self.succs.iter_mut() {
            for s in ss.iter_mut() {
                if *s == 0 {
                    *s = entry;
                } else if *s == entry {
                    *s = 0;
                }
            }
        }
        if self.exit == 0 {
            self.exit = entry;
        } else if self.exit == entry {
            self.exit = 0;
        }
        self
    }
}

/// Analysis direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Facts flow entry → exit.
    Forward,
    /// Facts flow exit → entry.
    Backward,
}

/// How facts combine at joins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Meet {
    /// Intersection: a fact holds only if it holds on *every* incoming path.
    Must,
    /// Union: a fact holds if it holds on *any* incoming path.
    May,
}

/// Per-block dataflow results in the chosen direction's sense: `entry[b]`
/// is the meet over `b`'s direction-predecessors, `out[b]` adds `b`'s own
/// generated facts.
#[derive(Debug)]
pub struct FlowResult {
    /// Fact mask holding on entry to each block (direction-relative).
    pub entry: Vec<u64>,
    /// Fact mask holding on exit from each block (direction-relative).
    pub out: Vec<u64>,
}

/// Iterative bitset dataflow over `cfg`. `gen_facts` returns the facts a
/// block generates; generated facts persist (no kill sets — the analyses
/// here track "did X happen on this path", which is monotone).
///
/// Blocks unreachable in the chosen direction keep the meet's identity
/// (`!0` for must, `0` for may) so they never weaken a reachable join.
pub fn solve(cfg: &Cfg, dir: Dir, meet: Meet, gen_facts: impl Fn(usize) -> u64) -> FlowResult {
    let n = cfg.blocks.len();
    let preds = cfg.preds();
    let (inputs, start): (&Vec<Vec<usize>>, usize) = match dir {
        Dir::Forward => (&preds, 0),
        Dir::Backward => (&cfg.succs, cfg.exit),
    };
    let top = match meet {
        Meet::Must => u64::MAX,
        Meet::May => 0,
    };
    let mut entry = vec![top; n];
    let mut out = vec![top; n];
    entry[start] = 0;
    out[start] = gen_facts(start);
    let mut changed = true;
    while changed {
        changed = false;
        for b in 0..n {
            let ins = &inputs[b];
            let e = if b == start {
                0
            } else if ins.is_empty() {
                entry[b] // unreachable in this direction: keep top
            } else {
                let mut acc = top;
                for &p in ins {
                    acc = match meet {
                        Meet::Must => acc & out[p],
                        Meet::May => acc | out[p],
                    };
                }
                acc
            };
            let o = e | gen_facts(b);
            if e != entry[b] || o != out[b] {
                entry[b] = e;
                out[b] = o;
                changed = true;
            }
        }
    }
    FlowResult { entry, out }
}

/// True when every path through token `idx` passes a block whose `gens`
/// bit 0 is set: `idx`'s own block, all paths into it, or all paths from
/// it to the exit. A token outside every block (a match pattern sits
/// between arm bodies) stands for the first block after it; with none,
/// the answer is a strict `false`.
pub fn covered_on_every_path(cfg: &Cfg, gens: &[u64], idx: usize) -> bool {
    let blocks = 0..cfg.blocks.len();
    let b = blocks
        .clone()
        .find(|&b| cfg.blocks[b].range.contains(&idx))
        .or_else(|| {
            blocks
                .filter(|&b| !cfg.blocks[b].range.is_empty() && cfg.blocks[b].range.start >= idx)
                .min_by_key(|&b| cfg.blocks[b].range.start)
        });
    let Some(b) = b else {
        return false;
    };
    if gens[b] & 1 == 1 {
        return true;
    }
    let fwd = solve(cfg, Dir::Forward, Meet::Must, |x| gens[x]);
    let bwd = solve(cfg, Dir::Backward, Meet::Must, |x| gens[x]);
    fwd.entry[b] & 1 == 1 || bwd.entry[b] & 1 == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::fns;

    fn cfg_of(src: &str) -> (crate::lexer::Lexed, Cfg) {
        let lexed = lex(src);
        let f = fns(&lexed.toks).into_iter().next().expect("one fn");
        let cfg = build_cfg(&lexed.toks, f.body);
        (lexed, cfg)
    }

    /// Gen mask 1 for blocks containing the identifier `name`.
    fn gen_ident(lexed: &crate::lexer::Lexed, cfg: &Cfg, name: &str) -> Vec<u64> {
        cfg.blocks
            .iter()
            .map(|b| {
                if lexed.toks[b.range.clone()].iter().any(|t| t.is_ident(name)) {
                    1
                } else {
                    0
                }
            })
            .collect()
    }

    #[test]
    fn straight_line_is_one_path() {
        let (lexed, cfg) = cfg_of("fn f() { a(); b(); }");
        let gens = gen_ident(&lexed, &cfg, "a");
        let r = solve(&cfg, Dir::Forward, Meet::Must, |b| gens[b]);
        assert_eq!(r.out[cfg.exit] & 1, 1, "a() on every path to exit");
    }

    #[test]
    fn if_without_else_breaks_must() {
        let (lexed, cfg) = cfg_of("fn f(c: bool) { if c { a(); } b(); }");
        let gens = gen_ident(&lexed, &cfg, "a");
        let r = solve(&cfg, Dir::Forward, Meet::Must, |b| gens[b]);
        assert_eq!(r.out[cfg.exit] & 1, 0, "a() is conditional");
        let r = solve(&cfg, Dir::Forward, Meet::May, |b| gens[b]);
        assert_eq!(r.out[cfg.exit] & 1, 1, "a() on some path");
    }

    #[test]
    fn if_else_both_arms_must() {
        let (lexed, cfg) = cfg_of("fn f(c: bool) { if c { a(); } else { a(); } b(); }");
        let gens = gen_ident(&lexed, &cfg, "a");
        let r = solve(&cfg, Dir::Forward, Meet::Must, |b| gens[b]);
        assert_eq!(r.out[cfg.exit] & 1, 1, "a() on both arms");
    }

    #[test]
    fn else_if_chain_tail_does_not_leak() {
        // Regression: arm bodies must not fold into condition blocks, and
        // the final else-if without a bare else keeps its fall-through.
        let src = "fn f(a: bool, b: bool) { if a { x(); } else if b { x(); } y(); }";
        let (lexed, cfg) = cfg_of(src);
        let gens = gen_ident(&lexed, &cfg, "x");
        let r = solve(&cfg, Dir::Forward, Meet::Must, |b| gens[b]);
        assert_eq!(r.out[cfg.exit] & 1, 0, "!a && !b path skips x()");
    }

    #[test]
    fn else_if_chain_with_final_else_must() {
        let src = "fn f(a: bool, b: bool) { if a { x(); } else if b { x(); } else { x(); } }";
        let (lexed, cfg) = cfg_of(src);
        let gens = gen_ident(&lexed, &cfg, "x");
        let r = solve(&cfg, Dir::Forward, Meet::Must, |b| gens[b]);
        assert_eq!(r.out[cfg.exit] & 1, 1, "x() on every chain arm");
    }

    #[test]
    fn early_return_path_counts() {
        let (lexed, cfg) = cfg_of("fn f(c: bool) { if c { return; } a(); }");
        let gens = gen_ident(&lexed, &cfg, "a");
        let r = solve(&cfg, Dir::Forward, Meet::Must, |b| gens[b]);
        assert_eq!(r.out[cfg.exit] & 1, 0, "return path skips a()");
    }

    #[test]
    fn match_arms_join() {
        let src = "fn f(x: u32) { match x { 0 => { a(); } _ => { a(); } } b(); }";
        let (lexed, cfg) = cfg_of(src);
        let gens = gen_ident(&lexed, &cfg, "a");
        let r = solve(&cfg, Dir::Forward, Meet::Must, |b| gens[b]);
        assert_eq!(r.out[cfg.exit] & 1, 1, "a() in every arm");
    }

    #[test]
    fn match_arm_missing_call_breaks_must() {
        let src = "fn f(x: u32) { match x { 0 => { a(); } _ => {} } b(); }";
        let (lexed, cfg) = cfg_of(src);
        let gens = gen_ident(&lexed, &cfg, "a");
        let r = solve(&cfg, Dir::Forward, Meet::Must, |b| gens[b]);
        assert_eq!(r.out[cfg.exit] & 1, 0);
    }

    #[test]
    fn expression_arms_lower_like_blocks() {
        let src = "fn f(x: u32) { match x { 0 => a(), _ => a(), } b(); }";
        let (lexed, cfg) = cfg_of(src);
        let gens = gen_ident(&lexed, &cfg, "a");
        let r = solve(&cfg, Dir::Forward, Meet::Must, |b| gens[b]);
        assert_eq!(r.out[cfg.exit] & 1, 1);
    }

    #[test]
    fn loop_body_is_zero_or_more() {
        let (lexed, cfg) = cfg_of("fn f(v: Vec<u32>) { for x in v { a(); } b(); }");
        let gens = gen_ident(&lexed, &cfg, "a");
        let r = solve(&cfg, Dir::Forward, Meet::Must, |b| gens[b]);
        assert_eq!(r.out[cfg.exit] & 1, 0, "loop may run zero times");
    }

    #[test]
    fn nested_loop_continue_targets_inner() {
        // A `continue` in the inner loop must not divert outer-loop paths:
        // the outer tail `t()` stays reachable.
        let src = "fn f() { for x in v { for y in w { if c { continue; } a(); } t(); } }";
        let (lexed, cfg) = cfg_of(src);
        let gens = gen_ident(&lexed, &cfg, "t");
        let r = solve(&cfg, Dir::Forward, Meet::May, |b| gens[b]);
        assert_eq!(r.out[cfg.exit] & 1, 1, "outer tail reachable");
    }

    #[test]
    fn backward_must_after() {
        // From the `mark` point, every path to exit passes through a().
        let (lexed, cfg) = cfg_of("fn f(c: bool) { mark(); if c { a(); } else { a(); } }");
        let gens = gen_ident(&lexed, &cfg, "a");
        let r = solve(&cfg, Dir::Backward, Meet::Must, |b| gens[b]);
        let marks = gen_ident(&lexed, &cfg, "mark");
        let mb = (0..cfg.blocks.len())
            .find(|&b| marks[b] == 1)
            .expect("mark block");
        assert_eq!(r.entry[mb] & 1, 1, "a() after mark on all paths");
    }

    #[test]
    fn let_else_diverging_path() {
        let src = "fn f(o: Option<u32>) { let Some(x) = o else { return; }; a(x); }";
        let (lexed, cfg) = cfg_of(src);
        let gens = gen_ident(&lexed, &cfg, "a");
        let r = solve(&cfg, Dir::Forward, Meet::May, |b| gens[b]);
        assert_eq!(r.out[cfg.exit] & 1, 1, "bound path reaches a()");
        // The else path returns before a(): must fails at the exit.
        let r = solve(&cfg, Dir::Forward, Meet::Must, |b| gens[b]);
        assert_eq!(r.out[cfg.exit] & 1, 0);
    }

    #[test]
    fn let_else_success_path_is_modelled() {
        // Regression: the binding-success path bypasses the else block, so
        // facts generated *inside* the else block must not become
        // must-facts after it. (Without the cur→join edge the join's only
        // predecessor is the else block's dead tail, which carries the
        // must-identity and silently proves everything.)
        let src = "fn f(o: Option<u32>) { let Some(x) = o else { esc(); return; }; a(x); }";
        let (lexed, cfg) = cfg_of(src);
        let gens = gen_ident(&lexed, &cfg, "esc");
        let r = solve(&cfg, Dir::Forward, Meet::Must, |b| gens[b]);
        assert_eq!(r.out[cfg.exit] & 1, 0, "esc() only on the diverging path");
    }

    #[test]
    fn closure_is_opaque() {
        // The `if` inside the closure must not split the enclosing block.
        let src = "fn f() { let g = |x: u32| { if x > 0 { a(); } }; b(); }";
        let (lexed, cfg) = cfg_of(src);
        let gens = gen_ident(&lexed, &cfg, "b");
        let r = solve(&cfg, Dir::Forward, Meet::Must, |bk| gens[bk]);
        assert_eq!(r.out[cfg.exit] & 1, 1);
        let ga = gen_ident(&lexed, &cfg, "a");
        assert!(ga.contains(&1), "closure body tokens kept");
    }
}
