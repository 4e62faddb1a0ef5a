//! The workspace-wide call graph and its reachability queries, used by the
//! panic/flow/race passes to follow handler code into the helper functions
//! it calls, across files and crates, and by the `time` pass restricted to
//! one file.
//!
//! Nodes are every function in every file; edges resolve across files and
//! crates: `use`-imported free functions, `module::path::fn()` calls,
//! `Type::method()` with the type's impl blocks found anywhere in the
//! workspace, `recv.method()` with the receiver's type recovered from
//! struct fields, typed `let` bindings, and fn parameters, and — the
//! dynamic-dispatch approximation — `x.method()` on an *unknown* receiver
//! resolving to every `impl Trait for Type` method of that name (minus a
//! deny-list of ubiquitous std trait methods like `fmt`/`clone`/`next`).
//! Every resolution strategy also unions in the same-file functions of the
//! called name, so the edges that stay inside one file are exactly the
//! name-based per-file graph (see [`WorkspaceGraph::reachable_in_file`]).
//!
//! The graph records per-call-site token positions (for the race pass's
//! "blocking call while a lock is held" check) and supports BFS with
//! predecessor tracking so diagnostics can print a witness chain
//! (`drive_task` → `drive_into` → `on_message` → ...).

use crate::lexer::{Tok, TokKind};
use crate::model::Workspace;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::ops::Range;

/// One function anywhere in the workspace.
#[derive(Debug, Clone)]
pub struct WsFn {
    /// Index into `Workspace::files()`.
    pub file: usize,
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Body token range in the owning file's stream.
    pub body: Range<usize>,
    /// Self type of the enclosing impl block, when there is one.
    pub owner: Option<String>,
    /// Trait name when the enclosing impl is `impl Trait for Type`.
    pub trait_name: Option<String>,
    /// Named parameters `(name, type-text)`.
    pub params: Vec<(String, String)>,
}

/// One resolved call site inside a function body.
#[derive(Debug, Clone, Copy)]
pub struct CallSite {
    /// The called function (node index).
    pub target: usize,
    /// Token index of the callee name in the caller's file.
    pub tok: usize,
    /// 1-based source line of the call.
    pub line: u32,
}

/// Methods excluded from the dynamic-dispatch approximation: ubiquitous
/// std trait methods whose `impl Trait for Type` definitions would connect
/// everything to everything.
const DYN_DENY: &[&str] = &[
    "fmt",
    "clone",
    "clone_from",
    "default",
    "drop",
    "next",
    "size_hint",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "from",
    "into",
    "try_from",
    "try_into",
    "from_str",
    "deref",
    "deref_mut",
    "index",
    "index_mut",
    "as_ref",
    "as_mut",
    "borrow",
    "borrow_mut",
    "to_string",
    "write_str",
    "add",
    "sub",
    "mul",
    "div",
    "rem",
    "neg",
    "not",
    "sum",
    "product",
    "extend",
    "from_iter",
    "into_iter",
];

/// The cross-file, cross-crate call graph.
pub struct WorkspaceGraph {
    /// All functions, file-major in workspace file order.
    pub fns: Vec<WsFn>,
    /// Per-function resolved call sites (site-level, may repeat targets).
    pub calls: Vec<Vec<CallSite>>,
    /// Per-function deduplicated callee sets.
    pub callees: Vec<BTreeSet<usize>>,
    nodes_of_file: Vec<Vec<usize>>,
    path_to_file: HashMap<String, usize>,
}

impl WorkspaceGraph {
    /// Build the graph over the whole workspace.
    pub fn build(ws: &Workspace) -> WorkspaceGraph {
        let files = ws.files();

        // ---- nodes ----
        let mut fns: Vec<WsFn> = Vec::new();
        let mut nodes_of_file: Vec<Vec<usize>> = vec![Vec::new(); files.len()];
        for (fi, f) in files.iter().enumerate() {
            for d in f.fns() {
                let im = f.impls().iter().find(|im| im.body.contains(&d.body.start));
                nodes_of_file[fi].push(fns.len());
                fns.push(WsFn {
                    file: fi,
                    name: d.name.clone(),
                    line: d.line,
                    body: d.body.clone(),
                    owner: im.map(|im| im.ty.clone()),
                    trait_name: im.and_then(|im| im.trait_name.clone()),
                    params: d.params.clone(),
                });
            }
        }

        // ---- global indexes ----
        // (file, name) -> nodes, for the same-file fallback.
        let mut by_file_name: HashMap<(usize, &str), Vec<usize>> = HashMap::new();
        // (owner type, method) -> nodes, across all files.
        let mut by_owner_method: HashMap<(&str, &str), Vec<usize>> = HashMap::new();
        // trait-impl methods by name (dyn-dispatch approximation).
        let mut trait_methods: HashMap<&str, Vec<usize>> = HashMap::new();
        // (crate, name) -> free (non-impl) fns.
        let mut free_by_crate: HashMap<(&str, &str), Vec<usize>> = HashMap::new();
        let crate_of_file: Vec<&str> = files.iter().map(|f| crate_of_path(&f.path)).collect();
        for (i, n) in fns.iter().enumerate() {
            by_file_name.entry((n.file, &n.name)).or_default().push(i);
            if let Some(o) = &n.owner {
                by_owner_method
                    .entry((o.as_str(), &n.name))
                    .or_default()
                    .push(i);
                if n.trait_name.is_some() {
                    trait_methods.entry(&n.name).or_default().push(i);
                }
            } else {
                free_by_crate
                    .entry((crate_of_file[n.file], &n.name))
                    .or_default()
                    .push(i);
            }
        }
        // Every type name the workspace declares or implements.
        let mut known_types: HashSet<&str> = HashSet::new();
        for f in files {
            known_types.extend(f.types().iter().map(String::as_str));
        }
        for n in &fns {
            if let Some(o) = &n.owner {
                known_types.insert(o.as_str());
            }
        }
        // Per-file field types (field name -> known type names in its type).
        let field_types: Vec<HashMap<&str, Vec<&str>>> = files
            .iter()
            .map(|f| {
                f.fields()
                    .iter()
                    .map(|fd| (fd.name.as_str(), type_idents(&fd.ty, &known_types)))
                    .collect()
            })
            .collect();
        // Per-file imports: alias -> segments, plus glob prefixes.
        let mut imports: Vec<HashMap<&str, &[String]>> = Vec::with_capacity(files.len());
        let mut globs: Vec<Vec<&[String]>> = Vec::with_capacity(files.len());
        for f in files {
            let mut m: HashMap<&str, &[String]> = HashMap::new();
            let mut g: Vec<&[String]> = Vec::new();
            for u in f.uses() {
                if u.name == "*" {
                    g.push(&u.segments[..u.segments.len() - 1]);
                } else {
                    m.insert(u.name.as_str(), &u.segments[..]);
                }
            }
            imports.push(m);
            globs.push(g);
        }

        // ---- resolve call sites ----
        let mut calls: Vec<Vec<CallSite>> = vec![Vec::new(); fns.len()];
        let mut callees: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); fns.len()];
        for ni in 0..fns.len() {
            let node = &fns[ni];
            let fi = node.file;
            let toks = files[fi].toks();
            // Receiver typing: local `let` bindings + params whose type
            // mentions a workspace type.
            let mut var_types: HashMap<String, Vec<&str>> = HashMap::new();
            for (p, ty) in &node.params {
                let tys = type_idents(ty, &known_types);
                if !tys.is_empty() {
                    var_types.insert(p.clone(), tys);
                }
            }
            collect_let_types(toks, node.body.clone(), &known_types, &mut var_types);

            let mut i = node.body.start;
            while i + 1 < node.body.end.min(toks.len()) {
                let t = &toks[i];
                if t.kind != TokKind::Ident || !toks[i + 1].is_punct('(') {
                    i += 1;
                    continue;
                }
                if (i > 0 && toks[i - 1].is_ident("fn"))
                    || matches!(t.text.as_str(), "if" | "while" | "for" | "match" | "loop")
                {
                    i += 1;
                    continue;
                }
                let name = t.text.as_str();
                let mut targets: Vec<usize> = Vec::new();
                let same_file = |tg: &mut Vec<usize>| {
                    if let Some(v) = by_file_name.get(&(fi, name)) {
                        tg.extend(v.iter().copied());
                    }
                };
                let dyn_approx = |tg: &mut Vec<usize>| {
                    if !DYN_DENY.contains(&name) {
                        if let Some(v) = trait_methods.get(name) {
                            tg.extend(v.iter().copied());
                        }
                    }
                };
                if i > 0 && toks[i - 1].is_punct('.') {
                    // Method call: type the receiver if we can.
                    let recv = i.checked_sub(2).map(|k| &toks[k]);
                    if recv.is_some_and(|r| r.is_ident("self")) {
                        same_file(&mut targets);
                        if let Some(o) = &node.owner {
                            if let Some(v) = by_owner_method.get(&(o.as_str(), name)) {
                                targets.extend(v.iter().copied());
                            }
                        }
                    } else {
                        let mut tys: Vec<&str> = Vec::new();
                        if let Some(r) = recv {
                            if r.kind == TokKind::Ident {
                                let is_self_field = i >= 4
                                    && toks[i - 3].is_punct('.')
                                    && toks[i - 4].is_ident("self");
                                if is_self_field {
                                    if let Some(v) = field_types[fi].get(r.text.as_str()) {
                                        tys.extend(v.iter().copied());
                                    }
                                } else if let Some(v) = var_types.get(&r.text) {
                                    tys.extend(v.iter().copied());
                                }
                            }
                        }
                        for ty in &tys {
                            if let Some(v) = by_owner_method.get(&(*ty, name)) {
                                targets.extend(v.iter().copied());
                            }
                        }
                        if targets.is_empty() {
                            dyn_approx(&mut targets);
                        }
                        same_file(&mut targets);
                    }
                } else if i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':') {
                    // Path call `a::b::name(..)`: walk segments backwards.
                    let mut segs: Vec<&str> = Vec::new();
                    let mut k = i;
                    while k >= 3
                        && toks[k - 1].is_punct(':')
                        && toks[k - 2].is_punct(':')
                        && toks[k - 3].kind == TokKind::Ident
                    {
                        segs.push(toks[k - 3].text.as_str());
                        k -= 3;
                    }
                    segs.reverse();
                    if segs.last() == Some(&"Self") || segs.first() == Some(&"Self") {
                        if let Some(o) = &node.owner {
                            if let Some(v) = by_owner_method.get(&(o.as_str(), name)) {
                                targets.extend(v.iter().copied());
                            }
                        }
                    } else if !segs.is_empty() {
                        // Expand a leading import alias.
                        let mut full: Vec<&str> = Vec::new();
                        if let Some(path) = imports[fi].get(segs[0]) {
                            full.extend(path.iter().map(String::as_str));
                            full.extend(segs[1..].iter().copied());
                        } else {
                            full.extend(segs.iter().copied());
                        }
                        // A type segment wins (method/assoc-fn call) ...
                        if let Some(ty) = full.iter().rev().find(|s| known_types.contains(**s)) {
                            if let Some(v) = by_owner_method.get(&(*ty, name)) {
                                targets.extend(v.iter().copied());
                            }
                        } else {
                            // ... otherwise a module path to a free fn.
                            if let Some(krate) = path_crate(full[0], crate_of_file[fi]) {
                                if let Some(v) = free_by_crate.get(&(krate, name)) {
                                    targets.extend(v.iter().copied());
                                }
                            }
                        }
                    }
                    same_file(&mut targets);
                } else {
                    // Bare call: same file first, then imports, then globs.
                    same_file(&mut targets);
                    if targets.is_empty() {
                        if let Some(path) = imports[fi].get(name) {
                            if let Some(seg0) = path.first() {
                                if path.len() >= 2
                                    && known_types.contains(path[path.len() - 2].as_str())
                                {
                                    let ty = path[path.len() - 2].as_str();
                                    if let Some(v) = by_owner_method.get(&(ty, name)) {
                                        targets.extend(v.iter().copied());
                                    }
                                } else if let Some(krate) = path_crate(seg0, crate_of_file[fi]) {
                                    if let Some(v) = free_by_crate.get(&(krate, name)) {
                                        targets.extend(v.iter().copied());
                                    }
                                }
                            }
                        }
                    }
                    if targets.is_empty() {
                        for g in &globs[fi] {
                            if let Some(seg0) = g.first() {
                                if let Some(krate) = path_crate(seg0, crate_of_file[fi]) {
                                    if let Some(v) = free_by_crate.get(&(krate, name)) {
                                        targets.extend(v.iter().copied());
                                    }
                                }
                            }
                        }
                    }
                }
                for tgt in targets {
                    if tgt != ni {
                        calls[ni].push(CallSite {
                            target: tgt,
                            tok: i,
                            line: t.line,
                        });
                        callees[ni].insert(tgt);
                    }
                }
                i += 1;
            }
        }

        let path_to_file = files
            .iter()
            .enumerate()
            .map(|(i, f)| (f.path.clone(), i))
            .collect();
        WorkspaceGraph {
            fns,
            calls,
            callees,
            nodes_of_file,
            path_to_file,
        }
    }

    /// Index of the file with the given workspace-relative path.
    pub fn file_index(&self, path: &str) -> Option<usize> {
        self.path_to_file.get(path).copied()
    }

    /// Node indices of all functions defined in file `fi`.
    pub fn nodes_of_file(&self, fi: usize) -> &[usize] {
        &self.nodes_of_file[fi]
    }

    /// Nodes named `name` defined in the file at `path`.
    pub fn fn_ids(&self, path: &str, name: &str) -> Vec<usize> {
        match self.file_index(path) {
            Some(fi) => self.nodes_of_file[fi]
                .iter()
                .copied()
                .filter(|&n| self.fns[n].name == name)
                .collect(),
            None => Vec::new(),
        }
    }

    /// BFS closure from `roots` (roots included), recording each node's
    /// BFS predecessor so diagnostics can show a call chain back to a root.
    pub fn reachable_with_preds(
        &self,
        roots: impl IntoIterator<Item = usize>,
    ) -> (BTreeSet<usize>, HashMap<usize, usize>) {
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        let mut preds: HashMap<usize, usize> = HashMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for r in roots {
            if seen.insert(r) {
                queue.push_back(r);
            }
        }
        while let Some(i) = queue.pop_front() {
            for &c in &self.callees[i] {
                if seen.insert(c) {
                    preds.insert(c, i);
                    queue.push_back(c);
                }
            }
        }
        (seen, preds)
    }

    /// Closure from `roots` (roots included) over the call edges whose
    /// target is defined in file `fi`: the per-file view of the graph, for
    /// passes whose scope is one file.
    pub fn reachable_in_file(
        &self,
        roots: impl IntoIterator<Item = usize>,
        fi: usize,
    ) -> BTreeSet<usize> {
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        let mut queue: VecDeque<usize> = roots
            .into_iter()
            .filter(|&r| self.fns[r].file == fi)
            .collect();
        while let Some(i) = queue.pop_front() {
            if seen.insert(i) {
                queue.extend(
                    self.callees[i]
                        .iter()
                        .copied()
                        .filter(|&c| self.fns[c].file == fi && !seen.contains(&c)),
                );
            }
        }
        seen
    }

    /// The witness chain root → ... → `node` implied by BFS predecessors,
    /// as function names.
    pub fn chain(&self, preds: &HashMap<usize, usize>, node: usize) -> Vec<String> {
        let mut chain = vec![self.fns[node].name.clone()];
        let mut cur = node;
        while let Some(&p) = preds.get(&cur) {
            chain.push(self.fns[p].name.clone());
            cur = p;
            if chain.len() > 32 {
                break; // defensive: preds is acyclic by construction
            }
        }
        chain.reverse();
        chain
    }

    /// Render a witness chain as `` `a` → `b` → `c` ``, eliding the middle
    /// of long chains.
    pub fn chain_text(&self, preds: &HashMap<usize, usize>, node: usize) -> String {
        let chain = self.chain(preds, node);
        let parts: Vec<String> = if chain.len() > 5 {
            let mut v: Vec<String> = chain[..2].iter().map(|n| format!("`{n}`")).collect();
            v.push("…".to_string());
            v.extend(chain[chain.len() - 2..].iter().map(|n| format!("`{n}`")));
            v
        } else {
            chain.iter().map(|n| format!("`{n}`")).collect()
        };
        parts.join(" → ")
    }
}

/// The crate directory name of a workspace-relative path:
/// `crates/storage/src/wal.rs` → `storage`; top-level `src/` → ``.
fn crate_of_path(path: &str) -> &str {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("")
}

/// Map a leading path segment to a crate directory name: `crate`/`super`/
/// `self` stay in the caller's crate, `planet_storage` → `storage`,
/// `planet` → the top-level crate. Unknown segments (std, external) → None.
fn path_crate<'a>(seg0: &'a str, own_crate: &'a str) -> Option<&'a str> {
    match seg0 {
        "crate" | "super" | "self" => Some(own_crate),
        "planet" => Some(""),
        s => s.strip_prefix("planet_"),
    }
}

/// Known type names mentioned in a type's flattened text.
fn type_idents<'a>(ty: &str, known: &HashSet<&'a str>) -> Vec<&'a str> {
    let mut out = Vec::new();
    for word in ty.split(|c: char| !c.is_alphanumeric() && c != '_') {
        if let Some(&k) = known.get(word) {
            if !out.contains(&k) {
                out.push(k);
            }
        }
    }
    out
}

/// Record the known-type mentions of each `let` binding in `range` into
/// `out` (the same statement scan as `parse::typed_lets`, but keeping the
/// per-variable type sets).
fn collect_let_types<'a>(
    toks: &[Tok],
    range: Range<usize>,
    known: &HashSet<&'a str>,
    out: &mut HashMap<String, Vec<&'a str>>,
) {
    let mut i = range.start;
    while i + 2 < range.end.min(toks.len()) {
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if j < toks.len() && toks[j].is_ident("mut") {
                j += 1;
            }
            if j < toks.len() && toks[j].kind == TokKind::Ident {
                let name = toks[j].text.clone();
                let mut k = j + 1;
                let mut depth = 0i32;
                let mut tys: Vec<&str> = Vec::new();
                while k < range.end.min(toks.len()) {
                    let t = &toks[k];
                    if t.kind == TokKind::Punct {
                        match t.text.as_bytes()[0] {
                            b'{' | b'(' | b'[' => depth += 1,
                            b'}' | b')' | b']' => depth -= 1,
                            b';' if depth <= 0 => break,
                            _ => {}
                        }
                    } else if t.kind == TokKind::Ident {
                        if let Some(&ty) = known.get(t.text.as_str()) {
                            if !tys.contains(&ty) {
                                tys.push(ty);
                            }
                        }
                    }
                    k += 1;
                }
                if !tys.is_empty() {
                    out.insert(name, tys);
                }
                i = k;
                continue;
            }
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names of the same-file closure from the functions named `root` in
    /// the one-file workspace `src`.
    fn in_file_reach(src: &str, root: &str) -> Vec<String> {
        let w = ws(&[("crates/a/src/lib.rs", src)]);
        let g = w.graph();
        let roots = g.fn_ids("crates/a/src/lib.rs", root);
        g.reachable_in_file(roots, 0)
            .iter()
            .map(|&n| g.fns[n].name.clone())
            .collect()
    }

    #[test]
    fn resolves_local_calls_transitively() {
        let src = r#"
            fn a() { b(); }
            fn b() { self.c(1); }
            fn c(x: u32) { external(x); }
            fn lonely() {}
        "#;
        assert_eq!(in_file_reach(src, "a"), ["a", "b", "c"]);
    }

    #[test]
    fn duplicate_method_names_reach_all() {
        let src = r#"
            fn root() { self.step(); }
            fn step() { one(); }
            fn step(x: u32) { two(); }
        "#;
        assert_eq!(
            in_file_reach(src, "root").len(),
            3,
            "both `step` defs reached"
        );
    }

    #[test]
    fn recursion_terminates() {
        let src = "fn f() { f(); g(); } fn g() { f(); }";
        assert_eq!(in_file_reach(src, "f").len(), 2);
    }

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::from_sources(
            files
                .iter()
                .map(|(p, s)| (p.to_string(), s.to_string()))
                .collect(),
        )
    }

    #[test]
    fn workspace_graph_resolves_cross_crate_chain() {
        // The chain the per-file graph provably cannot follow:
        // drive_task --use-import--> drive_into --dyn-approx--> on_message
        // --field-type--> Replica::accept --field-type--> Store::accept_id.
        let w = ws(&[
            (
                "crates/cluster/src/reactor.rs",
                "use planet_sim::drive_into;\npub fn drive_task() { drive_into(); }",
            ),
            (
                "crates/sim/src/actor.rs",
                "pub fn drive_into() { actor.on_message(1); }",
            ),
            (
                "crates/mdcc/src/replica_actor.rs",
                r#"
                pub struct ReplicaActor { storage: Replica }
                impl Actor for ReplicaActor {
                    fn on_message(&mut self) { self.storage.accept(); }
                }
                "#,
            ),
            (
                "crates/storage/src/replica.rs",
                r#"
                pub struct Replica;
                impl Replica {
                    pub fn accept(&mut self) { self.store.accept_id(); }
                    pub fn accept_id(&mut self) {}
                }
                pub struct Store;
                impl Store { pub fn accept_id(&mut self) {} }
                "#,
            ),
        ]);
        let g = w.graph();
        let roots = g.fn_ids("crates/cluster/src/reactor.rs", "drive_task");
        assert_eq!(roots.len(), 1);
        let (reach, preds) = g.reachable_with_preds(roots.clone());
        let reached: Vec<(&str, &str)> = reach
            .iter()
            .map(|&n| {
                (
                    g.fns[n].name.as_str(),
                    w.files()[g.fns[n].file].path.as_str(),
                )
            })
            .collect();
        assert!(reached.contains(&("drive_into", "crates/sim/src/actor.rs")));
        assert!(reached.contains(&("on_message", "crates/mdcc/src/replica_actor.rs")));
        assert!(
            reached.contains(&("accept", "crates/storage/src/replica.rs")),
            "field-typed receiver must resolve cross-crate: {reached:?}"
        );
        // Witness chain renders root-first.
        let accept = g.fn_ids("crates/storage/src/replica.rs", "accept")[0];
        let chain = g.chain(&preds, accept);
        assert_eq!(chain.first().map(String::as_str), Some("drive_task"));
        assert_eq!(chain.last().map(String::as_str), Some("accept"));

        // The per-file view misses all of it: from drive_task it reaches
        // only drive_task itself.
        let reactor = g.file_index("crates/cluster/src/reactor.rs").unwrap();
        let in_file = g.reachable_in_file(roots, reactor);
        assert_eq!(
            in_file.len(),
            1,
            "the per-file view must not see cross-crate"
        );
    }

    #[test]
    fn workspace_graph_resolves_paths_and_typed_lets() {
        let w = ws(&[
            (
                "crates/a/src/lib.rs",
                r#"
                use planet_b::helper;
                pub struct Widget;
                pub fn root() {
                    helper();
                    planet_b::other();
                    let w: Widget = Widget::make();
                    w.spin();
                    Gear::turn();
                }
                impl Widget { pub fn make() -> Widget { Widget } pub fn spin(&self) {} }
                "#,
            ),
            (
                "crates/b/src/lib.rs",
                r#"
                pub fn helper() {}
                pub fn other() {}
                pub struct Gear;
                impl Gear { pub fn turn() {} }
                "#,
            ),
        ]);
        let g = w.graph();
        let root = g.fn_ids("crates/a/src/lib.rs", "root");
        let (reach, _) = g.reachable_with_preds(root);
        let names: Vec<&str> = reach.iter().map(|&n| g.fns[n].name.as_str()).collect();
        assert!(
            names.contains(&"helper"),
            "use-imported bare call: {names:?}"
        );
        assert!(names.contains(&"other"), "module-qualified call: {names:?}");
        assert!(names.contains(&"make"), "Type::assoc_fn call: {names:?}");
        assert!(
            names.contains(&"spin"),
            "typed-let receiver method: {names:?}"
        );
        assert!(
            names.contains(&"turn"),
            "cross-crate Type::method: {names:?}"
        );
    }

    #[test]
    fn workspace_graph_dyn_approx_denies_std_trait_methods() {
        let w = ws(&[
            (
                "crates/a/src/lib.rs",
                "pub fn root(x: &dyn Any) { x.fmt(f); x.handle(); }",
            ),
            (
                "crates/b/src/lib.rs",
                r#"
                pub struct T;
                impl Display for T { fn fmt(&self) {} }
                impl Handler for T { fn handle(&self) {} }
                "#,
            ),
        ]);
        let g = w.graph();
        let root = g.fn_ids("crates/a/src/lib.rs", "root");
        let (reach, _) = g.reachable_with_preds(root);
        let names: Vec<&str> = reach.iter().map(|&n| g.fns[n].name.as_str()).collect();
        assert!(
            names.contains(&"handle"),
            "workspace trait method: {names:?}"
        );
        assert!(!names.contains(&"fmt"), "fmt is deny-listed: {names:?}");
    }
}
