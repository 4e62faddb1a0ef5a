//! The shared analysis model: lexed + structurally parsed source files, a
//! pass trait over them, and the workspace loader.
//!
//! Passes see one [`Workspace`] — every `.rs` file under `crates/*/src` and
//! `src/`, lexed once, with lazy access to parsed shapes. The model layer is
//! the place later PRs extend (new item shapes, new crate scopes) without
//! touching individual passes.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;

use crate::callgraph::WorkspaceGraph;
use crate::diag::Diagnostic;
use crate::lexer::{lex, Lexed, Tok};
use crate::parse::{self, EnumDef, FieldDef, FnDef, ImplDef, UseDecl};

/// One analysed source file.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators (e.g.
    /// `crates/mdcc/src/messages.rs`).
    pub path: String,
    /// Token stream and `check:allow` markers.
    pub lexed: Lexed,
    enums: Vec<EnumDef>,
    fns: Vec<FnDef>,
    fields: Vec<FieldDef>,
    impls: Vec<ImplDef>,
    uses: Vec<UseDecl>,
    types: Vec<String>,
}

impl SourceFile {
    /// Build from raw source text.
    pub fn new(path: String, src: &str) -> Self {
        let lexed = lex(src);
        let enums = parse::enums(&lexed.toks);
        let fns = parse::fns(&lexed.toks);
        let fields = parse::struct_fields(&lexed.toks);
        let impls = parse::impls(&lexed.toks);
        let uses = parse::use_decls(&lexed.toks);
        let types = parse::type_names(&lexed.toks);
        SourceFile {
            path,
            lexed,
            enums,
            fns,
            fields,
            impls,
            uses,
            types,
        }
    }

    /// The token stream.
    pub fn toks(&self) -> &[Tok] {
        &self.lexed.toks
    }

    /// Enum definitions in this file.
    pub fn enums(&self) -> &[EnumDef] {
        &self.enums
    }

    /// Function items in this file.
    pub fn fns(&self) -> &[FnDef] {
        &self.fns
    }

    /// Struct fields in this file.
    pub fn fields(&self) -> &[FieldDef] {
        &self.fields
    }

    /// Impl blocks in this file.
    pub fn impls(&self) -> &[ImplDef] {
        &self.impls
    }

    /// `use` declarations in this file.
    pub fn uses(&self) -> &[UseDecl] {
        &self.uses
    }

    /// Names of structs/enums/traits declared in this file.
    pub fn types(&self) -> &[String] {
        &self.types
    }

    /// Find an enum by name.
    pub fn enum_named(&self, name: &str) -> Option<&EnumDef> {
        self.enums.iter().find(|e| e.name == name)
    }

    /// Find a function by name (first match).
    pub fn fn_named(&self, name: &str) -> Option<&FnDef> {
        self.fns.iter().find(|f| f.name == name)
    }

    /// True if line `line` (or the line above it, for a marker comment on
    /// its own line) carries `// check:allow(<lint>)`.
    pub fn allowed(&self, lint: &str, line: u32) -> bool {
        self.lexed
            .allows
            .get(lint)
            .is_some_and(|lines| lines.contains(&line) || lines.contains(&line.saturating_sub(1)))
    }
}

/// The full set of analysed files.
pub struct Workspace {
    files: Vec<SourceFile>,
    by_path: HashMap<String, usize>,
    graph: OnceLock<WorkspaceGraph>,
}

impl Workspace {
    /// Build a workspace from in-memory `(path, source)` pairs — the fixture
    /// entry point. Each file is lexed and structurally parsed exactly once,
    /// here; passes reuse the shared model. The per-file front-end work is
    /// independent, so it fans out across threads.
    pub fn from_sources(sources: Vec<(String, String)>) -> Self {
        let workers = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(sources.len().max(1));
        let files: Vec<SourceFile> = if workers <= 1 || sources.len() < 8 {
            sources
                .into_iter()
                .map(|(p, s)| SourceFile::new(p, &s))
                .collect()
        } else {
            let chunk = sources.len().div_ceil(workers);
            let chunks: Vec<&[(String, String)]> = sources.chunks(chunk).collect();
            let parsed: Vec<Vec<SourceFile>> = std::thread::scope(|scope| {
                let handles: Vec<_> = chunks
                    .into_iter()
                    .map(|c| {
                        scope.spawn(move || {
                            c.iter()
                                .map(|(p, s)| SourceFile::new(p.clone(), s))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("front-end worker panicked"))
                    .collect()
            });
            parsed.into_iter().flatten().collect()
        };
        let by_path = files
            .iter()
            .enumerate()
            .map(|(i, f)| (f.path.clone(), i))
            .collect();
        Workspace {
            files,
            by_path,
            graph: OnceLock::new(),
        }
    }

    /// The workspace-wide call graph, built on first use and shared by all
    /// passes that need interprocedural reachability.
    pub fn graph(&self) -> &WorkspaceGraph {
        self.graph.get_or_init(|| WorkspaceGraph::build(self))
    }

    /// Load every `.rs` file under `crates/*/src`, `crates/*/tests` is
    /// deliberately excluded (tests may be nondeterministic and unlocked).
    /// `crates/loom` is excluded too: it is the `--cfg loom` model checker
    /// itself — dead code in production builds, and its `Mutex`/`Condvar`
    /// shims would otherwise alias the std names the race pass keys on and
    /// pollute the call graph with phantom blocking edges. Files are
    /// ordered by path so reports are stable.
    pub fn load(root: &Path) -> std::io::Result<Self> {
        let mut sources = Vec::new();
        let crates_dir = root.join("crates");
        let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir() && p.file_name().is_none_or(|n| n != "loom"))
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            let src = dir.join("src");
            if src.is_dir() {
                collect_rs(&src, root, &mut sources)?;
            }
        }
        let top_src = root.join("src");
        if top_src.is_dir() {
            collect_rs(&top_src, root, &mut sources)?;
        }
        sources.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(Self::from_sources(sources))
    }

    /// All files, in path order.
    pub fn files(&self) -> &[SourceFile] {
        &self.files
    }

    /// Look up a file by exact workspace-relative path.
    pub fn file(&self, path: &str) -> Option<&SourceFile> {
        self.by_path.get(path).map(|&i| &self.files[i])
    }

    /// Files under a workspace-relative directory prefix.
    pub fn files_under<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a SourceFile> {
        self.files
            .iter()
            .filter(move |f| f.path.starts_with(prefix))
    }
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<(String, String)>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let src = std::fs::read_to_string(&path)?;
            out.push((rel, src));
        }
    }
    Ok(())
}

/// A single analysis pass over the workspace model.
pub trait Pass {
    /// Short machine name (used by `--pass`).
    fn name(&self) -> &'static str;
    /// One-line description for `--list`.
    fn description(&self) -> &'static str;
    /// Run, appending findings to `out`.
    fn run(&self, ws: &Workspace, out: &mut Vec<Diagnostic>);
}

/// The built-in pass pipeline, in execution order.
pub fn all_passes() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(crate::passes::determinism::DeterminismPass),
        Box::new(crate::passes::time::TimePass),
        Box::new(crate::passes::panic::PanicPass),
        Box::new(crate::passes::flow::FlowPass::default()),
        Box::new(crate::passes::race::RacePass),
        Box::new(crate::passes::sync::SyncPass),
    ]
}

/// Wall time and finding count of one pass execution.
#[derive(Debug, Clone)]
pub struct PassTiming {
    /// The pass's machine name.
    pub name: &'static str,
    /// Wall time in microseconds.
    pub micros: u128,
    /// Findings the pass produced.
    pub findings: usize,
}

/// Run the named passes (or all, when `only` is empty) and return sorted
/// diagnostics.
pub fn run_passes(ws: &Workspace, only: &[String]) -> Vec<Diagnostic> {
    run_passes_timed(ws, only).0
}

/// [`run_passes`], also reporting per-pass wall time for the `--json`
/// report (and for holding the self-check under its time budget).
pub fn run_passes_timed(ws: &Workspace, only: &[String]) -> (Vec<Diagnostic>, Vec<PassTiming>) {
    let mut out = Vec::new();
    let mut timings = Vec::new();
    for pass in all_passes() {
        if only.is_empty() || only.iter().any(|n| n == pass.name()) {
            let before = out.len();
            let start = Instant::now();
            pass.run(ws, &mut out);
            timings.push(PassTiming {
                name: pass.name(),
                micros: start.elapsed().as_micros(),
                findings: out.len() - before,
            });
        }
    }
    crate::diag::sort(&mut out);
    (out, timings)
}
