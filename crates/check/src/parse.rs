//! Structural parsing over the token stream: enough shape recovery to feed
//! the passes — enum definitions with their variants, function bodies as
//! token ranges, struct fields with their type text, and explicitly-typed
//! `let` bindings.
//!
//! This is deliberately not a full Rust parser. It recovers the handful of
//! item shapes the passes reason about and ignores everything else; any
//! construct it cannot follow is skipped, never an error.

use crate::lexer::{Tok, TokKind};

/// One variant of an enum.
#[derive(Debug, Clone)]
pub struct VariantDef {
    /// Variant name.
    pub name: String,
    /// 1-based line of the variant.
    pub line: u32,
}

/// An enum definition.
#[derive(Debug, Clone)]
pub struct EnumDef {
    /// Enum name.
    pub name: String,
    /// 1-based line of the `enum` keyword.
    pub line: u32,
    /// The variants, in declaration order.
    pub variants: Vec<VariantDef>,
}

/// A function item: its name and the token range of its body (the tokens
/// strictly between the outer `{` and `}`).
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index range of the body, excluding the outer braces.
    pub body: std::ops::Range<usize>,
    /// Named parameters as `(name, type-text)`. Pattern parameters
    /// (tuples, destructures) are skipped; `self` receivers are excluded.
    pub params: Vec<(String, String)>,
}

/// An `impl` block: the self type, the trait (when it is a trait impl),
/// and the token range of the body.
#[derive(Debug, Clone)]
pub struct ImplDef {
    /// The self type's final path segment (`Coordinator` in
    /// `impl planet_mdcc::Coordinator`).
    pub ty: String,
    /// `Some(trait name)` for `impl Trait for Type`, `None` for inherent.
    pub trait_name: Option<String>,
    /// Token index range of the body, excluding the outer braces.
    pub body: std::ops::Range<usize>,
}

/// One name bound by a `use` declaration, with the full path that binds it.
#[derive(Debug, Clone)]
pub struct UseDecl {
    /// The name the declaration binds in this module (the alias after
    /// `as`, otherwise the final segment; `*` for glob imports).
    pub name: String,
    /// The full path segments, e.g. `["planet_sim", "drive_into"]`.
    pub segments: Vec<String>,
}

/// A struct field with its declared type, flattened to text.
#[derive(Debug, Clone)]
pub struct FieldDef {
    /// Field name.
    pub name: String,
    /// The type, as space-joined token text (e.g. `HashMap < u32 , SiteId >`).
    pub ty: String,
}

/// Advance past a balanced `open`/`close` group. `i` must point at the
/// opening token; returns the index just past the matching closer.
pub fn skip_group(toks: &[Tok], i: usize, open: char, close: char) -> usize {
    debug_assert!(toks[i].is_punct(open));
    let mut depth = 0usize;
    let mut j = i;
    while j < toks.len() {
        if toks[j].is_punct(open) {
            depth += 1;
        } else if toks[j].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    toks.len()
}

/// Split the token range of a braced group body into top-level,
/// comma-separated element ranges. Empty elements are dropped.
fn split_top_level_commas(
    toks: &[Tok],
    range: std::ops::Range<usize>,
) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = range.start;
    for j in range.clone() {
        let t = &toks[j];
        if t.kind == TokKind::Punct {
            match t.text.as_bytes().first() {
                Some(b'{') | Some(b'(') | Some(b'[') => depth += 1,
                Some(b'}') | Some(b')') | Some(b']') => depth -= 1,
                Some(b',') if depth == 0 => {
                    if j > start {
                        out.push(start..j);
                    }
                    start = j + 1;
                }
                _ => {}
            }
        }
    }
    if range.end > start {
        out.push(start..range.end);
    }
    out
}

/// Extract every enum definition in the file.
pub fn enums(toks: &[Tok]) -> Vec<EnumDef> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("enum") && i + 1 < toks.len() && toks[i + 1].kind == TokKind::Ident {
            let name = toks[i + 1].text.clone();
            let line = toks[i].line;
            // Find the opening brace (skipping generics on the name).
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                j += 1;
            }
            if j >= toks.len() || toks[j].is_punct(';') {
                i = j + 1;
                continue;
            }
            let end = skip_group(toks, j, '{', '}');
            let mut variants = Vec::new();
            let mut k = j + 1;
            while k < end - 1 {
                // Skip attributes on the variant.
                while k < end - 1 && toks[k].is_punct('#') {
                    if k + 1 < end && toks[k + 1].is_punct('[') {
                        k = skip_group(toks, k + 1, '[', ']');
                    } else {
                        k += 1;
                    }
                }
                if k >= end - 1 {
                    break;
                }
                if toks[k].kind != TokKind::Ident {
                    k += 1;
                    continue;
                }
                let vname = toks[k].text.clone();
                let vline = toks[k].line;
                let mut m = k + 1;
                if m < end - 1 && toks[m].is_punct('{') {
                    m = skip_group(toks, m, '{', '}');
                } else if m < end - 1 && toks[m].is_punct('(') {
                    m = skip_group(toks, m, '(', ')');
                }
                // Skip an explicit discriminant (`= expr`).
                while m < end - 1 && !toks[m].is_punct(',') {
                    m += 1;
                }
                variants.push(VariantDef {
                    name: vname,
                    line: vline,
                });
                k = m + 1;
            }
            out.push(EnumDef {
                name,
                line,
                variants,
            });
            i = end;
        } else {
            i += 1;
        }
    }
    out
}

/// Extract every function item (free or in an impl) with its body range.
pub fn fns(toks: &[Tok]) -> Vec<FnDef> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("fn") && i + 1 < toks.len() && toks[i + 1].kind == TokKind::Ident {
            let name = toks[i + 1].text.clone();
            let line = toks[i].line;
            // Scan to the body `{`, tracking (), [] and <> nesting so a
            // brace inside a where-clause bound or generic default does not
            // fool us. A `;` at depth 0 means a bodyless declaration.
            let mut j = i + 2;
            let mut paren = 0i32;
            let mut angle = 0i32;
            while j < toks.len() {
                let t = &toks[j];
                if t.kind == TokKind::Punct {
                    match t.text.as_bytes()[0] {
                        b'(' | b'[' => paren += 1,
                        b')' | b']' => paren -= 1,
                        b'<' => angle += 1,
                        b'>' => angle = (angle - 1).max(0),
                        b'{' if paren == 0 && angle == 0 => break,
                        b';' if paren == 0 && angle == 0 => break,
                        // `->`: the `>` of the arrow must not close an
                        // angle bracket.
                        b'-' if j + 1 < toks.len() && toks[j + 1].is_punct('>') => {
                            j += 1;
                        }
                        _ => {}
                    }
                }
                j += 1;
            }
            if j < toks.len() && toks[j].is_punct('{') {
                let end = skip_group(toks, j, '{', '}');
                out.push(FnDef {
                    name,
                    line,
                    body: j + 1..end - 1,
                    params: fn_params(toks, i + 2, j),
                });
                // Do not skip the body: nested fns (closures do not use
                // `fn`) are rare, but scanning on is harmless.
                i = j + 1;
            } else {
                i = j + 1;
            }
        } else {
            i += 1;
        }
    }
    out
}

/// Extract struct fields (`name: Type`) from every struct in the file.
pub fn struct_fields(toks: &[Tok]) -> Vec<FieldDef> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("struct") && i + 1 < toks.len() && toks[i + 1].kind == TokKind::Ident {
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                j += 1;
            }
            if j >= toks.len() || toks[j].is_punct(';') {
                i = j + 1;
                continue;
            }
            let end = skip_group(toks, j, '{', '}');
            for elem in split_top_level_commas(toks, j + 1..end - 1) {
                // Shape: [attrs] [pub [(..)]] name : Type
                let mut k = elem.start;
                while k < elem.end {
                    if toks[k].is_punct('#') && k + 1 < elem.end && toks[k + 1].is_punct('[') {
                        k = skip_group(toks, k + 1, '[', ']');
                    } else if toks[k].is_ident("pub") {
                        k += 1;
                        if k < elem.end && toks[k].is_punct('(') {
                            k = skip_group(toks, k, '(', ')');
                        }
                    } else {
                        break;
                    }
                }
                if k + 1 < elem.end && toks[k].kind == TokKind::Ident && toks[k + 1].is_punct(':') {
                    let ty = toks[k + 2..elem.end]
                        .iter()
                        .map(|t| t.text.as_str())
                        .collect::<Vec<_>>()
                        .join(" ");
                    out.push(FieldDef {
                        name: toks[k].text.clone(),
                        ty,
                    });
                }
            }
            i = end;
        } else {
            i += 1;
        }
    }
    out
}

/// Names of `let` bindings in the file whose declared or constructed type
/// mentions any of `type_names` (e.g. `HashMap`). Catches both
/// `let x: HashMap<..> = ..` and `let x = HashMap::new()`.
pub fn typed_lets(toks: &[Tok], type_names: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 2 < toks.len() {
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if j < toks.len() && toks[j].is_ident("mut") {
                j += 1;
            }
            if j < toks.len() && toks[j].kind == TokKind::Ident {
                let name = toks[j].text.clone();
                // Scan the rest of the statement for a type-name mention.
                let mut k = j + 1;
                let mut depth = 0i32;
                let mut mentions = false;
                while k < toks.len() {
                    let t = &toks[k];
                    if t.kind == TokKind::Punct {
                        match t.text.as_bytes()[0] {
                            b'{' | b'(' | b'[' => depth += 1,
                            b'}' | b')' | b']' => depth -= 1,
                            b';' if depth <= 0 => break,
                            _ => {}
                        }
                    } else if t.kind == TokKind::Ident && type_names.iter().any(|n| t.text == *n) {
                        mentions = true;
                    }
                    k += 1;
                }
                if mentions {
                    out.push(name);
                }
                i = k;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Parse a function's named parameters from the signature tokens between
/// `sig_start` (just past the fn name) and `body_open` (the body `{`).
/// Finds the first `(..)` at angle-depth 0 and splits it; each element of
/// shape `[mut] name : Type` yields `(name, type-text)`.
fn fn_params(toks: &[Tok], sig_start: usize, body_open: usize) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut j = sig_start;
    let mut angle = 0i32;
    while j < body_open.min(toks.len()) {
        let t = &toks[j];
        if t.kind == TokKind::Punct {
            match t.text.as_bytes()[0] {
                b'<' => angle += 1,
                b'>' => angle = (angle - 1).max(0),
                b'(' if angle == 0 => break,
                _ => {}
            }
        }
        j += 1;
    }
    if j >= body_open.min(toks.len()) {
        return out;
    }
    let close = skip_group(toks, j, '(', ')');
    for elem in split_top_level_commas(toks, j + 1..close - 1) {
        // Find the top-level `:` separating pattern from type.
        let mut depth = 0i32;
        let mut colon = None;
        for k in elem.clone() {
            let t = &toks[k];
            if t.kind == TokKind::Punct {
                match t.text.as_bytes()[0] {
                    b'(' | b'[' | b'{' | b'<' => depth += 1,
                    b')' | b']' | b'}' | b'>' => depth -= 1,
                    b':' if depth == 0 => {
                        // `::` is a path, not the pattern/type separator.
                        let part_of_path = (k + 1 < elem.end && toks[k + 1].is_punct(':'))
                            || (k > elem.start && toks[k - 1].is_punct(':'));
                        if !part_of_path {
                            colon = Some(k);
                            break;
                        }
                    }
                    _ => {}
                }
            }
        }
        if let Some(c) = colon {
            // Name = the single ident right before the colon (skip tuple
            // and struct patterns, which have closing punctuation there).
            if c > elem.start && toks[c - 1].kind == TokKind::Ident {
                let name = toks[c - 1].text.clone();
                if name == "self" {
                    continue;
                }
                let ty = toks[c + 1..elem.end]
                    .iter()
                    .map(|t| t.text.as_str())
                    .collect::<Vec<_>>()
                    .join(" ");
                out.push((name, ty));
            }
        }
    }
    out
}

/// Extract every `impl` block: self type, optional trait, body range.
pub fn impls(toks: &[Tok]) -> Vec<ImplDef> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_ident("impl") {
            i += 1;
            continue;
        }
        // Shape: impl [<generics>] Path [<args>] [for Path [<args>]]
        //        [where ..] { body }
        let mut j = i + 1;
        if j < toks.len() && toks[j].is_punct('<') {
            j = skip_angle_group(toks, j);
        }
        let first = path_tail(toks, &mut j);
        let mut trait_name = None;
        let mut ty = first.clone();
        if j < toks.len() && toks[j].is_ident("for") {
            j += 1;
            trait_name = first;
            ty = path_tail(toks, &mut j);
        }
        // Scan to the body brace (skipping where-clauses, which can nest
        // angle brackets but not braces).
        let mut angle = 0i32;
        while j < toks.len() {
            let t = &toks[j];
            if t.kind == TokKind::Punct {
                match t.text.as_bytes()[0] {
                    b'<' => angle += 1,
                    b'>' => angle = (angle - 1).max(0),
                    b'{' if angle == 0 => break,
                    b';' if angle == 0 => break,
                    b'-' if j + 1 < toks.len() && toks[j + 1].is_punct('>') => j += 1,
                    _ => {}
                }
            }
            j += 1;
        }
        if j < toks.len() && toks[j].is_punct('{') {
            let end = skip_group(toks, j, '{', '}');
            if let Some(ty) = ty {
                out.push(ImplDef {
                    ty,
                    trait_name,
                    body: j + 1..end - 1,
                });
            }
            i = j + 1; // scan into the body for nested items
        } else {
            i = j + 1;
        }
    }
    out
}

/// Advance past a balanced `<..>` group (generics). `i` must point at `<`.
fn skip_angle_group(toks: &[Tok], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        let t = &toks[j];
        if t.kind == TokKind::Punct {
            match t.text.as_bytes()[0] {
                b'<' => depth += 1,
                b'>' => {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                // `->` inside an Fn() bound: the `>` is not a closer.
                b'-' if j + 1 < toks.len() && toks[j + 1].is_punct('>') => j += 1,
                _ => {}
            }
        }
        j += 1;
    }
    toks.len()
}

/// Read a type path at `*j` (`a::b::Type<..>`, `&mut Type`), advancing `*j`
/// past it, and return the final segment name.
fn path_tail(toks: &[Tok], j: &mut usize) -> Option<String> {
    // Skip reference/pointer sigils.
    while *j < toks.len()
        && (toks[*j].is_punct('&')
            || toks[*j].is_ident("mut")
            || toks[*j].kind == TokKind::Lifetime)
    {
        *j += 1;
    }
    let mut last = None;
    while *j < toks.len() {
        if toks[*j].kind == TokKind::Ident
            && !toks[*j].is_ident("for")
            && !toks[*j].is_ident("where")
        {
            last = Some(toks[*j].text.clone());
            *j += 1;
            if *j < toks.len() && toks[*j].is_punct('<') {
                *j = skip_angle_group(toks, *j);
            }
            if *j + 1 < toks.len() && toks[*j].is_punct(':') && toks[*j + 1].is_punct(':') {
                *j += 2;
                continue;
            }
        }
        break;
    }
    last
}

/// Extract every `use` declaration, flattening `{..}` groups. Glob imports
/// are recorded with name `*`.
pub fn use_decls(toks: &[Tok]) -> Vec<UseDecl> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("use") {
            let mut prefix = Vec::new();
            i = parse_use_tree(toks, i + 1, &mut prefix, &mut out);
        } else {
            i += 1;
        }
    }
    out
}

/// Parse one use-tree starting at `i` with `prefix` segments already seen;
/// returns the index just past the tree (and its closing `;`/`,` if any).
fn parse_use_tree(
    toks: &[Tok],
    mut i: usize,
    prefix: &mut Vec<String>,
    out: &mut Vec<UseDecl>,
) -> usize {
    let depth_at_entry = prefix.len();
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Ident && t.text != "as" {
            prefix.push(t.text.clone());
            i += 1;
            if i + 1 < toks.len() && toks[i].is_punct(':') && toks[i + 1].is_punct(':') {
                i += 2;
                if i < toks.len() && toks[i].is_punct('{') {
                    // Group: recurse per comma-separated element.
                    let end = skip_group(toks, i, '{', '}');
                    for elem in split_top_level_commas(toks, i + 1..end - 1) {
                        let mut p = prefix.clone();
                        parse_use_tree(toks, elem.start, &mut p, out);
                    }
                    prefix.truncate(depth_at_entry);
                    return end;
                }
                continue;
            }
            // End of path: maybe `as alias`.
            let mut name = prefix.last().cloned().unwrap_or_default();
            if i < toks.len() && toks[i].is_ident("as") && i + 1 < toks.len() {
                name = toks[i + 1].text.clone();
                i += 2;
            }
            out.push(UseDecl {
                name,
                segments: prefix.clone(),
            });
            prefix.truncate(depth_at_entry);
            return i + 1;
        } else if t.is_punct('*') {
            prefix.push("*".to_string());
            out.push(UseDecl {
                name: "*".to_string(),
                segments: prefix.clone(),
            });
            prefix.truncate(depth_at_entry);
            return i + 2;
        } else {
            // Unexpected shape (attribute, visibility, ...): skip token.
            i += 1;
            if i > 0 && toks[i - 1].is_punct(';') {
                return i;
            }
        }
    }
    i
}

/// Names of every struct and enum declared in the file.
pub fn type_names(toks: &[Tok]) -> Vec<String> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if (toks[i].is_ident("struct") || toks[i].is_ident("enum") || toks[i].is_ident("trait"))
            && i + 1 < toks.len()
            && toks[i + 1].kind == TokKind::Ident
        {
            out.push(toks[i + 1].text.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn enum_variants_are_named_past_fields_and_attributes() {
        let src = r#"
            pub enum Msg {
                Submit { spec: TxnSpec, reply_to: ActorId, tag: u64 },
                Pair(u32, u64),
                Crash,
                #[default]
                Idle,
            }
        "#;
        let lexed = lex(src);
        let es = enums(&lexed.toks);
        assert_eq!(es.len(), 1);
        assert_eq!(es[0].name, "Msg");
        let names: Vec<&str> = es[0].variants.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, ["Submit", "Pair", "Crash", "Idle"]);
    }

    #[test]
    fn fn_bodies_are_ranged() {
        let src = "fn a(x: u32) -> Vec<u8> { x; } fn b() { a(1); }";
        let lexed = lex(src);
        let fs = fns(&lexed.toks);
        assert_eq!(fs.len(), 2);
        assert_eq!(fs[0].name, "a");
        assert!(lexed.toks[fs[1].body.clone()]
            .iter()
            .any(|t| t.is_ident("a")));
    }

    #[test]
    fn struct_fields_capture_types() {
        let src = "struct S { pub routes: Mutex<HashMap<u32, Addr>>, n: u64 }";
        let lexed = lex(src);
        let fields = struct_fields(&lexed.toks);
        assert_eq!(fields.len(), 2);
        assert!(fields[0].ty.contains("Mutex"));
        assert!(fields[0].ty.contains("HashMap"));
    }

    #[test]
    fn typed_lets_find_hashmaps() {
        let src = "fn f() { let mut m: HashMap<u32, u32> = HashMap::new(); let n = HashMap::with_capacity(4); let k = 3; }";
        let lexed = lex(src);
        let names = typed_lets(&lexed.toks, &["HashMap"]);
        assert_eq!(names, vec!["m", "n"]);
    }

    #[test]
    fn fn_params_are_captured() {
        let src = "fn f(&mut self, x: u32, tx: &Sender<Packet>, (a, b): (u8, u8)) -> bool { true }";
        let lexed = lex(src);
        let fs = fns(&lexed.toks);
        assert_eq!(
            fs[0].params,
            vec![
                ("x".to_string(), "u32".to_string()),
                ("tx".to_string(), "& Sender < Packet >".to_string()),
            ]
        );
    }

    #[test]
    fn impls_capture_trait_and_type() {
        let src = r#"
            impl Coordinator { fn a() {} }
            impl<M> Actor<M> for planet_mdcc::Replica { fn on_message(&mut self) {} }
            impl Display for Msg { fn fmt(&self) {} }
        "#;
        let lexed = lex(src);
        let im = impls(&lexed.toks);
        assert_eq!(im.len(), 3);
        assert_eq!(
            (im[0].ty.as_str(), im[0].trait_name.as_deref()),
            ("Coordinator", None)
        );
        assert_eq!(
            (im[1].ty.as_str(), im[1].trait_name.as_deref()),
            ("Replica", Some("Actor"))
        );
        assert_eq!(
            (im[2].ty.as_str(), im[2].trait_name.as_deref()),
            ("Msg", Some("Display"))
        );
    }

    #[test]
    fn use_decls_flatten_groups_and_aliases() {
        let src = r#"
            use planet_sim::drive_into;
            use planet_mdcc::{Msg, coordinator::Coordinator as Coord};
            use crate::plane::*;
        "#;
        let lexed = lex(src);
        let us = use_decls(&lexed.toks);
        let find = |n: &str| us.iter().find(|u| u.name == n).map(|u| u.segments.clone());
        assert_eq!(
            find("drive_into"),
            Some(vec!["planet_sim".into(), "drive_into".into()])
        );
        assert_eq!(find("Msg"), Some(vec!["planet_mdcc".into(), "Msg".into()]));
        assert_eq!(
            find("Coord"),
            Some(vec![
                "planet_mdcc".into(),
                "coordinator".into(),
                "Coordinator".into()
            ])
        );
        assert_eq!(
            find("*"),
            Some(vec!["crate".into(), "plane".into(), "*".into()])
        );
    }

    #[test]
    fn type_names_cover_structs_enums_and_traits() {
        let src = "struct A; enum B { X } trait C {} type Conn = Arc<Mutex<TcpStream>>;";
        let lexed = lex(src);
        assert_eq!(type_names(&lexed.toks), vec!["A", "B", "C"]);
    }
}
