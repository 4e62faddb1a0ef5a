//! Self-tests on the *real* workspace: the interprocedural graph must hold
//! the cross-crate edges the v2 per-file call graph provably could not see,
//! and the passes rooted on it must surface findings across crate
//! boundaries.

use std::collections::BTreeSet;
use std::path::Path;

use planet_check::passes::find_paths;
use planet_check::passes::panic::SCOPES;
use planet_check::passes::sync::{ATOMIC_ROLES, WAKE_TABLE};
use planet_check::{run_passes, Workspace};

fn real_workspace() -> Workspace {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    Workspace::load(&root).expect("workspace sources load")
}

/// A copy of `real`'s sources in which the one occurrence of `from` in
/// `file` reads `to`.
fn seeded_copy(real: &Workspace, file: &str, from: &str, to: &str) -> Workspace {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let sources = real.files().iter().map(|f| {
        let src = std::fs::read_to_string(root.join(&f.path)).expect("source");
        if f.path != file {
            return (f.path.clone(), src);
        }
        assert_eq!(src.matches(from).count(), 1, "{file} has one {from:?}");
        (f.path.clone(), src.replace(from, to))
    });
    Workspace::from_sources(sources.collect())
}

/// The drive loop in planet-cluster reaches, across three crates, the
/// storage hot path: `drive_task` (cluster) → `drive_into` (sim, via
/// use-path import) → `on_message` (mdcc, via the dyn-dispatch
/// approximation) → `accept_id` (storage, via the typed-receiver
/// resolution). v2 built one call graph per file, so every one of these
/// edges was invisible to it.
#[test]
fn graph_links_cluster_drive_loop_to_storage_hot_path() {
    let ws = real_workspace();
    let g = ws.graph();

    let roots = g.fn_ids("crates/cluster/src/reactor.rs", "drive_task");
    assert!(!roots.is_empty(), "drive_task must be a graph node");
    let (reach, preds) = g.reachable_with_preds(roots);

    let on_message = g.fn_ids("crates/mdcc/src/replica_actor.rs", "on_message");
    assert!(
        on_message.iter().any(|n| reach.contains(n)),
        "drive_task must reach the replica actor's on_message across crates"
    );

    let accept = g.fn_ids("crates/storage/src/replica.rs", "accept_id");
    let hit = accept.iter().copied().find(|n| reach.contains(n));
    let hit = hit.expect("drive_task must reach storage's accept_id across three crates");

    // The witness chain renders end-to-end, so diagnostics can show it.
    let chain = g.chain_text(&preds, hit);
    assert!(
        chain.contains("accept_id"),
        "chain ends at the sink: {chain}"
    );
    assert!(
        chain.contains("drive_task"),
        "chain starts at the root: {chain}"
    );
}

/// Every root the panic pass names is a function that exists under its
/// scope. The pass skips a name it cannot find without a word, so a root
/// that outlives the loop it named (as the thread-per-actor loops' names
/// did, for ten PRs after the reactor replaced them) silently audits a
/// runtime nobody runs — or nothing.
#[test]
fn every_panic_root_resolves_in_the_real_workspace() {
    let ws = real_workspace();
    for (scope, roots) in SCOPES {
        for root in *roots {
            let found = ws.files().iter().any(|file| {
                file.path.starts_with(scope) && file.fns().iter().any(|f| f.name == *root)
            });
            assert!(found, "panic root `{root}` names no function under {scope}");
        }
    }
}

/// The sync pass's tables name live code: every `ATOMIC_ROLES` entry is
/// an atomic field of its file, and every `WAKE_TABLE` rule's enqueue
/// (`recv.method(`) occurs in its file. A rule keyed on a name the code no
/// longer uses matches no site and reports nothing, as the timer-fire rules
/// keyed on `push_timer` and `fires.push_back` did once that code changed.
#[test]
fn the_sync_tables_name_live_code() {
    let ws = real_workspace();
    let file_of = |suffix: &str| {
        ws.files_under("crates/cluster/src/")
            .find(|f| f.path.ends_with(suffix))
            .unwrap_or_else(|| panic!("no crates/cluster/src/ file ends with {suffix}"))
    };
    for (suffix, name, role) in ATOMIC_ROLES {
        let file = file_of(suffix);
        assert!(
            file.fields()
                .iter()
                .any(|f| f.name == *name && f.ty.contains("Atomic")),
            "{role:?} word `{name}` is no atomic field of {}",
            file.path
        );
    }
    for rule in WAKE_TABLE {
        let file = file_of(rule.file_suffix);
        let toks = file.toks();
        let site = (2..toks.len().saturating_sub(1)).any(|k| {
            toks[k].is_ident(rule.method)
                && toks[k - 1].is_punct('.')
                && toks[k + 1].is_punct('(')
                && toks[k - 2].is_ident(rule.recv)
        });
        assert!(
            site,
            "WAKE001 rule `{}.{}(` matches nothing in {}",
            rule.recv, rule.method, file.path
        );
    }
}

/// The panic pass, re-rooted on the workspace graph, reports findings in
/// `crates/predict` — a crate with no drive-loop roots of its own,
/// reachable only through other crates' actors. A per-file graph reports
/// nothing there. The real workspace is clean, so the witness is seeded: in
/// a copy of the real sources, one slice index in the quorum DP that every
/// client's likelihood model runs fires PANIC002 in `quorum.rs`.
#[test]
fn panic_pass_reaches_rootless_crates() {
    let seeded = seeded_copy(
        &real_workspace(),
        "crates/predict/src/quorum.rs",
        "    dp.last().copied().unwrap_or(0.0)\n",
        "    dp[k]\n",
    );
    let diags = run_passes(&seeded, &["panic".to_string()]);
    assert!(
        diags
            .iter()
            .any(|d| d.code == "PANIC002" && d.file == "crates/predict/src/quorum.rs"),
        "workspace-rooted panic pass must surface the seeded crates/predict index: {diags:#?}"
    );
}

/// One coordinator FSM. `coordinator.rs` used to answer `ReadResp` and `Vote`
/// twice over — an interpreted handler and a compiled twin, picked per
/// message. Every edge of the transaction FSM has exactly one producer, so
/// a returning twin shows up here as a second name.
#[test]
fn the_coordinator_has_one_producer_per_fsm_edge() {
    let ws = real_workspace();
    let file = ws
        .file("crates/mdcc/src/coordinator.rs")
        .expect("coordinator source");
    let producers = |base: &str, variant: &str| -> Vec<&str> {
        file.fns()
            .iter()
            .filter(|f| {
                find_paths(file.toks(), f.body.clone(), base)
                    .iter()
                    .any(|hit| hit.name == variant)
            })
            .map(|f| f.name.as_str())
            .collect()
    };
    assert_eq!(producers("ProgressStage", "Started"), ["start"]);
    assert_eq!(
        producers("ProgressStage", "ReadsDone"),
        ["handle_read_resp"]
    );
    assert_eq!(producers("ProgressStage", "KeyResolved"), ["handle_vote"]);
    assert_eq!(producers("Msg", "Decide"), ["finish"]);
}

/// Every pass runs clean on the real workspace; there is no allowance
/// file. The genuine findings the passes caught (client resubmit deadline,
/// join-under-lock, unbounded socket write, slice indexing reachable from
/// the drive loop) are fixed in-tree, every atomic in the reactor runtime
/// has a declared role whose ordering contract its op sites satisfy (or a
/// stat-counter allow marker), every enqueue reaches its notify and every
/// park rechecks. A new finding fails here.
#[test]
fn every_pass_is_clean_on_the_real_workspace() {
    let ws = real_workspace();
    let diags = run_passes(&ws, &[]);
    assert!(
        diags.is_empty(),
        "findings are fixed, or their site cites its invariant in a check:allow marker: {diags:#?}"
    );
}

/// FLOW003 reads the real protocol: in a copy of the real sources with the
/// only send of `Msg::DropPending` (a master's rejected `Decide` fanning out
/// to its peers) taken out, the variant is dead wire surface and FLOW003
/// fires at its declaration. The unmodified copy stays clean.
#[test]
fn seeded_dead_drop_pending_variant_trips_flow003() {
    let real = real_workspace();
    let replica = "crates/mdcc/src/replica_actor.rs";
    let send = "            for peer in self.other_peers(ctx.self_id()) {
                ctx.send(
                    peer,
                    Msg::DropPending {
                        key: key.clone(),
                        txn,
                    },
                );
            }
";
    let flow003 = |ws: &Workspace| -> Vec<_> {
        run_passes(ws, &["flow".to_string()])
            .into_iter()
            .filter(|d| d.code == "FLOW003")
            .collect()
    };
    let clean = seeded_copy(&real, replica, send, send);
    assert_eq!(flow003(&clean).len(), 0, "the copy is clean");

    let seeded = seeded_copy(&real, replica, send, "");
    let decl = real
        .file("crates/mdcc/src/messages.rs")
        .and_then(|f| f.enum_named("Msg"))
        .and_then(|msg| msg.variants.iter().find(|v| v.name == "DropPending"))
        .expect("Msg::DropPending is declared")
        .line;
    let hits = flow003(&seeded);
    assert!(
        hits.iter().any(|d| d.file == "crates/mdcc/src/messages.rs"
            && d.line == decl
            && d.message.contains("`Msg::DropPending` is never sent")),
        "a variant nobody sends must fire FLOW003 at its declaration: {hits:#?}"
    );
}

/// Seeding a single-ordering downgrade into the *real* reactor source —
/// the parker's Dekker store knocked from SeqCst to Release, exactly the
/// bug `loom_tests::dekker_handoff_below_seqcst_is_found` demonstrates
/// dynamically — must trip ATOM002. This proves the pass reads the real
/// protocol sites, not a fixture-shaped approximation of them.
#[test]
fn seeded_parker_downgrade_trips_atom002() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let src = std::fs::read_to_string(root.join("crates/cluster/src/reactor.rs"))
        .expect("reactor source");
    let anchor = "self.parked.store(true, Ordering::SeqCst)";
    assert!(
        src.contains(anchor),
        "park_unless must publish `parked` with a SeqCst store"
    );
    let downgraded = src.replace(anchor, "self.parked.store(true, Ordering::Release)");
    let ws = Workspace::from_sources(vec![(
        "crates/cluster/src/reactor.rs".to_string(),
        downgraded,
    )]);
    let diags = run_passes(&ws, &["sync".to_string()]);
    assert!(
        diags
            .iter()
            .any(|d| d.code == "ATOM002" && d.message.contains("parked")),
        "the downgraded Dekker store must fire ATOM002: {diags:#?}"
    );
}

/// The mailbox's enqueue rule reads the real `plane.rs`: with the waker
/// taken out of the blocking send, and the run's push no longer noting its
/// instant for the run's wake, WAKE001 fires. (The rule is keyed on the
/// push's spelling, and a rewrite of the mailbox that left it keyed on the
/// old one would pass every fixture and check nothing.)
#[test]
fn seeded_mailbox_push_without_its_waker_trips_wake001() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let src =
        std::fs::read_to_string(root.join("crates/cluster/src/plane.rs")).expect("plane source");
    let hand_off = "            state.waker.clone()\n        };\n        if let Some(waker) = waker {\n            waker(at);\n        }\n";
    let noted = "        self.wake_due = Some(self.wake_due.map_or(due, |at| at.min(due)));\n";
    assert_eq!(
        src.matches(hand_off).count(),
        1,
        "the blocking send hands its packet's instant to the waker"
    );
    assert_eq!(
        src.matches(noted).count(),
        1,
        "a run's push notes its instant"
    );
    let silent = src
        .replace(hand_off, "        };\n")
        .replace(noted, "")
        .replace("let waker = {", "let _ = {");
    let ws = Workspace::from_sources(vec![("crates/cluster/src/plane.rs".to_string(), silent)]);
    let diags = run_passes(&ws, &["sync".to_string()]);
    assert!(
        diags
            .iter()
            .any(|d| d.code == "WAKE001" && d.message.contains("mailbox enqueue")),
        "an enqueue that wakes nobody must fire WAKE001: {diags:#?}"
    );
}

/// Diagnostic codes named in `text`: two or more capitals and three digits
/// (`FLOW001`), with the shorthands the docs use expanded — a range
/// `TIME001–003` (en dash or hyphen) names every code in it, and
/// `DET001/2` names `DET002` too.
fn codes_in(text: &str) -> BTreeSet<String> {
    let b = text.as_bytes();
    let mut out = BTreeSet::new();
    let mut i = 0;
    while i < b.len() {
        if !b[i].is_ascii_uppercase() || (i > 0 && b[i - 1].is_ascii_alphanumeric()) {
            i += 1;
            continue;
        }
        let p_end = i + b[i..].iter().take_while(|c| c.is_ascii_uppercase()).count();
        let d_end = p_end + b[p_end..].iter().take_while(|c| c.is_ascii_digit()).count();
        if p_end - i < 2 || d_end - p_end != 3 || b.get(d_end).is_some_and(u8::is_ascii_alphabetic)
        {
            i = p_end;
            continue;
        }
        let prefix = &text[i..p_end];
        let Ok(first) = text[p_end..d_end].parse::<u32>() else {
            i = d_end;
            continue;
        };
        out.insert(format!("{prefix}{first:03}"));
        let rest = &text[d_end..];
        let (sep, range) = match rest.chars().next() {
            Some(c @ ('–' | '-')) => (c.len_utf8(), true),
            Some('/') => (1, false),
            _ => (0, false),
        };
        let digits: String = rest[sep..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        if let (true, Ok(last)) = (sep > 0, digits.parse::<u32>()) {
            let from = if range { first + 1 } else { last };
            for n in from..=last {
                out.insert(format!("{prefix}{n:03}"));
            }
        }
        i = d_end;
    }
    out
}

/// The docs name only codes a pass can emit, and DESIGN.md names every
/// one: a deleted code fails here while any README/DESIGN sentence still
/// describes it, and a new code fails until DESIGN.md
/// describes it.
#[test]
fn docs_name_only_live_codes() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let passes = root.join("crates/check/src/passes");
    let mut live = BTreeSet::new();
    for entry in std::fs::read_dir(&passes).expect("passes dir") {
        let src = std::fs::read_to_string(entry.expect("dir entry").path()).expect("pass source");
        live.extend(
            codes_in(&src)
                .into_iter()
                .filter(|code| src.contains(&format!("\"{code}\""))),
        );
    }
    assert!(live.contains("RACE002"), "code literals found: {live:?}");

    let mut design = BTreeSet::new();
    for doc in ["README.md", "DESIGN.md"] {
        let text = std::fs::read_to_string(root.join(doc)).expect("doc");
        let named = codes_in(&text);
        let dead: Vec<_> = named.difference(&live).collect();
        assert!(dead.is_empty(), "{doc} names codes no pass emits: {dead:?}");
        if doc == "DESIGN.md" {
            design = named;
        }
    }
    let undocumented: Vec<_> = live.difference(&design).collect();
    assert!(
        undocumented.is_empty(),
        "DESIGN.md does not describe {undocumented:?}"
    );
}

#[test]
fn code_scanner_expands_ranges_and_alternatives() {
    let codes = codes_in("TIME001–003, DET001/2, ATOM001-002 and FLOW004; not G1c or WIRE1");
    let codes: Vec<&str> = codes.iter().map(String::as_str).collect();
    assert_eq!(
        codes,
        ["ATOM001", "ATOM002", "DET001", "DET002", "FLOW004", "TIME001", "TIME002", "TIME003"]
    );
}
