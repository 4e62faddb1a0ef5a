//! Exhaustive wire-codec round-trip: every `Msg` variant crosses
//! encode/decode and the framed reader/writer unchanged.
//!
//! Two enforcement layers, so codec drift fails CI with the variant named:
//!
//! 1. `variant_name` is an exhaustive `match` with no wildcard — adding a
//!    `Msg` variant breaks this test's build until it is listed here.
//! 2. The coverage test parses `crates/mdcc/src/messages.rs` at run time and
//!    asserts a round-tripped sample exists for every declared variant — so
//!    listing a variant without actually round-tripping it also fails, by
//!    name.

use planet_cluster::transport::Envelope;
use planet_cluster::wire::{decode, encode, write_frame, FrameReader};
use planet_mdcc::{KeyRead, Msg, Outcome, ProgressStage, ReadLevel, TxnSpec, TxnStats};
use planet_plan::{KeyRef, KeyTemplate, OpTemplate, PlanParam, TxnProgram};
use planet_sim::{ActorId, SimTime, SiteId};
use planet_storage::{Key, RecordOption, RejectReason, TxnId, Value, WriteOp};

fn variant_name(msg: &Msg) -> &'static str {
    match msg {
        Msg::Submit { .. } => "Submit",
        Msg::ReadReq { .. } => "ReadReq",
        Msg::FastPropose { .. } => "FastPropose",
        Msg::Propose { .. } => "Propose",
        Msg::Replicate { .. } => "Replicate",
        Msg::Decide { .. } => "Decide",
        Msg::ReadResp { .. } => "ReadResp",
        Msg::Vote { .. } => "Vote",
        Msg::ReplicateAck { .. } => "ReplicateAck",
        Msg::Apply { .. } => "Apply",
        Msg::DropPending { .. } => "DropPending",
        Msg::Progress { .. } => "Progress",
        Msg::TxnDone { .. } => "TxnDone",
        Msg::Crash => "Crash",
        Msg::Recover => "Recover",
        Msg::ReplicaServiceDone => "ReplicaServiceDone",
        Msg::TxnTimeout { .. } => "TxnTimeout",
        Msg::ClientTimer { .. } => "ClientTimer",
        Msg::RegisterPlan { .. } => "RegisterPlan",
        Msg::SubmitPlan { .. } => "SubmitPlan",
        Msg::PlanReady { .. } => "PlanReady",
    }
}

fn option() -> RecordOption {
    RecordOption::new(
        TxnId::new(3, 41),
        9,
        WriteOp::Add {
            delta: -2,
            lower: Some(0),
            upper: Some(500),
        },
    )
}

fn reads() -> Vec<KeyRead> {
    vec![
        KeyRead {
            key: Key::new("alpha"),
            version: 12,
            value: Value::Int(-7),
            pending: 2,
        },
        KeyRead {
            key: Key::new("beta"),
            version: 0,
            value: Value::None,
            pending: 0,
        },
        KeyRead {
            key: Key::new("gamma"),
            version: 3,
            value: Value::bytes(&b"payload"[..]),
            pending: 1,
        },
    ]
}

/// One representative (payload-rich) sample per `Msg` variant, plus extra
/// payload shapes for variants with interesting branches.
fn samples() -> Vec<Msg> {
    let txn = TxnId::new(1, 99);
    vec![
        Msg::Submit {
            spec: TxnSpec {
                reads: vec![Key::new("r")],
                writes: vec![
                    (Key::new("w1"), WriteOp::Set(Value::Int(5))),
                    (Key::new("w2"), WriteOp::Delete),
                    (Key::new("w3"), WriteOp::add(7)),
                ],
                read_level: ReadLevel::Quorum,
            },
            reply_to: ActorId(17),
            tag: 0xDEAD_BEEF,
        },
        Msg::ReadReq {
            txn,
            keys: vec![Key::new("a"), Key::new("b")],
        },
        Msg::FastPropose {
            txn,
            key: Key::new("k"),
            option: option(),
            round: 2,
        },
        Msg::Propose {
            txn,
            key: Key::new("k"),
            option: option(),
            coordinator: ActorId(4),
            round: 1,
        },
        Msg::Replicate {
            txn,
            key: Key::new("k"),
            option: option(),
            coordinator: ActorId(4),
            master: ActorId(8),
            round: 0,
        },
        Msg::Decide {
            txn,
            key: Key::new("k"),
            option: option(),
            commit: true,
        },
        Msg::ReadResp {
            txn,
            results: reads(),
        },
        Msg::Vote {
            txn,
            key: Key::new("k"),
            site: SiteId(3),
            accept: false,
            reason: Some(RejectReason::StaleVersion {
                expected: 4,
                actual: 6,
            }),
            round: 1,
        },
        Msg::Vote {
            txn,
            key: Key::new("k"),
            site: SiteId(0),
            accept: true,
            reason: None,
            round: 0,
        },
        Msg::Vote {
            txn,
            key: Key::new("k"),
            site: SiteId(1),
            accept: false,
            reason: Some(RejectReason::PendingConflict {
                holder: TxnId::new(7, 7),
            }),
            round: 3,
        },
        Msg::ReplicateAck {
            txn,
            key: Key::new("k"),
            site: SiteId(2),
        },
        Msg::Apply {
            key: Key::new("k"),
            version: 44,
            value: Value::bytes(&b"v"[..]),
            txn,
        },
        Msg::DropPending {
            key: Key::new("k"),
            txn,
        },
        Msg::Progress {
            tag: 5,
            txn,
            stage: ProgressStage::Started,
        },
        Msg::Progress {
            tag: 5,
            txn,
            stage: ProgressStage::ReadsDone { reads: reads() },
        },
        Msg::Progress {
            tag: 5,
            txn,
            stage: ProgressStage::Vote {
                key: Key::new("k"),
                site: SiteId(4),
                accept: false,
                reason: Some(RejectReason::BoundViolation),
                elapsed_us: 12_345,
            },
        },
        Msg::Progress {
            tag: 5,
            txn,
            stage: ProgressStage::KeyFallback { key: Key::new("k") },
        },
        Msg::Progress {
            tag: 5,
            txn,
            stage: ProgressStage::KeyResolved {
                key: Key::new("k"),
                accepted: true,
            },
        },
        Msg::TxnDone {
            tag: 5,
            txn,
            outcome: Outcome::TimedOut,
            stats: TxnStats {
                submitted_at: SimTime::from_micros(1_000),
                decided_at: SimTime::from_micros(9_999),
                proposals_sent_at: SimTime::from_micros(4_000),
                write_keys: 3,
                votes_received: 8,
                rejections: 1,
            },
        },
        Msg::RegisterPlan {
            plan: 7,
            program: {
                let mut p = TxnProgram::new("wire-sample");
                let stock = p.intern(Key::new("stock:1"));
                p = p
                    .read(KeyRef::Fixed(stock))
                    .write(
                        KeyRef::Param(0),
                        OpTemplate::Add {
                            delta: planet_plan::DeltaRef::Const(-1),
                            lower: Some(0),
                            upper: None,
                        },
                    )
                    .write(
                        KeyRef::Derived(KeyTemplate::new().lit("order:").param(1)),
                        OpTemplate::SetParam(1),
                    )
                    .quorum_reads();
                p
            },
            reply_to: ActorId(17),
        },
        Msg::SubmitPlan {
            plan: 7,
            params: vec![PlanParam::Key(0), PlanParam::Int(-42)],
            reply_to: ActorId(17),
            tag: 0xCAFE,
        },
        Msg::PlanReady { plan: 7 },
        Msg::Crash,
        Msg::Recover,
        Msg::ReplicaServiceDone,
        Msg::TxnTimeout { txn },
        Msg::ClientTimer {
            kind: 2,
            tag: 0xFFFF_FFFF_FFFF_FFFF,
        },
    ]
}

fn envelope(msg: Msg) -> Envelope {
    Envelope {
        from: ActorId(11),
        to: ActorId(23),
        msg,
    }
}

/// Variant names declared by `pub enum Msg` in the protocol source, parsed
/// from the file itself so the test cannot drift from the real enum.
fn declared_variants() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../mdcc/src/messages.rs");
    let src = std::fs::read_to_string(path).expect("read messages.rs");
    let start = src.find("pub enum Msg").expect("Msg enum present");
    let body_start = src[start..].find('{').expect("enum body") + start + 1;
    let mut depth = 1usize;
    let mut variants = Vec::new();
    for line in src[body_start..].lines() {
        let trimmed = line.trim();
        if depth == 1
            && trimmed
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_uppercase())
        {
            let name: String = trimmed
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric())
                .collect();
            variants.push(name);
        }
        for c in trimmed.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        return variants;
                    }
                }
                _ => {}
            }
        }
    }
    variants
}

#[test]
fn every_msg_variant_round_trips() {
    for msg in samples() {
        let name = variant_name(&msg);
        let env = envelope(msg);
        let encoded = encode(&env);
        let decoded =
            decode(&encoded).unwrap_or_else(|e| panic!("decode failed for Msg::{name}: {e:?}"));
        assert_eq!(
            format!("{env:?}"),
            format!("{decoded:?}"),
            "round-trip mismatch for Msg::{name}"
        );
    }
}

#[test]
fn every_msg_variant_round_trips_framed() {
    // All samples through one stream: framing must preserve boundaries.
    let envs: Vec<Envelope> = samples().into_iter().map(envelope).collect();
    let mut stream = Vec::new();
    for env in &envs {
        write_frame(&mut stream, env).expect("write frame");
    }
    let mut cursor = std::io::Cursor::new(stream);
    let mut reader = FrameReader::new();
    for env in &envs {
        let name = variant_name(&env.msg);
        let got = reader
            .next_frame(&mut cursor)
            .unwrap_or_else(|e| panic!("read frame failed for Msg::{name}: {e}"))
            .unwrap_or_else(|| panic!("premature EOF before Msg::{name}"));
        assert_eq!(format!("{env:?}"), format!("{got:?}"), "Msg::{name}");
    }
    assert!(reader
        .next_frame(&mut cursor)
        .expect("trailing read")
        .is_none());
}

#[test]
fn samples_cover_every_declared_variant() {
    let declared = declared_variants();
    assert!(
        declared.len() >= 18,
        "suspiciously few Msg variants parsed: {declared:?}"
    );
    let covered: std::collections::BTreeSet<&str> = samples().iter().map(variant_name).collect();
    for variant in &declared {
        assert!(
            covered.contains(variant.as_str()),
            "Msg::{variant} is declared in messages.rs but has no round-trip \
             sample in wire_roundtrip.rs — add one (and codec arms if missing)"
        );
    }
}
