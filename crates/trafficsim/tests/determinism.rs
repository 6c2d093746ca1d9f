//! The replay contract, end to end.
//!
//! Two things make a simulator trustworthy: the same seed must produce
//! byte-identical plans, and a run that *fails* must fail identically
//! when re-driven from its exported stream alone. The second is pinned
//! with the deliberately failing `phantom-eject` scenario against a real
//! in-process server: the original run and the replay-from-file run, each
//! against a fresh server, must produce byte-identical verdict text, both
//! FAILing the same invariant.

use lre_artifact::ArtifactError;
use lre_lattice::DecodeScratch;
use lre_serve::{
    EngineConfig, ScoreDetail, Scorer, ScorerHandle, Server, ServerConfig, ServerHooks,
};
use lre_trafficsim::{
    builtin_scenarios, by_name, generate, run, CommandStream, ScenarioSpec, SimConfig,
};
use std::net::TcpListener;
use std::sync::Arc;

/// Flat mock: LLR `i` is `sum(samples) + i`. Always scores, never fails —
/// the point of these tests is the simulator's plumbing, not the model.
struct MockScorer;

impl Scorer for MockScorer {
    fn score_utt(
        &self,
        samples: &[f32],
        _scratch: &mut DecodeScratch,
    ) -> Result<ScoreDetail, ArtifactError> {
        let s: f32 = samples.iter().sum();
        Ok(ScoreDetail::from_fused(
            samples,
            (0..3).map(|i| s + i as f32).collect(),
        ))
    }
}

fn start_mock_server() -> Server {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    Server::start(
        listener,
        Arc::new(ScorerHandle::new(Arc::new(MockScorer), 0)),
        ServerConfig {
            engine: EngineConfig {
                workers: 2,
                queue_capacity: 64,
                unknown_threshold: None,
            },
            max_inflight: 32,
        },
        ServerHooks::default(),
    )
    .expect("server starts")
}

/// Drive `stream` against a fresh mock server; the run ends with the
/// shutdown every run sends its front door.
fn run_against_mock(stream: &CommandStream, spec: &ScenarioSpec) -> lre_trafficsim::RunReport {
    let server = start_mock_server();
    let mut spec = spec.clone();
    spec.front = None;
    let cfg = SimConfig {
        front: Some(server.local_addr()),
        tick_ms: 0,
        ..SimConfig::default()
    };
    let report = run(stream, &spec, &cfg);
    server.join();
    report
}

#[test]
fn same_seed_is_byte_identical_and_survives_the_file_roundtrip() {
    let spec = by_name("burst-kill").expect("built-in");
    let a = generate(&spec, 2026);
    let b = generate(&spec, 2026);
    assert_eq!(a.encode(), b.encode(), "same seed must give the same bytes");
    assert_eq!(a.crc32(), b.crc32());

    let path = std::env::temp_dir().join(format!(
        "lre-trafficsim-roundtrip-{}.simp",
        std::process::id()
    ));
    std::fs::write(&path, a.encode()).expect("write stream");
    let back = CommandStream::decode(&std::fs::read(&path).expect("read stream"))
        .expect("exported stream decodes");
    std::fs::remove_file(&path).ok();
    assert_eq!(back, a, "decode(encode(stream)) must be the identity");
    assert_eq!(back.encode(), a.encode(), "re-encode must be byte-stable");
}

#[test]
fn a_violated_invariant_reproduces_from_the_exported_replay_alone() {
    // phantom-eject demands an `eject` flight event but never kills a
    // replica, so it fails deterministically — the pinned proof that a
    // red run stays red on replay.
    let spec = by_name("phantom-eject").expect("built-in");
    let stream = generate(&spec, 7);

    let original = run_against_mock(&stream, &spec);
    assert!(!original.pass, "phantom-eject must fail");
    assert!(
        original.verdict_text.contains("FAIL flight:eject"),
        "wrong failure:\n{}",
        original.verdict_text
    );
    assert!(
        original.verdict_text.contains("PASS min-completed"),
        "the mock server should have scored the traffic:\n{}",
        original.verdict_text
    );
    assert!(
        original.verdict_text.contains("PASS clean-exit"),
        "the mock server must have acknowledged the closing shutdown:\n{}",
        original.verdict_text
    );
    assert!(original.verdict_text.ends_with("result=FAIL\n"));

    // Export, reload, and re-drive from the file alone — scenario name,
    // seed, and invariants all come from the stream itself.
    let path =
        std::env::temp_dir().join(format!("lre-trafficsim-replay-{}.simp", std::process::id()));
    std::fs::write(&path, stream.encode()).expect("export stream");
    let replayed = CommandStream::decode(&std::fs::read(&path).expect("read replay"))
        .expect("replay file decodes");
    std::fs::remove_file(&path).ok();
    let replay_spec = by_name(&replayed.scenario).expect("stream names a builtin scenario");
    assert_eq!(replay_spec.invariants, spec.invariants);

    let replay = run_against_mock(&replayed, &replay_spec);
    assert!(!replay.pass);
    assert_eq!(
        replay.verdict_text, original.verdict_text,
        "a replayed failure must render the identical verdict"
    );
}

#[test]
fn list_shows_every_embedded_scenario() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_lre-trafficsim"))
        .arg("--list")
        .output()
        .expect("lre-trafficsim --list runs");
    assert!(out.status.success());
    let listed: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| l.split_whitespace().next().map(str::to_string))
        .collect();
    let names: Vec<String> = builtin_scenarios().into_iter().map(|s| s.name).collect();
    assert_eq!(listed, names);
}
