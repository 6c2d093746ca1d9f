//! The replay contract, end to end.
//!
//! Two things make a simulator trustworthy: the same seed must produce
//! byte-identical plans, and a run that *fails* must fail identically
//! when re-driven from its exported stream alone. The second is pinned
//! with the deliberately failing `phantom-eject` scenario against a real
//! in-process server: the original run and the replay-from-file run must
//! produce byte-identical verdict text, both FAILing the same invariant.

use lre_artifact::ArtifactError;
use lre_lattice::DecodeScratch;
use lre_serve::{
    Client, EngineConfig, ScoreDetail, Scorer, ScorerHandle, Server, ServerConfig, ServerHooks,
};
use lre_trafficsim::{burst_kill, by_name, generate, phantom_eject, run, CommandStream, SimConfig};
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
            max_global_inflight: 0,
        },
        ServerHooks::default(),
    )
    .expect("server starts")
}

fn stop(addr: std::net::SocketAddr, server: Server) {
    let mut client = Client::connect(addr).expect("connect for shutdown");
    client.shutdown().expect("shutdown acknowledged");
    server.join();
}

#[test]
fn same_seed_is_byte_identical_and_survives_the_file_roundtrip() {
    let spec = burst_kill();
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
    let spec = phantom_eject();
    let stream = generate(&spec, 7);

    let server = start_mock_server();
    let addr = server.local_addr();
    let mut cfg = SimConfig::new(addr);
    cfg.tick_ms = 0;
    let original = run(&stream, &spec.invariants, &cfg);
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

    let replay = run(&replayed, &replay_spec.invariants, &cfg);
    assert!(!replay.pass);
    assert_eq!(
        replay.verdict_text, original.verdict_text,
        "a replayed failure must render the identical verdict"
    );
    stop(addr, server);
}
