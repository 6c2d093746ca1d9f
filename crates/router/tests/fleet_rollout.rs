//! Two-phase rollout against a real fleet: in-process `lre-serve`
//! replicas (mock scorers behind the real server, engine, and wire
//! protocol) reached through the router's `Backend`s and coordinated by
//! `lre_adapt::{two_phase_promote, rollback_backends}`.
//!
//! The properties under test are the fleet generation's atomicity: a
//! promotion flips every replica or none, a stage refusal anywhere
//! leaves every replica serving the baseline untouched, and a rollback
//! (voluntary or forced by a replica dying between stage and commit)
//! restores baseline scores bit-for-bit (`f32::to_bits` equality) — for
//! a TCP replica and an in-process one alike. Scores routed over two such
//! replicas come back with the span the replica's engine minted.

use lre_adapt::{rollback_backends, two_phase_promote};
use lre_artifact::{bundle_checksum, ArtifactError};
use lre_lattice::DecodeScratch;
use lre_obs::{Registry, STAGE_QUEUE, STAGE_REPLY};
use lre_router::{Backend, Router, RouterConfig, RouterObs};
use lre_serve::protocol::{
    decode_request, encode_ok, read_frame, write_frame, Request, StageAck, STATUS_CONFLICT,
};
use lre_serve::{
    vote_wal_options, Client, DrainPath, EngineConfig, FleetControl, FleetReplica, ScoreDetail,
    ScoreReply, ScoreTap, Scorer, ScorerHandle, Server, ServerConfig, ServerHooks, VoteLog,
};
use lre_vsm::SparseVec;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;

/// Constant-output mock scorer: the identity of the serving model is its
/// one llr value, so bit-identity checks reduce to `to_bits` equality.
struct Marker(f32);

impl Scorer for Marker {
    fn score_utt(
        &self,
        samples: &[f32],
        _scratch: &mut DecodeScratch,
    ) -> Result<ScoreDetail, ArtifactError> {
        Ok(ScoreDetail::from_fused(samples, vec![self.0, -self.0]))
    }
}

/// A value with plenty of set mantissa bits, so "bit-identical" is a
/// stronger claim than "roughly equal".
const BASELINE: f32 = 0.062_537_5;

fn candidate_scorer(v: u8) -> Arc<dyn Scorer> {
    Arc::new(Marker(f32::from(v) * 0.187_5 - 2.518_3))
}

/// Sealed candidates are one-byte `MOCK` containers accepted by the mock
/// validator; real bundle decode is covered by the CI fleet smoke. Two
/// candidates differ in their payload byte, so in their checksums too.
fn candidate(v: u8) -> Vec<u8> {
    lre_artifact::seal(*b"MOCK", 1, &[v])
}

/// A served replica's vote log over a scratch WAL, as `lre-serve --fleet`
/// without `--wal-dir` builds it.
fn scratch_log(registry: &Registry) -> VoteLog {
    VoteLog::new(16, DrainPath::Wire, vote_wal_options(), registry).expect("scratch vote WAL opens")
}

/// A served replica and the same `FleetReplica` in process. Its scratch
/// vote window goes when the last of the two drops.
fn start_replica(accepts_candidates: bool) -> (Server, String, Arc<FleetReplica>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind replica");
    let handle = Arc::new(ScorerHandle::new(Arc::new(Marker(BASELINE)), 0xB00B_5EED));
    let hooks = ServerHooks::default();
    let log = Arc::new(scratch_log(&hooks.obs.registry));
    let mut replica = FleetReplica::new(Arc::clone(&handle), log, Arc::clone(&hooks.obs.flight));
    if accepts_candidates {
        replica.set_validator(|sealed| match lre_artifact::open(sealed, *b"MOCK", 1) {
            Ok([v]) => Ok(candidate_scorer(*v)),
            _ => Err(STATUS_CONFLICT),
        });
    } else {
        replica.set_validator(|_| Err(STATUS_CONFLICT));
    }
    let cfg = ServerConfig {
        engine: EngineConfig {
            workers: 1,
            queue_capacity: 32,
            unknown_threshold: None,
        },
        ..ServerConfig::default()
    };
    let replica = Arc::new(replica);
    let hooks = ServerHooks {
        fleet: Some(Arc::clone(&replica) as _),
        ..hooks
    };
    let server = Server::start(listener, handle, cfg, hooks).expect("start replica");
    let addr = server.local_addr().to_string();
    (server, addr, replica)
}

/// The router's view of the replica at `addr`.
fn remote(addr: &str) -> Arc<dyn FleetControl> {
    Arc::new(Backend::new(addr.to_string(), &RouterObs::new(8)))
}

type Fleet = (Vec<Server>, Vec<String>, Vec<Arc<dyn FleetControl>>);

fn start_fleet(accepting: &[bool]) -> Fleet {
    let mut servers = Vec::new();
    let mut addrs = Vec::new();
    for &a in accepting {
        let (server, addr, _) = start_replica(a);
        servers.push(server);
        addrs.push(addr);
    }
    let backends = addrs.iter().map(|a| remote(a)).collect();
    (servers, addrs, backends)
}

/// Score through the replica's real wire path and return the llr bits.
fn score_bits(addr: &str) -> Vec<u32> {
    let mut client = Client::connect(addr).expect("connect");
    match client.score(&[0.5f32; 8]).expect("score") {
        ScoreReply::Scored(s) => s.llrs.iter().map(|x| x.to_bits()).collect(),
        other => panic!("score refused: {other:?}"),
    }
}

fn generation_of(addr: &str) -> u64 {
    Client::connect(addr)
        .expect("connect")
        .ping()
        .expect("ping")
        .generation
}

fn expected_bits(v: u8) -> Vec<u32> {
    let mut scratch = DecodeScratch::new();
    candidate_scorer(v)
        .score_utt(&[], &mut scratch)
        .unwrap()
        .fused
        .iter()
        .map(|x| x.to_bits())
        .collect()
}

#[test]
fn promote_flips_every_replica_or_none() {
    let (_servers, addrs, backends) = start_fleet(&[true, true, true]);
    let baseline: Vec<Vec<u32>> = addrs.iter().map(|a| score_bits(a)).collect();

    let sealed = candidate(9);
    let generation = two_phase_promote(&backends, &sealed, bundle_checksum(&sealed));
    assert_eq!(generation, Some(1), "every replica commits exactly once");

    for addr in &addrs {
        assert_eq!(
            score_bits(addr),
            expected_bits(9),
            "replica serves the candidate"
        );
        assert_eq!(generation_of(addr), 1);
    }

    // A second round stacks on the first: the fleet flips together again.
    let sealed = candidate(11);
    assert_eq!(
        two_phase_promote(&backends, &sealed, bundle_checksum(&sealed)),
        Some(2)
    );
    for addr in &addrs {
        assert_eq!(score_bits(addr), expected_bits(11));
        assert_eq!(generation_of(addr), 2);
    }
    drop(baseline);
}

/// The stage ack is an identity check: bytes one payload byte away from
/// the candidate the coordinator named stage fine on every replica, but
/// their acks name other bytes, so no replica flips and each staged copy
/// is aborted.
#[test]
fn a_stage_of_bytes_one_payload_byte_away_is_refused_by_its_ack() {
    let (_servers, addrs, backends) = start_fleet(&[true, true]);
    let baseline: Vec<Vec<u32>> = addrs.iter().map(|a| score_bits(a)).collect();
    let (named, staged) = (candidate(8), candidate(9));
    assert_ne!(bundle_checksum(&named), bundle_checksum(&staged));
    assert_eq!(
        two_phase_promote(&backends, &staged, bundle_checksum(&named)),
        None
    );
    for (addr, base) in addrs.iter().zip(&baseline) {
        assert_eq!(&score_bits(addr), base, "baseline scores disturbed");
        assert_eq!(generation_of(addr), 0, "no replica may have flipped");
        let mut client = Client::connect(addr).expect("connect");
        assert_eq!(client.commit_staged().expect("io"), Err(STATUS_CONFLICT));
    }
    assert_eq!(
        two_phase_promote(&backends, &staged, bundle_checksum(&staged)),
        Some(1)
    );
}

#[test]
fn stage_refusal_anywhere_leaves_the_whole_fleet_on_the_baseline() {
    // Replica 1 refuses every candidate; replica 0 stages first and must
    // be aborted, replica 2 must never even see the stage.
    let (_servers, addrs, backends) = start_fleet(&[true, false, true]);
    let baseline: Vec<Vec<u32>> = addrs.iter().map(|a| score_bits(a)).collect();

    let sealed = candidate(4);
    assert_eq!(
        two_phase_promote(&backends, &sealed, bundle_checksum(&sealed)),
        None
    );

    for (addr, base) in addrs.iter().zip(&baseline) {
        assert_eq!(&score_bits(addr), base, "baseline scores disturbed");
        assert_eq!(generation_of(addr), 0, "no replica may have flipped");
    }
    // The abort really discarded replica 0's staged copy: a commit now
    // is a conflict, not a stray late flip.
    let mut client = Client::connect(&addrs[0]).expect("connect");
    assert_eq!(client.commit_staged().expect("io"), Err(STATUS_CONFLICT));
}

#[test]
fn rollback_restores_the_baseline_bit_identically_fleet_wide() {
    let (_servers, addrs, backends) = start_fleet(&[true, true, true]);
    let baseline: Vec<Vec<u32>> = addrs.iter().map(|a| score_bits(a)).collect();

    let sealed = candidate(7);
    assert_eq!(
        two_phase_promote(&backends, &sealed, bundle_checksum(&sealed)),
        Some(1)
    );
    for addr in &addrs {
        assert_ne!(
            &score_bits(addr),
            &baseline[0],
            "promotion changed the scores"
        );
    }

    let ack = rollback_backends(&backends);
    assert!(ack.rolled, "every replica reports a successful rollback");
    assert_eq!(
        ack.generation, 2,
        "rollback is a new generation, never a rewind"
    );
    for (addr, base) in addrs.iter().zip(&baseline) {
        assert_eq!(&score_bits(addr), base, "rollback must be bit-identical");
    }

    // One-deep: a second rollback has nothing left to restore.
    assert!(!rollback_backends(&backends).rolled);
}

#[test]
fn every_routed_reply_carries_the_span_its_replica_minted() {
    let (servers, addrs, _) = start_fleet(&[true, true]);
    let obs = RouterObs::new(8);
    let backends = addrs
        .iter()
        .map(|a| Arc::new(Backend::new(a.clone(), &obs)))
        .collect();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind router");
    let router =
        Router::start(listener, backends, RouterConfig::default(), None, obs).expect("router");
    let mut client = Client::connect(router.local_addr()).expect("connect");

    let utts: Vec<Vec<f32>> = (0..16).map(|n| vec![n as f32; 8]).collect();
    let baseline = vec![BASELINE.to_bits(), (-BASELINE).to_bits()];
    let mut trace_ids = std::collections::HashSet::new();
    for window in [1, 8] {
        let replies = client
            .score_all(&utts, window, None)
            .expect("routed scores");
        for (n, reply) in replies.iter().enumerate() {
            let ScoreReply::Scored(scored) = reply else {
                panic!("window {window}, utt {n}: refused {reply:?}");
            };
            let bits: Vec<u32> = scored.llrs.iter().map(|x| x.to_bits()).collect();
            assert_eq!(bits, baseline, "window {window}, utt {n}");
            let span = &scored.span;
            assert_ne!(span.trace_id, 0, "window {window}, utt {n}");
            assert!(span.is_well_formed(), "window {window}, utt {n}: {span:?}");
            assert_eq!(span.stages.first().map(|m| m.0), Some(STAGE_QUEUE));
            assert_eq!(span.stages.last().map(|m| m.0), Some(STAGE_REPLY));
            trace_ids.insert(span.trace_id);
        }
    }
    assert_eq!(trace_ids.len(), 2 * utts.len(), "one trace id per request");

    drop(client);
    router.stop();
    for server in servers {
        server.stop();
        server.join();
    }
}

/// A replica stand-in that validates and ACKs a stage (a real checksum
/// over the sealed bytes) but drops the connection on commit — the
/// "died between the phases" failure the coordinator must undo.
fn spawn_commit_dropper() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind dropper");
    let addr = listener.local_addr().expect("local addr").to_string();
    thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(stream) = conn else { continue };
            thread::spawn(move || serve_dropper_conn(stream));
        }
    });
    addr
}

fn serve_dropper_conn(mut stream: TcpStream) {
    while let Ok(Some(frame)) = read_frame(&mut stream) {
        match decode_request(&frame) {
            Ok(Request::StageBundle { sealed }) => {
                let reply = encode_ok(&StageAck {
                    checksum: bundle_checksum(&sealed),
                });
                if write_frame(&mut stream, &reply).is_err() {
                    return;
                }
            }
            // Commit (or anything else): die without a reply.
            _ => return,
        }
    }
}

#[test]
fn mid_commit_death_rolls_back_the_replicas_that_already_flipped() {
    let (_servers, addrs, mut backends) = start_fleet(&[true, true]);
    let baseline: Vec<Vec<u32>> = addrs.iter().map(|a| score_bits(a)).collect();
    // The dropper is last in fleet order, so both real replicas commit
    // before the coordinator discovers the death and must undo them.
    backends.push(remote(&spawn_commit_dropper()));

    let sealed = candidate(5);
    assert_eq!(
        two_phase_promote(&backends, &sealed, bundle_checksum(&sealed)),
        None,
        "a death between the phases fails the round"
    );

    for (addr, base) in addrs.iter().zip(&baseline) {
        assert_eq!(
            &score_bits(addr),
            base,
            "committed replicas must be rolled back to baseline bits"
        );
        // Commit then forced rollback: two generation bumps, zero net
        // model change.
        assert_eq!(generation_of(addr), 2);
    }
}

/// One coordinator seam for both kinds of replica: an in-process
/// `FleetReplica` first, TCP backends behind it. A stage refusal behind
/// the local replica must abort its staged copy, and a death between the
/// phases must roll its commit back.
#[test]
fn mixed_fleet_abort_and_undo_reach_the_in_process_replica() {
    let (_local_server, local_addr, local) = start_replica(true);
    let baseline = score_bits(&local_addr);

    let (_refusing, refusing_addr, _) = start_replica(false);
    let fleet: Vec<Arc<dyn FleetControl>> = vec![local.clone(), remote(&refusing_addr)];
    let sealed = candidate(4);
    assert_eq!(
        two_phase_promote(&fleet, &sealed, bundle_checksum(&sealed)),
        None
    );
    assert_eq!(local.commit(), Err(STATUS_CONFLICT), "local stage aborted");
    assert_eq!(local.generation(), 0);
    assert_eq!(score_bits(&local_addr), baseline);

    let (_accepting, addr, _) = start_replica(true);
    let fleet: Vec<Arc<dyn FleetControl>> = vec![
        local.clone(),
        remote(&addr),
        remote(&spawn_commit_dropper()),
    ];
    let sealed = candidate(5);
    assert_eq!(
        two_phase_promote(&fleet, &sealed, bundle_checksum(&sealed)),
        None
    );
    for a in [&local_addr, &addr] {
        assert_eq!(score_bits(a), baseline, "commit undone bit-identically");
        // Commit then forced rollback: two generation bumps.
        assert_eq!(generation_of(a), 2);
    }
    assert_eq!(local.generation(), 2);
}

/// A vote window that seals past one frame used to be sealed whole, then
/// refused by the router's `read_frame` after the replica had already
/// emptied its log, and lost. A served replica's log (`DrainPath::Wire`)
/// now admits no more than one drain reply can carry, so a drain through
/// the router returns every record it admitted.
#[test]
fn a_multi_megabyte_window_drains_whole_through_the_router() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind replica");
    let handle = Arc::new(ScorerHandle::new(Arc::new(Marker(BASELINE)), 0xB00B_5EED));
    let hooks = ServerHooks::default();
    let log = Arc::new(scratch_log(&hooks.obs.registry));
    let replica = FleetReplica::new(
        Arc::clone(&handle),
        Arc::clone(&log),
        Arc::clone(&hooks.obs.flight),
    );
    let hooks = ServerHooks {
        fleet: Some(Arc::new(replica) as _),
        ..hooks
    };
    let server = Server::start(listener, handle, ServerConfig::default(), hooks).expect("start");

    // Three selectable 6 MB votes: 18 MB do not fit one 16 MiB frame.
    const NNZ: u32 = 750_000;
    let big = |digest| ScoreDetail {
        digest,
        num_frames: 75,
        duration_index: 0,
        generation: 0,
        fused: vec![1.0, -1.0],
        subsystem_scores: vec![vec![1.0, -1.0]],
        supervectors: vec![SparseVec::from_parts(
            (0..NNZ).collect(),
            vec![0.5; NNZ as usize],
        )],
        stage_us: Default::default(),
        stage_done: None,
    };
    for digest in 1..=3 {
        log.record(big(digest));
    }
    let admitted = log.len();
    assert_eq!(
        (admitted, log.dropped()),
        (2, 1),
        "the third vote is over the bound"
    );

    let drained = remote(&server.local_addr().to_string())
        .drain_votes(false, 1)
        .expect("the window drains");
    let digests: Vec<u64> = drained.iter().map(|r| r.digest).collect();
    assert_eq!(digests, vec![1, 2]);
    assert!(drained
        .iter()
        .all(|r| r.supervectors[0].nnz() == NNZ as usize));
    assert!(log.is_empty());
}
