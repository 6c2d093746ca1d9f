//! Two-phase rollout against a real fleet: three in-process `lre-serve`
//! replicas (mock scorers behind the real server, engine, and wire
//! protocol) coordinated by `two_phase_promote` / `rollback_backends`.
//!
//! The properties under test are the fleet generation's atomicity: a
//! promotion flips every replica or none, a stage refusal anywhere
//! leaves every replica serving the baseline untouched, and a rollback
//! (voluntary or forced by a replica dying between stage and commit)
//! restores baseline scores bit-for-bit (`f32::to_bits` equality).

use lre_artifact::{crc32, ArtifactError};
use lre_lattice::DecodeScratch;
use lre_router::{rollback_backends, two_phase_promote, Backend, RouterObs};
use lre_serve::protocol::{
    decode_request, encode_ok, read_frame, write_frame, Request, StageAck, STATUS_CONFLICT,
};
use lre_serve::{
    Client, EngineConfig, FleetReplica, ScoreDetail, ScoreReply, Scorer, ScorerHandle, Server,
    ServerConfig, ServerHooks, VoteLog,
};
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

/// Sealed candidates are two bytes — `[b'M', v]` — accepted by the mock
/// validator; real bundle decode is covered by the CI fleet smoke.
fn candidate(v: u8) -> Vec<u8> {
    vec![b'M', v]
}

fn start_replica(accepts_candidates: bool) -> (Server, String) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind replica");
    let handle = Arc::new(ScorerHandle::new(Arc::new(Marker(BASELINE)), 0xB00B_5EED));
    let hooks = ServerHooks::default();
    let log = Arc::new(VoteLog::new(16));
    let mut replica = FleetReplica::new(Arc::clone(&handle), log, Arc::clone(&hooks.obs.flight));
    if accepts_candidates {
        replica.set_validator(|sealed| match sealed {
            [b'M', v] => Ok(candidate_scorer(*v)),
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
    let hooks = ServerHooks {
        fleet: Some(Arc::new(replica)),
        ..hooks
    };
    let server = Server::start(listener, handle, cfg, hooks).expect("start replica");
    let addr = server.local_addr().to_string();
    (server, addr)
}

fn start_fleet(accepting: &[bool]) -> (Vec<Server>, Vec<String>, Vec<Arc<Backend>>) {
    let mut servers = Vec::new();
    let mut addrs = Vec::new();
    for &a in accepting {
        let (server, addr) = start_replica(a);
        servers.push(server);
        addrs.push(addr);
    }
    let obs = RouterObs::new(8);
    let backends = addrs
        .iter()
        .map(|a| Arc::new(Backend::new(a.clone(), &obs)))
        .collect();
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
    let generation = two_phase_promote(&backends, &sealed, crc32(&sealed));
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
        two_phase_promote(&backends, &sealed, crc32(&sealed)),
        Some(2)
    );
    for addr in &addrs {
        assert_eq!(score_bits(addr), expected_bits(11));
        assert_eq!(generation_of(addr), 2);
    }
    drop(baseline);
}

#[test]
fn stage_refusal_anywhere_leaves_the_whole_fleet_on_the_baseline() {
    // Replica 1 refuses every candidate; replica 0 stages first and must
    // be aborted, replica 2 must never even see the stage.
    let (_servers, addrs, backends) = start_fleet(&[true, false, true]);
    let baseline: Vec<Vec<u32>> = addrs.iter().map(|a| score_bits(a)).collect();

    let sealed = candidate(4);
    assert_eq!(two_phase_promote(&backends, &sealed, crc32(&sealed)), None);

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
        two_phase_promote(&backends, &sealed, crc32(&sealed)),
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
                    checksum: crc32(&sealed),
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
    let dropper = Backend::new(spawn_commit_dropper(), &RouterObs::new(8));
    backends.push(Arc::new(dropper));

    let sealed = candidate(5);
    assert_eq!(
        two_phase_promote(&backends, &sealed, crc32(&sealed)),
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
