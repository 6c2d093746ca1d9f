//! End-to-end online adaptation acceptance: serve a trained bundle, stream
//! the full test pool through it over TCP, run one adaptation cycle, and
//! require the post-swap served LLRs to be **bit-identical** to an offline
//! `run_dba` (M1, same V) over the same utterances — the contract that the
//! online loop is the offline boosting round, not an approximation of it.
//!
//! The second test forces the eval guard to reject (negative regression
//! slack) and requires the serving generation, checksum, and scores to be
//! untouched — a rejected candidate must leave no trace in serving.
//!
//! Like `lre-serve`'s `serve_roundtrip`, these build the full smoke-scale
//! experiment (minutes in release), shared through a `OnceLock`, so they
//! are `#[ignore]` by default:
//!
//! ```text
//! cargo test --release -p lre-adapt --test online_adaptation -- --ignored
//! ```

use lre_adapt::{bundle_checksum, AdaptConfig, AdaptController, VoteLog};
use lre_artifact::{ArtifactRead, ArtifactWrite};
use lre_corpus::{render_utterance, Duration, Scale};
use lre_dba::{run_dba, DbaVariant, Experiment, ExperimentConfig, GuardSet};
use lre_eval::ScoreMatrix;
use lre_serve::client::ScoreReply;
use lre_serve::protocol::STATUS_CONFLICT;
use lre_serve::{
    vote_wal_options, Client, EngineConfig, ScorerHandle, ScoringSystem, Server, ServerConfig,
    ServerHooks, SystemBundle, ADAPT_PROMOTED, ADAPT_REJECTED_GUARD,
};
use lre_wal::{LineageStore, WalObs};
use std::net::TcpListener;
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// Every utterance is selected at V = 1 (each subsystem always casts one
/// vote), so the cycle is deterministic at any pool size — the test pins
/// the vote rule's plumbing, not a particular selection frontier.
const V: u8 = 1;

/// One smoke-scale training run shared by both tests: the client-side
/// waveforms in duration-major order, the sealed bundle and guard set, and
/// the offline references the served scores must hit to the bit.
struct Fixture {
    /// `[duration][utt]` raw waveforms, exactly as a client holds them.
    waves: Vec<Vec<Vec<f32>>>,
    bytes: Vec<u8>,
    guard_bytes: Vec<u8>,
    /// Fused baseline scores per duration (pre-adaptation serving).
    expected_baseline: Vec<ScoreMatrix>,
    /// Fused scores per duration after an offline `run_dba` (M1, V) round
    /// — what serving must produce once the online cycle promotes.
    expected_adapted: Vec<ScoreMatrix>,
    offline_selected: usize,
}

static FIXTURE: OnceLock<Fixture> = OnceLock::new();

fn fixture() -> &'static Fixture {
    FIXTURE.get_or_init(|| {
        let cfg = ExperimentConfig::new(Scale::Smoke, 42);
        let exp = Experiment::build(&cfg);
        let guard_bytes = GuardSet::from_experiment(&exp).to_artifact_bytes();

        // The offline reference boosting round over the whole test pool.
        let out = run_dba(&exp, DbaVariant::M1, V);
        let offline_selected = out.num_selected();
        assert!(offline_selected > 0, "V = 1 must select something");

        let waves: Vec<Vec<Vec<f32>>> = Duration::all()
            .iter()
            .map(|&d| {
                exp.ds
                    .test_set(d)
                    .iter()
                    .map(|u| render_utterance(u, exp.ds.language(u.language), &exp.inv).samples)
                    .collect()
            })
            .collect();

        // Baseline per-subsystem scores, regrouped `[duration][subsystem]`.
        let baseline: Vec<Vec<ScoreMatrix>> = (0..Duration::all().len())
            .map(|di| {
                exp.baseline_test_scores
                    .iter()
                    .map(|per| per[di].clone())
                    .collect()
            })
            .collect();
        let adapted = out.test_scores;

        let bytes = SystemBundle::from_experiment(exp).to_artifact_bytes();
        // Fuse both references through the *bundle's* backends — the exact
        // objects serving applies after the hot swap.
        let bundle = SystemBundle::from_artifact_bytes(&bytes).expect("bundle reloads");
        let fuse_all = |per_dur: &[Vec<ScoreMatrix>]| -> Vec<ScoreMatrix> {
            per_dur
                .iter()
                .zip(&bundle.fusions)
                .map(|(mats, fusion)| {
                    let refs: Vec<&ScoreMatrix> = mats.iter().collect();
                    fusion.apply(&refs)
                })
                .collect()
        };
        Fixture {
            expected_baseline: fuse_all(&baseline),
            expected_adapted: fuse_all(&adapted),
            waves,
            bytes,
            guard_bytes,
            offline_selected,
        }
    })
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: LLR count");
    for (j, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: LLR {j} differs ({g} vs {w})"
        );
    }
}

struct Harness {
    handle: Arc<ScorerHandle>,
    controller: Arc<AdaptController>,
    server: Server,
}

/// Stand up an adapting server over the fixture bundle. A single v1
/// client scores one utterance at a time, so the vote log's arrival order
/// is exactly the drive order regardless of worker count.
fn start_adaptive_server(fx: &Fixture, cfg: AdaptConfig) -> Harness {
    let bundle = SystemBundle::from_artifact_bytes(&fx.bytes).expect("bundle reloads");
    let system = Arc::new(ScoringSystem::from_bundle(bundle).expect("bundle is coherent"));
    let handle = Arc::new(ScorerHandle::new(system, bundle_checksum(&fx.bytes)));
    let log = Arc::new(VoteLog::new(4096));
    let guard = GuardSet::from_artifact_bytes(&fx.guard_bytes).expect("guard reloads");
    let hooks = ServerHooks::default();
    let controller = Arc::new(
        AdaptController::new(
            Arc::clone(&handle),
            Arc::clone(&log),
            None,
            guard,
            fx.bytes.clone(),
            cfg,
            Arc::clone(&hooks.obs.flight),
        )
        .expect("controller wires up"),
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let server = Server::start(
        listener,
        Arc::clone(&handle),
        ServerConfig {
            engine: EngineConfig {
                workers: 2,
                queue_capacity: 64,
                unknown_threshold: None,
            },
            max_inflight: 8,
            max_global_inflight: 0,
        },
        ServerHooks {
            tap: Some(log as _),
            control: Some(Arc::clone(&controller) as _),
            ..hooks
        },
    )
    .expect("server starts");
    Harness {
        handle,
        controller,
        server,
    }
}

/// A durable adapting server over the fixture bundle: votes tee into the
/// WAL under `dir/votes`, generations seal into `dir/lineage`. Serving
/// starts from the lineage head when the chain already exists — exactly
/// the `lre-adaptd --wal-dir` recovery path.
struct DurableHarness {
    h: Harness,
    durable: Arc<VoteLog>,
    /// Vote records replayed from the WAL at open.
    replayed: u64,
    /// Lineage generation serving resumed from (0 on a fresh chain).
    head: u64,
}

fn start_durable_server(fx: &Fixture, cfg: AdaptConfig, dir: &Path, keep: usize) -> DurableHarness {
    let lineage = LineageStore::open(&dir.join("lineage")).expect("lineage opens");
    let (bytes, head) = match lineage.head().copied() {
        Some(e) => (
            lineage.load(e.generation).expect("head loads"),
            e.generation,
        ),
        None => (fx.bytes.clone(), 0),
    };
    let bundle = SystemBundle::from_artifact_bytes(&bytes).expect("bundle reloads");
    let system = Arc::new(ScoringSystem::from_bundle(bundle).expect("bundle is coherent"));
    let handle = Arc::new(ScorerHandle::new(system, bundle_checksum(&bytes)));
    let mut opts = vote_wal_options();
    opts.fsync_interval = std::time::Duration::ZERO; // every append durable
    let hooks = ServerHooks::default();
    let wal_obs = WalObs::new(&hooks.obs.registry, Arc::clone(&hooks.obs.flight));
    let (durable, recovery) =
        VoteLog::open(&dir.join("votes"), 4096, opts, wal_obs).expect("vote WAL opens");
    let durable = Arc::new(durable);
    let guard = GuardSet::from_artifact_bytes(&fx.guard_bytes).expect("guard reloads");
    let controller = Arc::new(
        AdaptController::new(
            Arc::clone(&handle),
            Arc::clone(&durable),
            Some((lineage, keep)),
            guard,
            bytes,
            cfg,
            Arc::clone(&hooks.obs.flight),
        )
        .expect("durable controller wires up"),
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let server = Server::start(
        listener,
        Arc::clone(&handle),
        ServerConfig {
            engine: EngineConfig {
                workers: 2,
                queue_capacity: 64,
                unknown_threshold: None,
            },
            max_inflight: 8,
            max_global_inflight: 0,
        },
        ServerHooks {
            tap: Some(Arc::clone(&durable) as _),
            control: Some(Arc::clone(&controller) as _),
            durability: Some(Arc::clone(&controller) as _),
            ..hooks
        },
    )
    .expect("server starts");
    DurableHarness {
        h: Harness {
            handle,
            controller,
            server,
        },
        durable,
        replayed: recovery.replayed,
        head,
    }
}

/// Score `waves[di][..take(di)]` duration-major through `client`, checking
/// each reply against `expected[di]` — and, as a side effect, feeding the
/// vote log in exactly the offline test-pool order.
fn drive(
    client: &mut Client,
    waves: &[Vec<Vec<f32>>],
    expected: &[ScoreMatrix],
    take: impl Fn(usize) -> usize,
    what: &str,
) -> usize {
    let mut driven = 0;
    for (di, per_dur) in waves.iter().enumerate() {
        for (i, w) in per_dur.iter().take(take(di)).enumerate() {
            match client.score(w).expect("score round trip") {
                ScoreReply::Scored(s) => {
                    assert_bits_eq(
                        &s.llrs,
                        expected[di].row(i),
                        &format!("{what} d{di} utt {i}"),
                    );
                    driven += 1;
                }
                other => panic!("{what} d{di} utt {i} refused: {other:?}"),
            }
        }
    }
    driven
}

#[test]
#[ignore = "builds the full experiment; run with --release -- --ignored"]
fn online_cycle_matches_offline_run_dba_bit_for_bit() {
    let fx = fixture();
    let h = start_adaptive_server(
        fx,
        AdaptConfig {
            v_threshold: V,
            min_utts: 8,
            // Promotion phase: the guard must not interfere.
            max_eer_regress: f64::INFINITY,
            max_cavg_regress: f64::INFINITY,
        },
    );
    let addr = h.server.local_addr();
    let mut client = Client::connect(addr).expect("client connects");

    // 1) Stream the whole test pool duration-major. Serving is baseline
    //    (generation 0) and bit-identical to the offline baseline fusion.
    let total = drive(
        &mut client,
        &fx.waves,
        &fx.expected_baseline,
        |_| usize::MAX,
        "baseline",
    );
    assert_eq!(h.handle.generation(), 0);

    // 2) One adaptation cycle over the served stream.
    let report = client.adapt().expect("adapt round trip");
    assert_eq!(report.outcome, ADAPT_PROMOTED, "cycle must promote");
    assert_eq!(report.generation, 1, "first promotion is generation 1");
    assert_eq!(report.drained as usize, total, "every served utt voted");
    assert_eq!(
        report.selected as usize, fx.offline_selected,
        "online selection must match the offline round's"
    );
    assert_eq!(h.handle.generation(), 1);
    assert_eq!(h.controller.counters().promoted, 1);

    // Lineage: the promoted bundle names its parent by checksum.
    let cand_bytes = h.controller.current_bundle_bytes();
    assert_eq!(h.handle.checksum(), bundle_checksum(&cand_bytes));
    let cand = SystemBundle::from_artifact_bytes(&cand_bytes).expect("candidate reloads");
    assert_eq!(cand.lineage.generation, 1);
    assert_eq!(cand.lineage.parent_checksum, bundle_checksum(&fx.bytes));
    assert_eq!(cand.lineage.selected_utts as usize, fx.offline_selected);
    assert_eq!(cand.lineage.v_threshold, V);

    // 3) The swapped-in model serves fused LLRs bit-identical to the
    //    offline run_dba (M1, same V) round over the same utterances.
    drive(
        &mut client,
        &fx.waves,
        &fx.expected_adapted,
        |_| usize::MAX,
        "adapted",
    );

    // 4) Rollback restores the parent bit-identically under a fresh
    //    generation: baseline scores and checksum return exactly.
    assert_eq!(h.controller.rollback(), Some(2));
    assert_eq!(h.handle.checksum(), bundle_checksum(&fx.bytes));
    drive(
        &mut client,
        &fx.waves,
        &fx.expected_baseline,
        |_| 2,
        "rolled-back",
    );
    assert_eq!(
        h.controller.rollback(),
        None,
        "one-deep history: nothing left to roll back"
    );

    client.shutdown().expect("shutdown acknowledged");
    h.server.join();
}

#[test]
#[ignore = "builds the full experiment; run with --release -- --ignored"]
fn guard_rejection_leaves_serving_untouched() {
    let fx = fixture();
    let h = start_adaptive_server(
        fx,
        AdaptConfig {
            v_threshold: V,
            min_utts: 8,
            // Negative slack: every candidate regresses by definition —
            // the rollback drill CI runs against a live daemon.
            max_eer_regress: -1.0,
            max_cavg_regress: -1.0,
        },
    );
    let addr = h.server.local_addr();
    let mut client = Client::connect(addr).expect("client connects");

    // Feed the log from the cheap 3 s split only (enough to select).
    let di_3s = Experiment::duration_index(Duration::S3);
    let driven = drive(
        &mut client,
        &fx.waves,
        &fx.expected_baseline,
        |di| if di == di_3s { 24 } else { 0 },
        "pre-reject",
    );
    assert_eq!(driven, 24);

    let report = client.adapt().expect("adapt round trip");
    assert_eq!(
        report.outcome, ADAPT_REJECTED_GUARD,
        "negative slack must force a guard rejection"
    );
    assert!(report.selected > 0, "rejection happened after selection");
    assert_eq!(report.generation, 0, "no swap: generation unchanged");
    assert_eq!(h.handle.generation(), 0);
    assert_eq!(
        h.handle.checksum(),
        bundle_checksum(&fx.bytes),
        "no swap: the parent bundle is still installed"
    );
    assert_eq!(h.controller.counters().rejected_guard, 1);
    assert_eq!(h.controller.counters().promoted, 0);
    assert_eq!(
        h.controller.rollback(),
        None,
        "a rejected candidate leaves nothing to roll back"
    );

    // Serving still produces the baseline bits.
    drive(
        &mut client,
        &fx.waves,
        &fx.expected_baseline,
        |di| if di == di_3s { 3 } else { 0 },
        "post-reject",
    );

    client.shutdown().expect("shutdown acknowledged");
    h.server.join();
}

#[test]
#[ignore = "builds the full experiment; run with --release -- --ignored"]
fn durable_window_survives_restart_and_deep_rollback_restores_bits() {
    let fx = fixture();
    let dir = std::env::temp_dir().join(format!("lre_adapt_wal_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = AdaptConfig {
        v_threshold: V,
        min_utts: 8,
        max_eer_regress: f64::INFINITY,
        max_cavg_regress: f64::INFINITY,
    };

    // Phase 1: serve the baseline, tee the whole test pool into the WAL,
    // and stop WITHOUT draining — the un-adapted window is on disk.
    let total;
    {
        let dh = start_durable_server(fx, cfg, &dir, 0);
        assert_eq!((dh.replayed, dh.head), (0, 0), "fresh directory");
        let mut client = Client::connect(dh.h.server.local_addr()).expect("client connects");
        total = drive(
            &mut client,
            &fx.waves,
            &fx.expected_baseline,
            |_| usize::MAX,
            "baseline",
        );
        let status = client
            .wal_status()
            .expect("wal-status round trip")
            .expect("WAL is mounted");
        assert_eq!(status.buffered as usize, total, "every vote hit the WAL");
        assert_eq!(status.lineage_head, 0);
        assert!(status.chain_ok);
        client.shutdown().expect("shutdown acknowledged");
        dh.h.server.join();
    }

    // Phase 2: restart on the same directory. Replay must rebuild the
    // window so the cycle drains exactly what phase 1 served, selects
    // what the offline round selects, and swaps in the same bits.
    {
        let dh = start_durable_server(fx, cfg, &dir, 0);
        assert_eq!(
            dh.replayed as usize, total,
            "every teed vote survives the restart"
        );
        assert_eq!(dh.head, 0, "nothing promoted yet");
        let mut client = Client::connect(dh.h.server.local_addr()).expect("client connects");
        let report = client.adapt().expect("adapt round trip");
        assert_eq!(report.outcome, ADAPT_PROMOTED, "replayed window promotes");
        assert_eq!(
            report.drained as usize, total,
            "the replayed window drains whole"
        );
        assert_eq!(
            report.selected as usize, fx.offline_selected,
            "replayed selection must match the offline round's"
        );
        drive(
            &mut client,
            &fx.waves,
            &fx.expected_adapted,
            |_| 2,
            "adapted-after-restart",
        );
        let status = client.wal_status().expect("round trip").expect("mounted");
        assert_eq!(status.lineage_head, 1);
        assert_eq!(status.lineage_entries, 2);
        assert!(status.chain_ok);
        client.shutdown().expect("shutdown acknowledged");
        dh.h.server.join();
    }

    // Phase 3: restart once more (now with a retention budget). Serving
    // must resume from the lineage head — generation 1, not --bundle —
    // and a deep rollback to generation 0 must reproduce the baseline
    // bits exactly.
    {
        let dh = start_durable_server(fx, cfg, &dir, 2);
        assert_eq!(dh.head, 1, "serving resumes from the chain head");
        let mut client = Client::connect(dh.h.server.local_addr()).expect("client connects");
        drive(
            &mut client,
            &fx.waves,
            &fx.expected_adapted,
            |_| 2,
            "resumed-head",
        );
        // Clear the generation-1 votes just teed so the post-rollback
        // window holds only baseline-scored records (the offline pool).
        dh.durable.drain_at_least(1).expect("stale window drains");
        let ack = client
            .rollback_to(0)
            .expect("rollback-to round trip")
            .expect("generation 0 is retained");
        assert_eq!(ack.restored, 0);
        assert_eq!(ack.serving, 1, "deep rollback bumps the serving generation");
        assert_eq!(ack.checksum, bundle_checksum(&fx.bytes));
        assert_eq!(dh.h.handle.checksum(), bundle_checksum(&fx.bytes));
        drive(
            &mut client,
            &fx.waves,
            &fx.expected_baseline,
            |_| usize::MAX,
            "deep-rolled-back",
        );

        // Promote after the deep rollback: the candidate is renumbered
        // onto the chain head (generation 2) with its parent pointer
        // aimed at generation 0 — and over the same pool and parent it
        // is the same boosting round, so the adapted bits return.
        let report = client.adapt().expect("adapt round trip");
        assert_eq!(report.outcome, ADAPT_PROMOTED);
        assert_eq!(report.generation, 2, "serving generation after the swap");
        let cand_bytes = dh.h.controller.current_bundle_bytes();
        let cand = SystemBundle::from_artifact_bytes(&cand_bytes).expect("candidate reloads");
        assert_eq!(
            cand.lineage.generation, 2,
            "renumbered onto the chain head, not parent+1"
        );
        assert_eq!(
            cand.lineage.parent_checksum,
            bundle_checksum(&fx.bytes),
            "parent pointer names the rolled-back generation"
        );
        drive(
            &mut client,
            &fx.waves,
            &fx.expected_adapted,
            |_| 2,
            "re-promoted",
        );

        // keep-generations pruned the oldest bytes at the promote: the
        // chain still validates end to end, but generation 0 is now a
        // typed refusal (as is a generation that never existed).
        let status = client.wal_status().expect("round trip").expect("mounted");
        assert_eq!(status.lineage_head, 2);
        assert_eq!(status.lineage_entries, 3);
        assert_eq!(status.lineage_retained, 2);
        assert!(status.chain_ok);
        assert_eq!(
            client.rollback_to(0).expect("round trip"),
            Err(STATUS_CONFLICT),
            "pruned generation refused"
        );
        assert_eq!(
            client.rollback_to(99).expect("round trip"),
            Err(STATUS_CONFLICT),
            "unknown generation refused"
        );
        client.shutdown().expect("shutdown acknowledged");
        dh.h.server.join();
    }

    // Phase 4: final restart validates the pruned chain and resumes from
    // generation 2 bit-identically.
    {
        let dh = start_durable_server(fx, cfg, &dir, 0);
        assert_eq!(dh.head, 2);
        let mut client = Client::connect(dh.h.server.local_addr()).expect("client connects");
        drive(
            &mut client,
            &fx.waves,
            &fx.expected_adapted,
            |_| 2,
            "resumed-pruned-chain",
        );
        client.shutdown().expect("shutdown acknowledged");
        dh.h.server.join();
    }
    std::fs::remove_dir_all(&dir).ok();
}
