//! End-to-end serving acceptance: train a PPRVSM system once, package it,
//! reload it from bytes alone, and serve it over TCP — with the fused
//! detection LLRs bit-identical to the offline experiment pipeline, load
//! shedding engaged when the queue fills, and a clean protocol-driven
//! shutdown. The same server then takes the workload again through one
//! connection at window 8. Two more tests hold the in-process
//! `ScoringSystem` to the per-subsystem public pipeline bit for bit at all
//! three durations, and throw hostile audio at it; and two hold the
//! engine's fan-out — one utterance's subsystems spread over whichever
//! workers are idle — to the serial scorer's bits at every pool width and
//! window, and its traced spans to the wire's monotonicity rule.
//!
//! Like `tests/full_system.rs`, the training-backed tests build the
//! complete six-front-end smoke experiment (minutes in release, much
//! longer in debug) — once, shared through a `OnceLock` — so they are
//! `#[ignore]` by default and CI runs them in release:
//!
//! ```text
//! cargo test --release -p lre-serve --test serve_roundtrip -- --ignored
//! ```

use lre_am::{extract_features, AmFamily, FeatureKind};
use lre_artifact::{ArtifactRead, ArtifactWrite};
use lre_corpus::{render_utterance, Duration, Scale};
use lre_dba::{fuse_duration, standard_subsystems, Experiment, ExperimentConfig};
use lre_eval::ScoreMatrix;
use lre_lattice::{decode_with_scratch, DecodeScratch};
use lre_obs::{STAGE_DECODE, STAGE_QUEUE, STAGE_REPLY, STAGE_SCORE, STAGE_SUPERVECTOR};
use lre_serve::client::ScoreReply;
use lre_serve::system::duration_index_for;
use lre_serve::{
    Client, Engine, EngineConfig, Outcome, ScoreDetail, ScoreTap, ScorerHandle, ScoringSystem,
    ServeObs, Server, ServerConfig, ServerHooks, SubmitError, SystemBundle,
};
use std::net::TcpListener;
use std::sync::{Arc, Mutex, OnceLock};

/// One smoke-scale training run shared by every `#[ignore]` test in this
/// binary: the offline fused reference scores, the raw client-side
/// waveforms, and the sealed bundle bytes.
struct Fixture {
    offline: ScoreMatrix,
    waves: Arc<Vec<Vec<f32>>>,
    /// Two test utterances of each nominal duration, 30 s first.
    by_duration: Vec<Vec<f32>>,
    bytes: Vec<u8>,
}

static FIXTURE: OnceLock<Fixture> = OnceLock::new();

fn fixture() -> &'static Fixture {
    FIXTURE.get_or_init(|| {
        let cfg = ExperimentConfig::new(Scale::Smoke, 42);
        let exp = Experiment::build(&cfg);

        // Offline reference: the experiment's own fused scores, 3 s set.
        let d = Duration::S3;
        let di = Experiment::duration_index(d);
        let test: Vec<ScoreMatrix> = exp
            .baseline_test_scores
            .iter()
            .map(|per| per[di].clone())
            .collect();
        let offline = fuse_duration(&exp, &exp.baseline_dev_scores, &test, d, None).test_scores;

        // The same utterances as a client would hold them: raw waveforms.
        let waves: Vec<Vec<f32>> = exp
            .ds
            .test_set(d)
            .iter()
            .map(|u| render_utterance(u, exp.ds.language(u.language), &exp.inv).samples)
            .collect();
        assert!(
            waves.len() >= 100,
            "need ≥100 utterances for the serving smoke; have {}",
            waves.len()
        );
        let by_duration = Duration::all()
            .iter()
            .flat_map(|&d| exp.ds.test_set(d).iter().take(2))
            .map(|u| render_utterance(u, exp.ds.language(u.language), &exp.inv).samples)
            .collect();
        let bytes = SystemBundle::from_experiment(exp).to_artifact_bytes();
        Fixture {
            offline,
            waves: Arc::new(waves),
            by_duration,
            bytes,
        }
    })
}

/// The fixture's bundle as a fresh process would load it.
fn reloaded_system(fx: &Fixture) -> ScoringSystem {
    let bundle = SystemBundle::from_artifact_bytes(&fx.bytes).expect("bundle reloads");
    ScoringSystem::from_bundle(bundle).expect("bundle is coherent")
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

#[test]
#[ignore = "builds the full experiment; run with --release -- --ignored"]
fn train_save_reload_serve_bit_identical() {
    let fx = fixture();
    let offline = &fx.offline;

    // Package the system and reload it from bytes alone — the "fresh
    // process" contract: nothing survives but the artifact container.
    let reloaded = SystemBundle::from_artifact_bytes(&fx.bytes).expect("bundle reloads");
    assert_eq!(reloaded.scale_name, "smoke");
    assert_eq!(reloaded.seed, 42);
    offset_table_damage_is_refused(&fx.bytes, &reloaded);
    let system = Arc::new(ScoringSystem::from_bundle(reloaded).expect("bundle is coherent"));

    // 1) In-process spot check: the reloaded pipeline reproduces the
    //    offline fused scores to the bit (full coverage happens over TCP).
    let mut scratch = DecodeScratch::new();
    for (i, w) in fx.waves.iter().enumerate().take(3) {
        let got = system.score(w, &mut scratch);
        assert_bits_eq(&got, offline.row(i), &format!("in-process utt {i}"));
    }

    // 2) Over TCP with concurrent window-1 clients so both workers stay busy.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let server = Server::start(
        listener,
        Arc::new(ScorerHandle::new(Arc::clone(&system) as _, 0)),
        ServerConfig {
            engine: EngineConfig {
                workers: 2,
                queue_capacity: 256,
                unknown_threshold: None,
            },
            max_inflight: 8,
            max_global_inflight: 0,
        },
        ServerHooks::default(),
    )
    .expect("server starts");
    let addr = server.local_addr();

    let n_threads = 8;
    let waves = Arc::clone(&fx.waves);
    let handles: Vec<_> = (0..n_threads)
        .map(|t| {
            let waves = Arc::clone(&waves);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("client connects");
                let mut out = Vec::new();
                for (i, w) in waves.iter().enumerate() {
                    if i % n_threads != t {
                        continue;
                    }
                    loop {
                        match client.score(w).expect("score round trip") {
                            ScoreReply::Scored(s) => {
                                out.push((i, s));
                                break;
                            }
                            ScoreReply::Overloaded => {
                                std::thread::sleep(std::time::Duration::from_millis(10));
                            }
                            other => panic!("unexpected reply mid-test: {other:?}"),
                        }
                    }
                }
                out
            })
        })
        .collect();
    let mut scored = 0usize;
    for h in handles {
        for (i, s) in h.join().expect("client thread") {
            assert_bits_eq(&s.llrs, offline.row(i), &format!("TCP utt {i}"));
            assert_eq!(
                s.decision,
                lre_serve::decision(&s.llrs),
                "decision must be the argmax the server computed"
            );
            scored += 1;
        }
    }
    assert_eq!(scored, waves.len());

    // Counters agree with what the clients saw.
    let mut client = Client::connect(addr).expect("stats connection");
    let stats = client.stats_v2().expect("stats round trip");
    assert_eq!(stats.completed, waves.len() as u64);
    assert_eq!(stats.requests, waves.len() as u64);
    assert_eq!(stats.rejected, 0);
    assert!(stats.latency_us_sum > 0 && stats.latency_us_max > 0);

    // 2b) The same workload again through one pipelined connection with a
    //     window of eight requests outstanding; replies are matched by id.
    let replies = client
        .score_all(&fx.waves, 8, None)
        .expect("pipelined scoring");
    assert_eq!(replies.len(), fx.waves.len());
    for (i, reply) in replies.iter().enumerate() {
        match reply {
            ScoreReply::Scored(s) => {
                assert_bits_eq(&s.llrs, offline.row(i), &format!("pipelined utt {i}"));
            }
            other => panic!("utt {i} refused: {other:?}"),
        }
    }
    let stats = client.stats_v2().expect("stats");
    assert_eq!(stats.completed, 2 * fx.waves.len() as u64);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.expired, 0);
    assert_eq!(stats.failed, 0);

    // 3) Graceful shutdown over the wire: acknowledged, then the server
    //    joins cleanly.
    client.shutdown().expect("shutdown acknowledged");
    server.join();

    // 4) Load shedding: a one-lane engine with a 2-deep queue cannot absorb
    //    a 64-request burst; the surplus must be refused explicitly (and
    //    everything accepted must still complete).
    let engine = Engine::start(
        EngineConfig {
            workers: 1,
            queue_capacity: 2,
            unknown_threshold: None,
        },
        Arc::new(ScorerHandle::new(Arc::clone(&system) as _, 0)),
        None,
        ServeObs::new(8),
    );
    let mut receivers = Vec::new();
    let mut shed = 0usize;
    for i in 0..64 {
        match engine.submit(waves[i % waves.len()].clone()) {
            Ok(rx) => receivers.push(rx),
            Err(SubmitError::Overloaded) => shed += 1,
            Err(SubmitError::ShuttingDown) => panic!("engine closed prematurely"),
        }
    }
    assert!(shed > 0, "64-burst into a 2-deep queue must shed");
    for rx in receivers {
        match rx.recv().expect("accepted work completes despite shedding") {
            Outcome::Scored(s) => assert_eq!(s.llrs.len(), system.num_classes()),
            other => panic!("deadline-free accepted work must score, got {other:?}"),
        }
    }
    let stats = engine.stats();
    assert_eq!(stats.rejected, shed as u64);
    assert_eq!(stats.completed + stats.rejected, 64);
    engine.shutdown();
}

/// `try_score_detailed` extracts each feature kind once and shares it across
/// subsystems; the public per-subsystem pipeline (what `bench-e2e`'s layer
/// walk times) extracts per subsystem and transforms in place. Both must
/// produce the same bits at every level — fused row, every subsystem's OvR
/// row, every scaled supervector — at 30 s, 10 s and 3 s.
#[test]
#[ignore = "builds the full experiment; run with --release -- --ignored"]
fn shared_extraction_equals_the_per_subsystem_public_pipeline_bit_for_bit() {
    let fx = fixture();
    let bundle = SystemBundle::from_artifact_bytes(&fx.bytes).expect("bundle reloads");
    let system = reloaded_system(fx);

    // Six subsystems, two kinds: a request makes one analysis pass with two
    // cepstral tails, not six passes.
    assert_eq!(system.num_subsystems(), 6);
    assert_eq!(
        system.feature_kinds(),
        [FeatureKind::Mfcc, FeatureKind::Plp]
    );

    // The fan-out claims tasks costliest first, by emission parameter
    // count: on this bundle that must put the two GMM front-ends (the two
    // long decodes) ahead of the four NN ones.
    let mut by_cost: Vec<(usize, AmFamily)> = bundle
        .subsystems
        .iter()
        .map(|sub| {
            let family = standard_subsystems()[sub.spec_index as usize].family;
            (sub.am.scorer.num_params(), family)
        })
        .collect();
    by_cost.sort_by_key(|&(params, _)| std::cmp::Reverse(params));
    assert!(
        by_cost[..2].iter().all(|&(_, f)| f == AmFamily::GmmHmm) && by_cost[5].0 > 0,
        "{by_cost:?}"
    );

    let mut scratch = DecodeScratch::new();
    let mut frames_seen = Vec::new();
    for (u, samples) in fx.by_duration.iter().enumerate() {
        let detail = system
            .try_score_detailed(samples, &mut scratch)
            .expect("scores");
        // The frame count comes from the extracted matrix; it must be the
        // framing formula's.
        let num_frames = lre_dsp::FrameConfig::default().num_frames(samples.len());
        assert_eq!(detail.num_frames as usize, num_frames, "utt {u}");
        assert_eq!(detail.duration_index, duration_index_for(num_frames));
        frames_seen.push(num_frames);

        let mut rows = Vec::new();
        for (q, sub) in bundle.subsystems.iter().enumerate() {
            let what = format!("utt {u} subsystem {q}");
            let mut feats = extract_features(samples, sub.am.feature);
            assert_eq!(feats.num_frames(), num_frames, "{what}");
            sub.am.feature_transform.apply(&mut feats);
            let out = decode_with_scratch(&sub.am, &feats, &sub.decoder, &mut scratch);
            let scaled = sub.scaler.transformed(&sub.builder.build(&out.network));
            let got: Vec<(u32, u32)> = detail.supervectors[q]
                .iter()
                .map(|(i, v)| (i, v.to_bits()))
                .collect();
            let want: Vec<(u32, u32)> = scaled.iter().map(|(i, v)| (i, v.to_bits())).collect();
            assert_eq!(got, want, "{what}: supervector");
            let row = sub.vsm.scores(&scaled);
            assert_bits_eq(&detail.subsystem_scores[q], &row, &what);
            let mut m = ScoreMatrix::new(row.len());
            m.push_row(&row);
            rows.push(m);
        }
        let refs: Vec<&ScoreMatrix> = rows.iter().collect();
        let fused = bundle.fusions[detail.duration_index].apply(&refs);
        assert_bits_eq(&detail.fused, fused.row(0), &format!("utt {u} fused"));
        assert_bits_eq(
            &system.score(samples, &mut scratch),
            fused.row(0),
            &format!("utt {u} try_score"),
        );
    }
    // All three nominal durations were actually exercised.
    let mut backends: Vec<usize> = frames_seen.iter().map(|&n| duration_index_for(n)).collect();
    backends.dedup();
    assert_eq!(backends, [0, 1, 2], "frame counts {frames_seen:?}");
}

/// Hostile audio at the one place features are made: too-short utterances
/// (zero frames: nothing to analyze), and utterances laced with NaN, ±Inf
/// and samples whose power overflows f32, must come back as `num_classes`
/// values without a panic.
#[test]
#[ignore = "builds the full experiment; run with --release -- --ignored"]
fn hostile_audio_scores_without_panicking() {
    let fx = fixture();
    let system = reloaded_system(fx);
    let mut scratch = DecodeScratch::new();
    let clean = &fx.waves[0];

    for len in [0, 1, 199, 200, 279, 280] {
        let detail = system
            .try_score_detailed(&clean[..len], &mut scratch)
            .expect("short utterances score");
        assert_eq!(detail.fused.len(), system.num_classes(), "{len} samples");
        assert_eq!(
            detail.num_frames as usize,
            if len < 200 { 0 } else { (len - 200) / 80 + 1 }
        );
        assert_eq!(detail.subsystem_scores.len(), 6);
    }

    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e30, 1e19] {
        // A few bad samples among real speech, a run of them, and nothing else.
        let mut laced = clean.clone();
        for i in (0..laced.len()).step_by(997) {
            laced[i] = bad;
        }
        let mut run = clean.clone();
        run[4_000..6_000].fill(bad);
        for (what, samples) in [("laced", laced), ("run", run), ("all", vec![bad; 2_000])] {
            let llrs = system
                .try_score(&samples, &mut scratch)
                .expect("hostile audio scores");
            assert_eq!(llrs.len(), system.num_classes(), "{what} with {bad}");
        }
    }
    // The scorer is unharmed: clean audio still scores to the offline bits.
    assert_bits_eq(
        &system.score(clean, &mut scratch),
        fx.offline.row(0),
        "clean audio after hostile audio",
    );
}

/// A tap that keeps every detail the engine tees, in the order scored.
#[derive(Default)]
struct Recorder(Mutex<Vec<ScoreDetail>>);

impl ScoreTap for Recorder {
    fn record(&self, detail: ScoreDetail) {
        self.0.lock().unwrap().push(detail);
    }
}

fn serve_tapped(system: &Arc<ScoringSystem>, workers: usize) -> (Server, Arc<Recorder>) {
    let tap = Arc::new(Recorder::default());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let server = Server::start(
        listener,
        Arc::new(ScorerHandle::new(Arc::clone(system) as _, 0)),
        ServerConfig {
            engine: EngineConfig {
                workers,
                queue_capacity: 64,
                unknown_threshold: None,
            },
            max_inflight: 8,
            max_global_inflight: 0,
        },
        ServerHooks {
            tap: Some(Arc::clone(&tap) as _),
            ..ServerHooks::default()
        },
    )
    .expect("server starts");
    (server, tap)
}

/// With a second worker idle, one request's subsystems are scored by two
/// threads, and the busy time they add up exceeds the request's wall clock.
/// The span must not be built from those sums: every mark is an instant on
/// the request's own timeline, so it still decodes (the client refuses a
/// span whose offsets go backwards) and `score` still precedes `reply`.
#[test]
#[ignore = "builds the full experiment; run with --release -- --ignored"]
fn traced_spans_stay_monotone_when_a_helper_shares_the_request() {
    let fx = fixture();
    let system = Arc::new(reloaded_system(fx));
    let (server, tap) = serve_tapped(&system, 2);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut scratch = DecodeScratch::new();

    let mut overlapped = 0;
    for round in 0..3 {
        // One request outstanding at a time: the other worker is idle.
        for (u, samples) in fx.by_duration.iter().enumerate() {
            let what = format!("round {round} utt {u}");
            let reply = client
                .score_traced(samples, None, 0)
                .unwrap_or_else(|e| panic!("{what}: traced reply does not decode: {e}"));
            let ScoreReply::Scored(scored) = reply else {
                panic!("{what} refused: {reply:?}");
            };
            assert_bits_eq(&scored.llrs, &system.score(samples, &mut scratch), &what);
            let span = scored.span.expect("a traced reply carries a span");
            assert!(span.is_well_formed(), "{what}: {:?}", span.stages);
            let stages: Vec<u8> = span.stages.iter().map(|&(stage, _)| stage).collect();
            assert_eq!(
                stages,
                [
                    STAGE_QUEUE,
                    STAGE_DECODE,
                    STAGE_SUPERVECTOR,
                    STAGE_SCORE,
                    STAGE_REPLY
                ],
                "{what}"
            );
            let wall_us = span.offset_of(STAGE_REPLY).unwrap();
            // The tap is called before the reply is sent.
            let detail = tap.0.lock().unwrap().last().cloned().expect("teed");
            let busy = detail.stage_us;
            let busy_us = busy.decode_us + busy.supervector_us + busy.score_us;
            if detail.duration_index == 0 && busy_us > wall_us {
                overlapped += 1;
            }
        }
    }
    assert!(
        overlapped > 0,
        "no 30 s request had more busy time than wall clock: nobody helped"
    );
    client.shutdown().expect("shutdown acknowledged");
    server.join();
}

/// Whoever runs which subsystem's task, on however many workers, with one
/// request outstanding or eight: the reply is `ScoringSystem::score`'s bits
/// and the tap sees the serial `try_score_detailed`'s per-subsystem rows
/// and supervectors, in subsystem order — hostile audio included.
#[test]
#[ignore = "builds the full experiment; run with --release -- --ignored"]
fn every_pool_width_and_window_replies_with_the_serial_bits() {
    let fx = fixture();
    let system = Arc::new(reloaded_system(fx));

    let clean = &fx.waves[0];
    let mut utts: Vec<Vec<f32>> = fx.by_duration.clone();
    utts.extend(fx.waves.iter().take(8).cloned());
    // Zero frames: six zero-frame decodes must still meet at the join.
    utts.extend([0, 1, 199, 200].map(|len| clean[..len].to_vec()));
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e30, 1e19] {
        let mut laced = clean.clone();
        for i in (0..laced.len()).step_by(997) {
            laced[i] = bad;
        }
        utts.extend([laced, vec![bad; 2_000]]);
    }

    let mut scratch = DecodeScratch::new();
    let serial: Vec<ScoreDetail> = utts
        .iter()
        .map(|u| system.try_score_detailed(u, &mut scratch).expect("scores"))
        .collect();
    let sv_bits = |d: &ScoreDetail| -> Vec<Vec<(u32, u32)>> {
        d.supervectors
            .iter()
            .map(|sv| sv.iter().map(|(i, v)| (i, v.to_bits())).collect())
            .collect()
    };

    for workers in [1, 2, 4] {
        for inflight in [1, 8] {
            let (server, tap) = serve_tapped(&system, workers);
            let mut client = Client::connect(server.local_addr()).expect("connect");
            let replies = client
                .score_all(&utts, inflight, None)
                .expect("pipelined scoring");
            let teed = std::mem::take(&mut *tap.0.lock().unwrap());
            assert_eq!(teed.len(), utts.len());
            for (u, (reply, want)) in replies.iter().zip(&serial).enumerate() {
                let what = format!("workers {workers} inflight {inflight} utt {u}");
                let ScoreReply::Scored(scored) = reply else {
                    panic!("{what} refused: {reply:?}");
                };
                // `to_bits`, so a NaN row equals itself.
                assert_bits_eq(&scored.llrs, &want.fused, &what);
                assert_bits_eq(&scored.llrs, &system.score(&utts[u], &mut scratch), &what);
                let got = teed
                    .iter()
                    .find(|d| d.digest == want.digest)
                    .unwrap_or_else(|| panic!("{what}: never teed"));
                assert_eq!(got.num_frames, want.num_frames, "{what}");
                assert_eq!(got.subsystem_scores.len(), 6, "{what}");
                for (q, (g, w)) in got
                    .subsystem_scores
                    .iter()
                    .zip(&want.subsystem_scores)
                    .enumerate()
                {
                    assert_bits_eq(g, w, &format!("{what} subsystem {q}"));
                }
                assert_eq!(sv_bits(got), sv_bits(want), "{what}: supervectors");
            }
            client.shutdown().expect("shutdown acknowledged");
            server.join();
        }
    }
}

/// A real bundle whose offset table was edited (and the container
/// re-sealed, so the CRC holds) must be refused by the table's own checks,
/// not decoded at the wrong boundaries.
fn offset_table_damage_is_refused(sealed: &[u8], bundle: &SystemBundle) {
    use lre_artifact::{seal, ArtifactError, HEADER_LEN, TRAILER_LEN};
    let payload = &sealed[HEADER_LEN..sealed.len() - TRAILER_LEN];
    let region: usize = bundle
        .subsystems
        .iter()
        .map(|s| s.to_artifact_bytes().len())
        .sum();
    // The table's n + 1 little-endian u64 entries end where the section
    // region begins.
    let table_end = payload.len() - region;
    let entry = |k: usize| table_end - 8 * (bundle.subsystems.len() + 1 - k);
    let refused = |edit: &dyn Fn(&mut [u8]), what: &str| {
        let mut bad = payload.to_vec();
        edit(&mut bad);
        let resealed = seal(SystemBundle::KIND, SystemBundle::VERSION, &bad);
        match SystemBundle::from_artifact_bytes(&resealed) {
            Err(ArtifactError::Corrupt(msg)) => {
                assert!(msg.contains("offset table"), "{what}: {msg}")
            }
            Err(other) => panic!("{what}: expected Corrupt, got {other:?}"),
            Ok(_) => panic!("{what}: decoded"),
        }
    };
    let last = entry(bundle.subsystems.len());
    refused(&|p| p[last] ^= 1, "end entry off the region size");
    refused(&|p| p[entry(0)] = 1, "non-zero first entry");
    let (e1, e2) = (entry(1), entry(2));
    refused(
        &|p| {
            let second = p[e2..e2 + 8].to_vec();
            p.copy_within(e1..e1 + 8, e2);
            p[e1..e1 + 8].copy_from_slice(&second);
        },
        "entries swapped out of order",
    );
}

#[test]
fn corrupt_bundles_fail_with_typed_errors_not_panics() {
    // A coherent-but-tiny fake cannot be built without training, so damage
    // testing runs on container-level invariants: every truncation of a
    // sealed bundle prefix and a sweep of single-bit flips must produce a
    // typed error. (Training-backed round-trip corruption is exercised by
    // the property tests on the per-model payloads.)
    use lre_artifact::ArtifactWrite as _;
    let mut w = lre_artifact::ArtifactWriter::new();
    w.put_u64(7);
    w.put_str("smoke");
    w.put_u32(2); // max_order
    lre_svm::SvmTrainConfig::default().write_payload(&mut w);
    w.put_u64(0); // lineage: generation
    w.put_u32(0); // lineage: parent checksum
    w.put_u32(0); // lineage: selected utts
    w.put_u8(0); // lineage: vote threshold
    w.put_u32(0); // zero fusions: caught by the fusion-count check
    w.put_u32(0); // zero subsystems: structurally valid, semantically not
    w.put_u64_slice(&[0]); // a [0] offset table matching "no sections"
    let sealed = lre_artifact::seal(SystemBundle::KIND, SystemBundle::VERSION, &w.into_bytes());
    // Structurally intact container, semantically invalid payload.
    match SystemBundle::from_artifact_bytes(&sealed) {
        Err(lre_artifact::ArtifactError::Corrupt(_)) => {}
        Err(other) => panic!("expected Corrupt, got {other:?}"),
        Ok(_) => panic!("an empty bundle must not deserialize"),
    }
    for cut in 0..sealed.len() {
        assert!(
            SystemBundle::from_artifact_bytes(&sealed[..cut]).is_err(),
            "truncation at {cut} must fail"
        );
    }
    for byte in 0..sealed.len() {
        let mut bad = sealed.clone();
        bad[byte] ^= 0x04;
        assert!(
            SystemBundle::from_artifact_bytes(&bad).is_err(),
            "bit flip at byte {byte} must fail"
        );
    }
}
