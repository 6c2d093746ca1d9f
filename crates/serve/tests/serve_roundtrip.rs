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
//! window, and its reply spans to the wire's monotonicity rule. The built
//! binaries are held to their exit: a fleet replica's scratch vote window
//! is gone after a graceful shutdown, and a shutdown of `lre-serve`, or of
//! `lre-router` over two of them, answers every score admitted before it
//! (the router variant needs `lre-router` built beside `lre-serve`).
//!
//! Like `tests/full_system.rs`, the training-backed tests build the
//! complete six-front-end smoke experiment (minutes in release, much
//! longer in debug) — once, shared through a `OnceLock` — so they are
//! `#[ignore]` by default and CI runs them in release:
//!
//! ```text
//! cargo test --release -p lre-serve --test serve_roundtrip -- --ignored
//! ```

use lre_am::{
    extract_features, train_acoustic_model, AcousticModel, AmFamily, AmTrainConfig, FeatureKind,
};
use lre_artifact::{check_stream, ArtifactError, ArtifactRead, ArtifactWrite, SealedFile};
use lre_backend::{LdaMmiFusion, MmiConfig};
use lre_corpus::{build_language, render_utterance, Channel, Duration, LanguageId, Scale, UttSpec};
use lre_dba::{fuse_duration, standard_subsystems, Experiment, ExperimentConfig};
use lre_eval::ScoreMatrix;
use lre_lattice::{decode_with_scratch, DecodeScratch, DecoderConfig};
use lre_obs::{STAGE_DECODE, STAGE_QUEUE, STAGE_REPLY, STAGE_SCORE, STAGE_SUPERVECTOR};
use lre_phone::{PhoneSet, PhoneSetId, UniversalInventory};
use lre_serve::client::ScoreReply;
use lre_serve::server::admissible;
use lre_serve::system::duration_index_for;
use lre_serve::{
    BundleParent, Client, Engine, EngineConfig, Lineage, Outcome, ScoreDetail, ScoreTap,
    ScorerHandle, ScoringSystem, ServeObs, Server, ServerConfig, ServerHooks, SubmitError,
    SubsystemBundle, SystemBundle,
};
use lre_svm::{OneVsRest, SvmTrainConfig};
use lre_vsm::{SparseVec, SupervectorBuilder, TfllrScaler};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Cursor, Read, Seek, SeekFrom};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
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

/// `score_detailed` extracts each feature kind once and shares it across
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
        let detail = system.score_detailed(samples, &mut scratch);
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
            &format!("utt {u} score"),
        );
    }
    // All three nominal durations were actually exercised.
    let mut backends: Vec<usize> = frames_seen.iter().map(|&n| duration_index_for(n)).collect();
    backends.dedup();
    assert_eq!(backends, [0, 1, 2], "frame counts {frames_seen:?}");
}

/// Hostile audio at the one place features are made, as the in-process
/// callers that pass no door (offline `run_dba`, the guard, the benchmark's
/// walk) would hand it over: too-short utterances (zero frames: nothing to
/// analyze), and utterances laced with NaN, ±Inf and samples whose power
/// overflows f32, must come back as `num_classes` finite values without a
/// panic.
#[test]
#[ignore = "builds the full experiment; run with --release -- --ignored"]
fn hostile_audio_scores_without_panicking() {
    let fx = fixture();
    let system = reloaded_system(fx);
    let mut scratch = DecodeScratch::new();
    let clean = &fx.waves[0];

    for len in [0, 1, 199, 200, 279, 280] {
        let detail = system.score_detailed(&clean[..len], &mut scratch);
        assert_eq!(detail.fused.len(), system.num_classes(), "{len} samples");
        assert!(detail.fused.iter().all(|v| v.is_finite()), "{len} samples");
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
            let llrs = system.score(&samples, &mut scratch);
            assert_eq!(llrs.len(), system.num_classes(), "{what} with {bad}");
            assert!(
                llrs.iter().all(|v| v.is_finite()),
                "{what} with {bad}: {llrs:?}"
            );
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
fn spans_stay_monotone_when_a_helper_shares_the_request() {
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
                .score(samples)
                .unwrap_or_else(|e| panic!("{what}: reply does not decode: {e}"));
            let ScoreReply::Scored(scored) = reply else {
                panic!("{what} refused: {reply:?}");
            };
            assert_bits_eq(&scored.llrs, &system.score(samples, &mut scratch), &what);
            let span = scored.span;
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
/// and the tap sees the serial `score_detailed`'s per-subsystem rows
/// and supervectors, in subsystem order. Hostile audio in the same stream
/// is refused `bad request` and never teed.
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
        .map(|u| system.score_detailed(u, &mut scratch))
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
            let admitted = |u: &Vec<f32>| admissible(u);
            assert_eq!(teed.len(), utts.iter().filter(|u| admitted(u)).count());
            for (u, (reply, want)) in replies.iter().zip(&serial).enumerate() {
                let what = format!("workers {workers} inflight {inflight} utt {u}");
                if !admitted(&utts[u]) {
                    assert_eq!(*reply, ScoreReply::BadRequest, "{what}");
                    assert!(teed.iter().all(|d| d.digest != want.digest), "{what}");
                    continue;
                }
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

/// The streamed decode `lre-serve` and `lre-adaptd` load with refuses
/// `bytes` with the very error `from_artifact_bytes` gives.
fn refused_alike(bytes: &[u8], what: &str) {
    let text = |e: ArtifactError| e.to_string();
    let want = SystemBundle::from_artifact_bytes(bytes).err().map(text);
    assert!(want.is_some(), "{what}: the reference decode accepted it");
    let streamed = SystemBundle::decode_stream(Cursor::new(bytes))
        .err()
        .map(text);
    assert_eq!(streamed, want, "{what}: streamed decode");
}

/// A file rewritten between the streamed decode's two passes: `first`
/// until the rewind, `second` after it.
struct Rewritten {
    now: Cursor<Vec<u8>>,
    next: Option<Vec<u8>>,
}

impl Read for Rewritten {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.now.read(buf)
    }
}

impl Seek for Rewritten {
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        if let Some(next) = self.next.take() {
            self.now = Cursor::new(next);
        }
        self.now.seek(pos)
    }
}

#[test]
fn streamed_decode_refuses_every_flip_and_cut_like_the_plain_decode() {
    // The semantically invalid bundle above: every truncation and every
    // single-byte flip of it, and the intact container itself.
    let mut w = lre_artifact::ArtifactWriter::new();
    w.put_u64(7);
    w.put_str("smoke");
    w.put_u32(2);
    lre_svm::SvmTrainConfig::default().write_payload(&mut w);
    w.put_bytes(&[0; 17]); // root lineage
    w.put_u32(0); // fusions
    w.put_u32(0); // subsystems
    w.put_u64_slice(&[0]);
    let sealed = lre_artifact::seal(SystemBundle::KIND, SystemBundle::VERSION, &w.into_bytes());
    refused_alike(&sealed, "intact but empty");
    for cut in 0..sealed.len() {
        refused_alike(&sealed[..cut], &format!("truncation at {cut}"));
    }
    for byte in 0..sealed.len() {
        for flip in [0x01, 0x80, 0xFF] {
            let mut bad = sealed.clone();
            bad[byte] ^= flip;
            refused_alike(&bad, &format!("byte {byte} ^ {flip:#04x}"));
        }
    }
}

/// The fixture bundle decoded through `decode_stream`, so
/// `check_damage_detected` drives the streamed entry point.
struct ViaStreamed;

impl ArtifactWrite for ViaStreamed {
    const KIND: [u8; 4] = SystemBundle::KIND;
    const VERSION: u32 = SystemBundle::VERSION;

    fn write_payload(&self, _: &mut lre_artifact::ArtifactWriter) {
        unreachable!("only decoded")
    }
}

impl ArtifactRead for ViaStreamed {
    fn read_payload(_: &mut lre_artifact::ArtifactReader) -> Result<Self, ArtifactError> {
        unreachable!("from_artifact_bytes is overridden")
    }

    fn from_artifact_bytes(bytes: &[u8]) -> Result<Self, ArtifactError> {
        SystemBundle::decode_stream(Cursor::new(bytes)).map(|_| ViaStreamed)
    }
}

#[test]
#[ignore = "builds the full experiment; run with --release -- --ignored"]
fn streamed_decode_reseals_to_the_input_and_refuses_damage() {
    let fx = fixture();
    let (bundle, id) = SystemBundle::decode_stream(Cursor::new(&fx.bytes)).expect("decodes");
    assert_eq!(id.len, fx.bytes.len() as u64);
    assert_eq!(bundle.subsystems.len(), standard_subsystems().len());
    assert_eq!(
        bundle.lineage.generation, 0,
        "a trained bundle is a lineage root"
    );
    assert!(
        bundle.to_artifact_bytes() == fx.bytes,
        "the decoded bundle reseals to the input"
    );
    for probe in [0, 7, 4_099, 65_537, 1_000_003, fx.bytes.len() - 3] {
        lre_artifact::check_damage_detected::<ViaStreamed>(&fx.bytes, probe);
        let mut bad = fx.bytes.clone();
        bad[probe % fx.bytes.len()] ^= 0x5A;
        refused_alike(&bad, &format!("byte {probe} ^ 0x5a"));
    }
}

/// A small bundle trained in about a second: two subsystems over one tiny
/// GMM acoustic model, a bigram supervector builder, and one fusion per
/// duration fitted on synthetic scores.
fn synthetic_bundle() -> SystemBundle {
    let inv = UniversalInventory::new();
    let set = PhoneSet::standard(PhoneSetId::Cz, &inv);
    let lang = build_language(LanguageId::Czech, 7, &inv);
    let utts: Vec<UttSpec> = (0..4)
        .map(|i| UttSpec {
            language: LanguageId::Czech,
            speaker_seed: i,
            channel: Channel::telephone(25.0),
            num_frames: 60,
            seed: 1000 + i,
        })
        .collect();
    let cfg = AmTrainConfig {
        gmm_mixtures: 1,
        gmm_em_iters: 1,
        ..AmTrainConfig::for_family(AmFamily::GmmHmm, 3)
    };
    let am = train_acoustic_model(&set, &utts, &lang, &inv, &cfg).to_artifact_bytes();
    let (classes, svm) = (3, SvmTrainConfig::default());
    let labels: Vec<usize> = (0..12).map(|i| i % classes).collect();
    let subsystems = (0..2u8)
        .map(|q| {
            let builder = SupervectorBuilder::new(set.len(), 2);
            let dim = builder.dim();
            let xs: Vec<SparseVec> = (0..labels.len())
                .map(|i| SparseVec::from_pairs(vec![(((i * 5) % dim) as u32, 0.5 + i as f32)]))
                .collect();
            SubsystemBundle {
                spec_index: q,
                decoder: DecoderConfig::default(),
                am: AcousticModel::from_artifact_bytes(&am).expect("AM reloads"),
                scaler: TfllrScaler::fit(&xs, dim, 1e-3),
                vsm: OneVsRest::train(&xs, &labels, classes, dim, &svm),
                builder,
            }
        })
        .collect();
    let scores = |q: usize| {
        let mut m = ScoreMatrix::new(classes);
        for (j, &l) in labels.iter().enumerate() {
            let row: Vec<f32> = (0..classes)
                .map(|k| f32::from(k == l) * 2.0 - 1.0 + ((j * 3 + k + q) % 5) as f32 * 0.1)
                .collect();
            m.push_row(&row);
        }
        m
    };
    let (a, b) = (scores(0), scores(1));
    let fusions = Duration::all()
        .iter()
        .map(|_| LdaMmiFusion::train(&[&a, &b], &labels, &[1.0, 1.0], &MmiConfig::default()))
        .collect();
    SystemBundle {
        seed: 7,
        scale_name: "synthetic".into(),
        max_order: 2,
        svm,
        lineage: Lineage::root(),
        subsystems,
        fusions,
    }
}

/// `bytes` in a file of this test process under Cargo's scratch
/// directory, with the identity a check of it proves.
fn bundle_file(bytes: &[u8], tag: &str) -> SealedFile {
    let name = format!("serve_roundtrip_{}_{tag}.bundle", std::process::id());
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, bytes).expect("bundle written");
    let (kind, version) = (SystemBundle::KIND, SystemBundle::VERSION);
    let id = check_stream(bytes, kind, version).expect("bundle checks");
    SealedFile { path, id }
}

/// VSMs other than `bundle`'s, of its subsystems' dimensions: each
/// trained on a few synthetic supervectors.
fn other_vsms(bundle: &SystemBundle) -> Vec<OneVsRest> {
    let classes = bundle.fusions[0].num_classes();
    let labels: Vec<usize> = (0..2 * classes).map(|i| i % classes).collect();
    (bundle.subsystems.iter().enumerate())
        .map(|(q, sub)| {
            let dim = sub.builder.dim();
            let xs: Vec<SparseVec> = (0..labels.len())
                .map(|i| SparseVec::from_pairs(vec![(((i * 7 + q) % dim) as u32, 1.0 + i as f32)]))
                .collect();
            OneVsRest::train(&xs, &labels, classes, dim, &bundle.svm)
        })
        .collect()
}

/// `BundleParent` reads from the file what the decode reads, and the
/// candidate it splices from the file is `to_artifact_bytes` of the
/// decoded bundle with its VSMs and lineage replaced, bit for bit. A
/// parent file replaced by a bundle one payload byte away (same length,
/// valid container) is refused by the read and by the splice.
fn assert_splice_is_the_reencoded_bundle(bytes: &[u8], tag: &str) {
    let file = bundle_file(bytes, tag);
    let parent = BundleParent::read(file.clone()).expect("parent reads");
    let mut bundle = SystemBundle::from_artifact_bytes(bytes).expect("bundle decodes");
    assert_eq!(parent.lineage(), bundle.lineage);
    assert!(parent.svm().to_artifact_bytes() == bundle.svm.to_artifact_bytes());
    assert_eq!(parent.fusions().len(), bundle.fusions.len());
    for (got, want) in parent.fusions().iter().zip(&bundle.fusions) {
        assert!(
            got.to_artifact_bytes() == want.to_artifact_bytes(),
            "{tag}: fusion"
        );
    }
    assert_eq!(parent.vsms().len(), bundle.subsystems.len());
    for (q, sub) in bundle.subsystems.iter().enumerate() {
        assert_eq!(parent.dim(q), sub.builder.dim());
        let read = parent.vsms()[q].to_artifact_bytes();
        assert!(read == sub.vsm.to_artifact_bytes(), "{tag}: VSM {q}");
    }

    let vsms = other_vsms(&bundle);
    let lineage = Lineage {
        generation: bundle.lineage.generation + 1,
        parent_checksum: file.id.crc,
        selected_utts: 11,
        v_threshold: 3,
    };
    let out = file.path.with_extension("candidate");
    let id = parent
        .splice(&vsms, lineage, &out)
        .expect("candidate splices");
    for (sub, vsm) in bundle.subsystems.iter_mut().zip(vsms) {
        sub.vsm = vsm;
    }
    bundle.lineage = lineage;
    let want = bundle.to_artifact_bytes();
    assert!(
        std::fs::read(&out).expect("candidate written") == want,
        "{tag}: the splice is the re-encoded bundle"
    );
    assert_eq!(
        id,
        check_stream(&want[..], SystemBundle::KIND, SystemBundle::VERSION).unwrap()
    );
    assert_ne!(
        id.crc, file.id.crc,
        "{tag}: the candidate has its own identity"
    );

    let (kind, version) = (SystemBundle::KIND, SystemBundle::VERSION);
    let mut payload = lre_artifact::open(bytes, kind, version).unwrap().to_vec();
    payload[0] ^= 1;
    std::fs::write(&file.path, lre_artifact::seal(kind, version, &payload)).unwrap();
    assert!(
        BundleParent::read(file.clone()).is_err(),
        "{tag}: replaced parent read"
    );
    let again = parent.splice(&other_vsms(&bundle), lineage, &out);
    assert!(again.is_err(), "{tag}: replaced parent spliced");
    std::fs::remove_file(&file.path).ok();
    std::fs::remove_file(&out).ok();
}

#[test]
fn the_splice_of_a_synthetic_bundle_is_its_reencoding_bit_for_bit() {
    let bytes = synthetic_bundle().to_artifact_bytes();
    assert_splice_is_the_reencoded_bundle(&bytes, "synthetic");
}

#[test]
#[ignore = "builds the full experiment; run with --release -- --ignored"]
fn the_splice_of_the_smoke_bundle_is_its_reencoding_bit_for_bit() {
    assert_splice_is_the_reencoded_bundle(&fixture().bytes, "smoke");
}

#[test]
#[ignore = "builds the full experiment; run with --release -- --ignored"]
fn streamed_decode_is_the_slice_decode_and_refuses_a_file_that_changed() {
    let fx = fixture();
    let (bundle, id) = SystemBundle::decode_stream(Cursor::new(&fx.bytes)).expect("streams");
    assert!(
        bundle.to_artifact_bytes() == fx.bytes,
        "the streamed bundle reseals to the input"
    );
    assert_eq!(id.len, fx.bytes.len() as u64);
    assert_eq!(id.crc, lre_artifact::bundle_checksum(&fx.bytes));

    // Another valid bundle in the file's place by the second pass.
    let mut other = bundle;
    other.lineage.generation = 5;
    assert_ne!(
        lre_artifact::bundle_checksum(&other.to_artifact_bytes()),
        id.crc,
        "another bundle has another identity"
    );
    let rewritten = Rewritten {
        now: Cursor::new(fx.bytes.clone()),
        next: Some(other.to_artifact_bytes()),
    };
    assert!(matches!(
        SystemBundle::decode_stream(rewritten),
        Err(ArtifactError::ChecksumMismatch)
    ));
}

const SERVE: &str = env!("CARGO_BIN_EXE_lre-serve");

/// Start a serving binary with `args` (and `--addr 127.0.0.1:0`) under
/// `tmpdir` as its `TMPDIR`, and wait for the address it prints.
fn spawn_listening(bin: &Path, args: &[&str], tmpdir: &Path) -> (Child, String) {
    let mut child = Command::new(bin)
        .args(args)
        .args(["--addr", "127.0.0.1:0"])
        .env("TMPDIR", tmpdir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap_or_else(|e| panic!("{} spawns: {e}", bin.display()));
    let stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let addr = stdout
        .lines()
        .map_while(Result::ok)
        .find_map(|l| Some(l.strip_prefix("listening on ")?.trim().to_string()))
        .unwrap_or_else(|| panic!("{} prints its address", bin.display()));
    (child, addr)
}

/// A fresh directory under the system temp dir holding the fixture's
/// bundle and a private `TMPDIR`.
fn scratch_root(tag: &str) -> (PathBuf, PathBuf, PathBuf) {
    let root = std::env::temp_dir().join(format!("lre_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let tmp = root.join("tmp");
    std::fs::create_dir_all(&tmp).expect("private TMPDIR");
    let bundle = root.join("smoke.bundle");
    std::fs::write(&bundle, &fixture().bytes).expect("bundle written");
    (root, tmp, bundle)
}

/// The `lre-serve` binary as a fleet replica without `--wal-dir`: its vote
/// window is a scratch WAL under its own `TMPDIR`, which holds the window
/// while it serves and is empty again after a graceful shutdown.
#[test]
#[ignore = "builds the full experiment; run with --release -- --ignored"]
fn a_fleet_replica_keeps_its_votes_in_tmpdir_and_leaves_it_empty() {
    let fx = fixture();
    let (root, tmp, bundle) = scratch_root("scratch_votes");
    let bundle = bundle.to_str().expect("a UTF-8 path");
    let args = ["--bundle", bundle, "--fleet", "--workers", "1"];
    let (mut child, addr) = spawn_listening(Path::new(SERVE), &args, &tmp);

    let mut client = Client::connect(&addr).expect("client connects");
    for wave in &fx.by_duration {
        assert!(matches!(
            client.score(wave).expect("score"),
            ScoreReply::Scored(_)
        ));
    }
    let windows: Vec<_> = std::fs::read_dir(&tmp)
        .expect("TMPDIR reads")
        .map(|e| e.expect("entry").path())
        .collect();
    assert_eq!(windows.len(), 1, "one scratch window: {windows:?}");
    let name = windows[0]
        .file_name()
        .unwrap()
        .to_string_lossy()
        .into_owned();
    assert!(name.starts_with("lre-votes-"), "{name}");
    let wal = std::fs::metadata(windows[0].join(lre_wal::LOG_FILE)).expect("the window's WAL");
    assert!(wal.len() > 0);
    // The replica reports no WAL: a scratch window has nothing to recover.
    assert_eq!(client.wal_status().expect("stats-v3 round trip"), None);

    // A second connection stays open through the shutdown, as a router's
    // do: the server joins it before it exits and drops the log.
    let idle = Client::connect(&addr).expect("second client connects");
    client.shutdown().expect("shutdown acknowledged");
    assert!(child.wait().expect("lre-serve exits").success());
    let left: Vec<_> = std::fs::read_dir(&tmp).expect("TMPDIR reads").collect();
    assert!(left.is_empty(), "a clean shutdown left {left:?}");
    drop(idle);
    std::fs::remove_dir_all(&root).ok();
}

/// 30 s scores pipelined on one connection before the shutdown.
const IN_FLIGHT: usize = 24;

/// A graceful shutdown answers every score admitted before it. `routed`:
/// the front is `lre-router` over two `lre-serve --workers 1` replicas
/// (the binary beside `lre-serve`); otherwise one `lre-serve --workers 1`.
/// [`IN_FLIGHT`] 30 s scores are pipelined on one connection, a shutdown
/// is sent on a second, and the first is read to EOF: every id must get
/// exactly one reply, scored or (read after the stop) `shutting down`,
/// and every process must exit 0.
fn shutdown_answers_every_admitted_score(routed: bool) {
    let fx = fixture();
    let tag = if routed {
        "routed_drain"
    } else {
        "direct_drain"
    };
    let (root, tmp, bundle) = scratch_root(tag);
    let bundle = bundle.to_str().expect("a UTF-8 path");
    let replica_args = ["--bundle", bundle, "--workers", "1"];
    let mut children = Vec::new();
    let front = if routed {
        let router = Path::new(SERVE).with_file_name("lre-router");
        assert!(
            router.exists(),
            "{} is missing: cargo build --release -p lre-router",
            router.display()
        );
        let mut router_args = Vec::new();
        for _ in 0..2 {
            let (child, addr) = spawn_listening(Path::new(SERVE), &replica_args, &tmp);
            children.push(("lre-serve", child));
            router_args.extend(["--replica".to_string(), addr]);
        }
        let router_args: Vec<&str> = router_args.iter().map(String::as_str).collect();
        let (child, addr) = spawn_listening(&router, &router_args, &tmp);
        children.push(("lre-router", child));
        addr
    } else {
        let (child, addr) = spawn_listening(Path::new(SERVE), &replica_args, &tmp);
        children.push(("lre-serve", child));
        addr
    };

    let long: Vec<&Vec<f32>> = fx.by_duration.iter().take(2).collect();
    let mut client = Client::connect(&front).expect("client connects");
    for n in 0..IN_FLIGHT {
        client.submit(long[n % 2], None).expect("submit");
    }
    Client::connect(&front)
        .and_then(|mut c| c.shutdown())
        .expect("shutdown acknowledged");
    let mut replies: HashMap<u64, Vec<ScoreReply>> = HashMap::new();
    while let Ok((id, reply)) = client.recv() {
        replies.entry(id).or_default().push(reply);
    }
    let missing = (0..IN_FLIGHT as u64)
        .filter(|id| !replies.contains_key(id))
        .count();
    let wrong: Vec<_> = replies
        .iter()
        .filter(|(_, r)| {
            !matches!(
                r.as_slice(),
                [ScoreReply::Scored(_) | ScoreReply::ShuttingDown]
            )
        })
        .collect();
    let exits: Vec<_> = children
        .into_iter()
        .map(|(name, mut child)| (name, child.wait().expect("exits")))
        .filter(|(_, status)| !status.success())
        .collect();
    std::fs::remove_dir_all(&root).ok();
    assert_eq!(missing, 0, "{missing} of {IN_FLIGHT} scores never answered");
    assert!(
        wrong.is_empty(),
        "not one scored or shutting-down reply: {wrong:?}"
    );
    assert!(exits.is_empty(), "exited non-zero: {exits:?}");
}

#[test]
#[ignore = "builds the full experiment; run with --release -- --ignored"]
fn a_server_shutdown_answers_every_admitted_score() {
    shutdown_answers_every_admitted_score(false);
}

#[test]
#[ignore = "builds the full experiment; run with --release -- --ignored"]
fn a_router_shutdown_answers_every_admitted_score() {
    shutdown_answers_every_admitted_score(true);
}
