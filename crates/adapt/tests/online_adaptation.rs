//! End-to-end online adaptation acceptance: serve a trained bundle, stream
//! the full test pool through it over TCP, run one adaptation cycle, and
//! require the post-swap served LLRs to be **bit-identical** to an offline
//! `run_dba` (M1, same V) over the same utterances — the contract that the
//! online loop is the offline boosting round, not an approximation of it.
//!
//! The second test forces the eval guard to reject (negative regression
//! slack) and requires the serving generation, checksum, and scores to be
//! untouched — a rejected candidate must leave no trace in serving. The
//! third drives the durable (WAL + lineage) controller across restarts and
//! deep rollbacks, holding every wal-status field to the WAL's status and
//! the chain on disk; the fourth runs one coordinator over two replicas;
//! the fifth holds a cycle inside the controller and requires ping and the
//! metrics dump to answer meanwhile; the sixth holds the constructor's
//! refusals; the seventh changes the guard file, and the eighth the
//! parent bundle's file (in a scratch chain and in a durable one), under
//! a running controller and requires only that cycle to fail; the ninth
//! holds lineage GC at one retained generation to what a one-deep
//! rollback restores. The promote and the guard-reject cases also hold
//! the controller's `adapt.*` series to what the cycle reported.
//!
//! Like `lre-serve`'s `serve_roundtrip`, these build the full smoke-scale
//! experiment (minutes in release), shared through a `OnceLock`, so they
//! are `#[ignore]` by default:
//!
//! ```text
//! cargo test --release -p lre-adapt --test online_adaptation -- --ignored
//! ```

use lre_adapt::{boost_round, AdaptConfig, AdaptController, DrainPath, RoundOutcome, VoteLog};
use lre_artifact::{
    bundle_checksum, check_stream, ArtifactError, ArtifactRead, ArtifactWrite, SealedFile,
};
use lre_corpus::{render_utterance, Duration, Scale};
use lre_dba::dba::baseline_votes;
use lre_dba::{run_dba, DbaVariant, Experiment, ExperimentConfig, GuardFile, GuardSet};
use lre_eval::ScoreMatrix;
use lre_lattice::DecodeScratch;
use lre_obs::{
    FlightRecorder, MetricValue, Registry, EV_BUNDLE_FAILED, EV_GUARD_ACCEPT, EV_GUARD_FAILED,
    EV_GUARD_REJECT, EV_PROMOTE, EV_SWAP,
};
use lre_serve::client::ScoreReply;
use lre_serve::protocol::{
    AbortAck, CommitAck, RollbackAck, StageAck, STATUS_CONFLICT, STATUS_INTERNAL,
};
use lre_serve::{
    vote_wal_options, AdaptReport, Client, EngineConfig, FleetControl, FleetReplica, ScoreDetail,
    ScoreTap, Scorer, ScorerHandle, ScoringSystem, Server, ServerConfig, ServerHooks, SystemBundle,
    VoteRecord, WalStatusInfo, ADAPT_FAILED, ADAPT_INSUFFICIENT_DATA, ADAPT_PROMOTED,
    ADAPT_REJECTED_GUARD,
};
use lre_wal::LineageStore;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

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
    /// `bytes` in a file, as `lre-adaptd` is handed `--bundle`.
    bundle_path: PathBuf,
    guard: GuardSet,
    /// `guard`, sealed into a file every controller reads.
    guard_path: PathBuf,
    /// Fused baseline scores per duration (pre-adaptation serving).
    expected_baseline: Vec<ScoreMatrix>,
    /// Fused scores per duration after an offline `run_dba` (M1, V) round
    /// — what serving must produce once the online cycle promotes.
    expected_adapted: Vec<ScoreMatrix>,
    offline_selected: usize,
    /// `[duration][utt]`: the baseline vote matrix's `c_jk` at each test
    /// utterance's winning language (Table 1's vote counts).
    winning_votes: Vec<Vec<u8>>,
}

static FIXTURE: OnceLock<Fixture> = OnceLock::new();

fn fixture() -> &'static Fixture {
    FIXTURE.get_or_init(|| {
        let cfg = ExperimentConfig::new(Scale::Smoke, 42);
        let exp = Experiment::build(&cfg);
        let guard = GuardSet::from_experiment(&exp);
        let guard_path = write_shared("fixture.guard", &guard.to_artifact_bytes());

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
        let winning_votes = Duration::all()
            .iter()
            .map(|&d| {
                let votes = baseline_votes(&exp, d);
                (0..votes.num_utts()).map(|j| votes.winner(j).1).collect()
            })
            .collect();

        let bytes = SystemBundle::from_experiment(exp).to_artifact_bytes();
        let bundle_path = write_shared("fixture.bundle", &bytes);
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
            bundle_path,
            guard,
            guard_path,
            offline_selected,
            winning_votes,
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

fn server_config() -> ServerConfig {
    ServerConfig {
        engine: EngineConfig {
            workers: 2,
            queue_capacity: 64,
            unknown_threshold: None,
        },
        max_inflight: 8,
    }
}

/// A file of this test process under Cargo's scratch directory.
fn scratch_path(name: &str) -> PathBuf {
    let name = format!("online_adaptation_{}_{name}", std::process::id());
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// `bytes` under one name in Cargo's scratch directory, shared by every
/// run: written to a file of this process, then renamed over the last
/// run's copy, so reruns replace the fixture instead of adding one.
fn write_shared(name: &str, bytes: &[u8]) -> PathBuf {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("online_adaptation_{name}"));
    let partial = scratch_path(name);
    std::fs::write(&partial, bytes).expect("fixture file written");
    std::fs::rename(&partial, &path).expect("fixture file renamed into place");
    path
}

/// A guard file of this test process under Cargo's scratch directory.
fn guard_file_path(tag: &str) -> PathBuf {
    scratch_path(&format!("{tag}.guard"))
}

/// The fixture's guard file, validated as `lre-adaptd` validates `--guard`.
fn guard(fx: &Fixture) -> GuardFile {
    GuardFile::open(&fx.guard_path).expect("guard validates")
}

/// `bytes` (a sealed bundle) one payload byte away: the seed's low byte
/// flipped, resealed. A valid bundle of the same length, another identity.
fn twin(bytes: &[u8]) -> Vec<u8> {
    let (kind, version) = (SystemBundle::KIND, SystemBundle::VERSION);
    let mut payload = lre_artifact::open(bytes, kind, version)
        .expect("bundle opens")
        .to_vec();
    payload[0] ^= 1;
    lre_artifact::seal(kind, version, &payload)
}

/// The bundle file at `path` with the identity a check of it proves, as
/// a controller is handed it.
fn sealed(path: &Path) -> SealedFile {
    let file = std::fs::File::open(path).expect("bundle file opens");
    let id = check_stream(file, SystemBundle::KIND, SystemBundle::VERSION).expect("bundle checks");
    SealedFile {
        path: path.to_path_buf(),
        id,
    }
}

/// A served bundle with its vote log tapped, the `FleetReplica` over the
/// two — what an adaptation controller drives, in process — and the
/// bundle's file with the identity its streamed decode proved, as
/// `lre-adaptd` hands it to its controller.
struct Replica {
    handle: Arc<ScorerHandle>,
    replica: Arc<FleetReplica>,
    hooks: ServerHooks,
    sealed: SealedFile,
}

fn replica(path: &Path, log: Arc<VoteLog>, hooks: ServerHooks) -> Replica {
    let (bundle, id) = SystemBundle::load_streamed(path).expect("bundle reloads");
    let sealed = SealedFile {
        path: path.to_path_buf(),
        id,
    };
    let system = Arc::new(ScoringSystem::from_bundle(bundle).expect("bundle is coherent"));
    let handle = Arc::new(ScorerHandle::new(system, sealed.id.crc));
    let replica = FleetReplica::new(
        Arc::clone(&handle),
        Arc::clone(&log),
        Arc::clone(&hooks.obs.flight),
    );
    Replica {
        handle,
        replica: Arc::new(replica),
        hooks: ServerHooks {
            tap: Some(log as _),
            ..hooks
        },
        sealed,
    }
}

struct Harness {
    handle: Arc<ScorerHandle>,
    controller: Arc<AdaptController>,
    server: Server,
    /// The recorder the controller and its replica share, as in
    /// `lre-adaptd`.
    flight: Arc<FlightRecorder>,
}

/// How many events of `kind` the recorder holds.
fn events(flight: &FlightRecorder, kind: u8) -> usize {
    flight.peek().iter().filter(|e| e.kind == kind).count()
}

/// An in-process replica's vote log over a scratch WAL, as `lre-adaptd`
/// without `--wal-dir` builds it.
fn scratch_log(capacity: usize, registry: &Registry) -> VoteLog {
    VoteLog::new(capacity, DrainPath::InProcess, vote_wal_options(), registry)
        .expect("scratch vote WAL opens")
}

/// Stand up an adapting server over the fixture bundle: the `lre-adaptd`
/// shape, one controller over the one in-process replica it serves from.
/// A single v1 client scores one utterance at a time, so the vote log's
/// arrival order is exactly the drive order regardless of worker count.
fn start_adaptive_server(fx: &Fixture, cfg: AdaptConfig) -> Harness {
    start_adaptive_server_with(fx, cfg, guard(fx))
}

/// [`start_adaptive_server`] reading its guard set from `guard`.
fn start_adaptive_server_with(fx: &Fixture, cfg: AdaptConfig, guard: GuardFile) -> Harness {
    let hooks = ServerHooks::default();
    let log = Arc::new(scratch_log(4096, &hooks.obs.registry));
    let r = replica(&fx.bundle_path, log, hooks);
    let flight = Arc::clone(&r.hooks.obs.flight);
    let controller = Arc::new(
        AdaptController::new(
            vec![r.replica],
            None,
            &r.hooks.obs.registry,
            guard,
            r.sealed,
            cfg,
            Arc::clone(&flight),
        )
        .expect("controller wires up"),
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let hooks = ServerHooks {
        control: Some(Arc::clone(&controller) as _),
        ..r.hooks
    };
    let server = Server::start(listener, Arc::clone(&r.handle), server_config(), hooks)
        .expect("server starts");
    Harness {
        handle: r.handle,
        controller,
        server,
        flight,
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
    let (bundle, head) = match lineage.head().copied() {
        Some(e) => (
            lineage.file(e.generation).expect("head is retained").path,
            e.generation,
        ),
        None => (fx.bundle_path.clone(), 0),
    };
    let mut opts = vote_wal_options();
    opts.fsync_interval = std::time::Duration::ZERO; // every append durable
    let hooks = ServerHooks::default();
    let flight = Arc::clone(&hooks.obs.flight);
    let registry = Arc::clone(&hooks.obs.registry);
    let (durable, recovery) = VoteLog::open(
        &dir.join("votes"),
        4096,
        DrainPath::InProcess,
        opts,
        &registry,
        Arc::clone(&flight),
    )
    .expect("vote WAL opens");
    let durable = Arc::new(durable);
    let r = replica(&bundle, Arc::clone(&durable), hooks);
    let controller = Arc::new(
        AdaptController::new(
            vec![r.replica],
            Some((lineage, keep)),
            &registry,
            guard(fx),
            r.sealed,
            cfg,
            Arc::clone(&flight),
        )
        .expect("durable controller wires up"),
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let hooks = ServerHooks {
        control: Some(Arc::clone(&controller) as _),
        ..r.hooks
    };
    let server = Server::start(listener, Arc::clone(&r.handle), server_config(), hooks)
        .expect("server starts");
    DurableHarness {
        h: Harness {
            handle: r.handle,
            controller,
            server,
            flight,
        },
        durable,
        replayed: recovery.replayed,
        head,
    }
}

/// `client`'s wal-status view, required to be field for field the vote
/// WAL's own status plus the lineage chain on disk under `dir`.
fn wal_status(client: &mut Client, durable: &VoteLog, dir: &Path) -> WalStatusInfo {
    let view = client
        .wal_status()
        .expect("wal-status round trip")
        .expect("WAL is mounted");
    let wal = durable.wal_status().expect("opened on a directory");
    let chain = LineageStore::open(&dir.join("lineage")).expect("chain opens");
    let want = WalStatusInfo {
        appended: wal.next_seq,
        low_water: wal.low_water,
        buffered: wal.buffered,
        segments: u64::from(wal.buffered > 0),
        replayed: wal.replayed,
        torn: wal.torn,
        fsyncs: wal.fsyncs,
        lineage_head: chain.head().map_or(0, |e| e.generation),
        lineage_entries: chain.entries().len() as u32,
        lineage_retained: chain.retained() as u32,
        lineage_bytes: chain.retained_bytes(),
        chain_ok: true,
    };
    assert_eq!(view, want);
    view
}

/// The controller's `adapt.*` series in `client`'s stats-v3 dump, held to
/// the reports of every cycle run so far, to the guard flight events in
/// `flight`, and to the offline `c_jk` of the drained utterances.
fn assert_adapt_series(
    client: &mut Client,
    reports: &[AdaptReport],
    flight: &FlightRecorder,
    winning_votes: &[u8],
) {
    let dump = client
        .metrics()
        .expect("stats-v3 round trip")
        .expect("answered");
    let value = |name: &str| {
        let found = dump.iter().find(|(n, _)| n == name);
        found
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("{name} missing from the dump"))
    };
    let histogram = |name: &str| match value(name) {
        MetricValue::Histogram(h) => h,
        other => panic!("{name} is {other:?}, not a histogram"),
    };
    let sketch = |name: &str| match value(name) {
        MetricValue::Sketch(s) => s,
        other => panic!("{name} is {other:?}, not a sketch"),
    };

    let outcomes = [
        ("promoted", ADAPT_PROMOTED),
        ("rejected_guard", ADAPT_REJECTED_GUARD),
        ("insufficient", ADAPT_INSUFFICIENT_DATA),
        ("failed", ADAPT_FAILED),
    ];
    for (name, code) in outcomes {
        let cycles = reports.iter().filter(|r| r.outcome == code).count() as u64;
        let series = format!("adapt.cycles.{name}");
        assert_eq!(value(&series), MetricValue::Counter(cycles), "{series}");
    }
    let total = |count: fn(&AdaptReport) -> u32| reports.iter().map(|r| u64::from(count(r))).sum();
    assert_eq!(
        value("adapt.drained"),
        MetricValue::Counter(total(|r| r.drained))
    );
    assert_eq!(
        value("adapt.selected"),
        MetricValue::Counter(total(|r| r.selected))
    );
    assert_eq!(value("adapt.v_threshold"), MetricValue::Gauge(u64::from(V)));
    assert_eq!(histogram("adapt.cycle_ms").count, reports.len() as u64);

    // Table 1, live: one sample per drained utterance, the served votes'
    // counts equal to the offline baseline vote matrix's.
    let votes = histogram("adapt.c_jk");
    let want = winning_votes.iter().map(|&c| u64::from(c));
    assert_eq!(votes.count, winning_votes.len() as u64, "adapt.c_jk count");
    assert_eq!(votes.sum, want.clone().sum::<u64>(), "adapt.c_jk sum");
    assert_eq!(votes.max, want.max().unwrap_or(0), "adapt.c_jk max");

    // One reading of each model per guarded round; with one round, the
    // readings' differences are the deltas its flight event carries.
    let guarded: Vec<_> = flight
        .peek()
        .into_iter()
        .filter(|e| e.kind == EV_GUARD_ACCEPT || e.kind == EV_GUARD_REJECT)
        .collect();
    let [parent_eer, candidate_eer, parent_cavg, candidate_cavg] = [
        "adapt.guard.parent_eer",
        "adapt.guard.candidate_eer",
        "adapt.guard.parent_min_cavg",
        "adapt.guard.candidate_min_cavg",
    ]
    .map(sketch);
    for s in [parent_eer, candidate_eer, parent_cavg, candidate_cavg] {
        assert_eq!(
            s.count,
            guarded.len() as u64,
            "one reading per guarded round"
        );
    }
    if let ([event], [report]) = (guarded.as_slice(), reports) {
        let eer_delta = candidate_eer.mean - parent_eer.mean;
        let cavg_delta = candidate_cavg.mean - parent_cavg.mean;
        assert_eq!(eer_delta.to_bits(), event.x.to_bits(), "EER delta");
        assert_eq!(cavg_delta.to_bits(), event.y.to_bits(), "min-Cavg delta");
        let counts = (u64::from(report.selected), u64::from(report.drained));
        assert_eq!((event.a, event.b), counts, "guard event counts");
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
    // The controller records its decisions, the replica its install: one
    // of each, in the one recorder `lre-adaptd` serves `--flight` from.
    assert_eq!(events(&h.flight, EV_GUARD_ACCEPT), 1);
    assert_eq!(events(&h.flight, EV_PROMOTE), 1);
    assert_eq!(events(&h.flight, EV_SWAP), 1);
    // Without a WAL there is no wal-status view.
    assert_eq!(client.wal_status().expect("round trip"), None);
    // The replica is driven in process only: the wire still refuses the
    // fleet-rollout tags, as it always has on an adapting server.
    assert!(client.rollback().is_err(), "rollback tag is not answered");
    assert!(
        client.drain_votes(true, 0).is_err(),
        "drain tag is not answered"
    );
    let mut client = Client::connect(addr).expect("client reconnects");
    let drained: Vec<u8> = fx.winning_votes.concat();
    assert_adapt_series(&mut client, &[report], &h.flight, &drained);

    // Lineage: the promoted bundle names its parent by checksum.
    let cand_bytes = h.controller.current_file().read().expect("candidate reads");
    assert_eq!(h.handle.checksum(), bundle_checksum(&cand_bytes));
    assert_ne!(
        bundle_checksum(&cand_bytes),
        bundle_checksum(&fx.bytes),
        "the candidate has an identity of its own"
    );
    let cand = SystemBundle::from_artifact_bytes(&cand_bytes).expect("candidate reloads");
    assert_eq!(cand.lineage.generation, 1);
    assert_eq!(cand.lineage.parent_checksum, bundle_checksum(&fx.bytes));
    assert_eq!(cand.lineage.selected_utts as usize, fx.offline_selected);
    assert_eq!(cand.lineage.v_threshold, V);
    // The candidate was spliced from the parent's file: it is the parent
    // re-encoded with the new VSMs and lineage, bit for bit.
    let mut reencoded = SystemBundle::from_artifact_bytes(&fx.bytes).expect("parent decodes");
    for (sub, new) in reencoded.subsystems.iter_mut().zip(cand.subsystems) {
        sub.vsm = new.vsm;
    }
    reencoded.lineage = cand.lineage;
    assert!(
        reencoded.to_artifact_bytes() == cand_bytes,
        "the splice re-encodes"
    );

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
    let rolled = RollbackAck {
        rolled: true,
        generation: 2,
    };
    assert_eq!(h.controller.rollback(), rolled);
    assert_eq!(h.handle.checksum(), bundle_checksum(&fx.bytes));
    drive(
        &mut client,
        &fx.waves,
        &fx.expected_baseline,
        |_| 2,
        "rolled-back",
    );
    assert!(
        !h.controller.rollback().rolled,
        "one-deep history: nothing left to roll back"
    );

    client.shutdown().expect("shutdown acknowledged");
    h.server.join();
}

/// A round's verdict, comparable: outcome kind, selected, drained, guard
/// deltas as bits, and the candidate's sealed bytes.
type Verdict = ((u8, u32, u32, u64, u64), Vec<u8>);

fn verdict(round: RoundOutcome) -> Verdict {
    match round {
        RoundOutcome::Insufficient { drained } => ((0, 0, drained, 0, 0), Vec::new()),
        RoundOutcome::RejectedGuard {
            selected,
            drained,
            guard,
        } => {
            let deltas = (guard.eer_delta().to_bits(), guard.cavg_delta().to_bits());
            ((1, selected, drained, deltas.0, deltas.1), Vec::new())
        }
        RoundOutcome::Candidate(c) => {
            let deltas = (
                c.guard.eer_delta().to_bits(),
                c.guard.cavg_delta().to_bits(),
            );
            let bytes = c.file.read().expect("candidate file reads");
            std::fs::remove_file(&c.file.path).ok();
            ((2, c.selected, c.drained, deltas.0, deltas.1), bytes)
        }
    }
}

/// The guard file is read by every cycle. Gone, damaged in place or
/// replaced by a guard set of another shape, it fails that cycle typed:
/// `failed`, a `guard_failed` flight event naming the path, no verdict and
/// no install, and serving goes on. Put back, the next cycle promotes.
#[test]
#[ignore = "builds the full experiment; run with --release -- --ignored"]
fn a_guard_file_changed_under_a_running_controller_fails_only_that_cycle() {
    let fx = fixture();
    let path = guard_file_path("changed");
    let sealed = fx.guard.to_artifact_bytes();
    std::fs::write(&path, &sealed).expect("guard written");
    let cfg = AdaptConfig {
        v_threshold: V,
        min_utts: 8,
        max_eer_regress: f64::INFINITY,
        max_cavg_regress: f64::INFINITY,
    };
    let h = start_adaptive_server_with(fx, cfg, GuardFile::open(&path).expect("guard validates"));
    let mut client = Client::connect(h.server.local_addr()).expect("client connects");

    // Eight fresh 3 s utterances before each cycle (the log keeps one vote
    // per utterance), each still served the baseline bits.
    let di = Experiment::duration_index(Duration::S3);
    let mut fed = 0;
    let mut feed = |client: &mut Client| {
        for i in fed..fed + 8 {
            match client.score(&fx.waves[di][i]).expect("score round trip") {
                ScoreReply::Scored(s) => assert_bits_eq(
                    &s.llrs,
                    fx.expected_baseline[di].row(i),
                    &format!("3 s utt {i}"),
                ),
                other => panic!("3 s utt {i} refused: {other:?}"),
            }
        }
        fed += 8;
    };

    let mut damaged = sealed.clone();
    damaged[sealed.len() / 2] ^= 0x10;
    let n = fx.guard.labels.len() - 1;
    let reshaped = GuardSet {
        labels: fx.guard.labels[..n].to_vec(),
        svs: fx.guard.svs.iter().map(|per| per[..n].to_vec()).collect(),
    };
    let changes = [
        ("missing", None),
        ("damaged", Some(damaged)),
        ("reshaped", Some(reshaped.to_artifact_bytes())),
    ];
    for (k, (what, bytes)) in changes.into_iter().enumerate() {
        match bytes {
            None => std::fs::remove_file(&path).expect("guard removed"),
            Some(bytes) => std::fs::write(&path, bytes).expect("guard rewritten"),
        }
        feed(&mut client);
        let report = client.adapt().expect("adapt round trip");
        assert_eq!(report.outcome, ADAPT_FAILED, "{what}");
        assert_eq!(
            (report.generation, h.handle.generation()),
            (0, 0),
            "{what}: nothing installed"
        );
        let failed: Vec<String> = (h.flight.peek().into_iter())
            .filter(|e| e.kind == EV_GUARD_FAILED)
            .map(|e| e.detail)
            .collect();
        assert_eq!(failed.len(), k + 1, "{what}: one guard_failed event");
        let named = format!("{}: ", path.display());
        assert!(failed[k].starts_with(&named), "{what}: {}", failed[k]);
    }
    let verdicts = [EV_GUARD_ACCEPT, EV_GUARD_REJECT, EV_PROMOTE, EV_SWAP];
    let recorded = |kinds: &[u8]| kinds.iter().map(|&k| events(&h.flight, k)).sum::<usize>();
    assert_eq!(recorded(&verdicts), 0, "no verdict, no install");

    std::fs::write(&path, &sealed).expect("guard restored");
    feed(&mut client);
    let report = client.adapt().expect("adapt round trip");
    assert_eq!(report.outcome, ADAPT_PROMOTED, "the restored guard judges");
    assert_eq!(h.handle.generation(), 1);
    assert_eq!(events(&h.flight, EV_GUARD_ACCEPT), 1);
    assert_eq!(events(&h.flight, EV_GUARD_FAILED), 3);

    client.shutdown().expect("shutdown acknowledged");
    h.server.join();
    std::fs::remove_file(&path).ok();
}

/// Score the 3 s test utterances `from..from + 8` through `client`: eight
/// fresh votes for the next cycle (the log keeps one per utterance).
fn feed_fresh(client: &mut Client, fx: &Fixture, from: usize) {
    let di = Experiment::duration_index(Duration::S3);
    for (i, w) in fx.waves[di].iter().enumerate().skip(from).take(8) {
        let reply = client.score(w).expect("score round trip");
        assert!(
            matches!(reply, ScoreReply::Scored(_)),
            "3 s utt {i}: {reply:?}"
        );
    }
}

/// The parent a cycle trains from is a file of the controller's chain — a
/// private scratch chain, or the durable lineage — read again by every
/// cycle. Gone, damaged in place or replaced by another valid bundle of
/// the same length, it fails that cycle typed: `failed`, a `bundle_failed`
/// flight event naming the file, nothing installed, and serving goes on
/// with the baseline bits. Put back, the next cycle promotes.
#[test]
#[ignore = "builds the full experiment; run with --release -- --ignored"]
fn a_parent_bundle_file_changed_under_a_running_controller_fails_only_that_cycle() {
    let fx = fixture();
    let dir = std::env::temp_dir().join(format!("lre_adapt_parent_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = AdaptConfig {
        v_threshold: V,
        min_utts: 8,
        max_eer_regress: f64::INFINITY,
        max_cavg_regress: f64::INFINITY,
    };
    let scratch = start_adaptive_server(fx, cfg);
    let durable = start_durable_server(fx, cfg, &dir, 0);
    for (mode, h) in [("scratch", scratch), ("durable", durable.h)] {
        let parent = h.controller.current_file();
        let chain = parent.path.parent().expect("a chain directory");
        match mode {
            "scratch" => {
                let name = chain.file_name().unwrap().to_string_lossy().into_owned();
                assert!(name.starts_with(&format!("lre-bundles-{}-", std::process::id())));
            }
            _ => assert_eq!(chain, dir.join("lineage")),
        }
        let original = std::fs::read(&parent.path).expect("parent file reads");
        assert!(original == fx.bytes, "{mode}: the chain's root is --bundle");
        let mut damaged = original.clone();
        damaged[original.len() / 2] ^= 0x10;
        let changes = [
            ("missing", None),
            ("damaged", Some(damaged)),
            ("replaced", Some(twin(&original))),
        ];
        let mut client = Client::connect(h.server.local_addr()).expect("client connects");
        for (k, (what, bytes)) in changes.into_iter().enumerate() {
            match bytes {
                None => std::fs::remove_file(&parent.path).expect("parent removed"),
                Some(bytes) => std::fs::write(&parent.path, bytes).expect("parent rewritten"),
            }
            feed_fresh(&mut client, fx, 8 * k);
            let report = client.adapt().expect("adapt round trip");
            assert_eq!(report.outcome, ADAPT_FAILED, "{mode} {what}");
            assert_eq!(
                (report.generation, h.handle.generation()),
                (0, 0),
                "{mode} {what}: nothing installed"
            );
            let failed: Vec<String> = (h.flight.peek().into_iter())
                .filter(|e| e.kind == EV_BUNDLE_FAILED)
                .map(|e| e.detail)
                .collect();
            assert_eq!(
                failed.len(),
                k + 1,
                "{mode} {what}: one bundle_failed event"
            );
            let named = format!("{}: ", parent.path.display());
            assert!(
                failed[k].starts_with(&named),
                "{mode} {what}: {}",
                failed[k]
            );
        }
        let verdicts = [EV_GUARD_ACCEPT, EV_GUARD_REJECT, EV_PROMOTE, EV_SWAP];
        let recorded = |kinds: &[u8]| kinds.iter().map(|&k| events(&h.flight, k)).sum::<usize>();
        assert_eq!(recorded(&verdicts), 0, "{mode}: no verdict, no install");
        drive(
            &mut client,
            &fx.waves,
            &fx.expected_baseline,
            |_| 2,
            &format!("{mode} served on"),
        );

        std::fs::write(&parent.path, &original).expect("parent restored");
        feed_fresh(&mut client, fx, 24);
        let report = client.adapt().expect("adapt round trip");
        assert_eq!(
            report.outcome, ADAPT_PROMOTED,
            "{mode}: the restored parent trains"
        );
        assert_eq!(h.handle.generation(), 1);
        client.shutdown().expect("shutdown acknowledged");
        h.server.join();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// With one generation retained, GC never prunes what the controller
/// serves or what a one-deep rollback restores: promote (generation 1),
/// deep rollback to generation 0, promote again (GC prunes generation 1,
/// not 0, now the rollback target), one-deep rollback — and the next cycle
/// trains from generation 0's file and promotes.
#[test]
#[ignore = "builds the full experiment; run with --release -- --ignored"]
fn a_retention_of_one_keeps_the_rollback_target_for_the_next_cycle() {
    let fx = fixture();
    let dir = std::env::temp_dir().join(format!("lre_adapt_keep1_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = AdaptConfig {
        v_threshold: V,
        min_utts: 8,
        max_eer_regress: f64::INFINITY,
        max_cavg_regress: f64::INFINITY,
    };
    let dh = start_durable_server(fx, cfg, &dir, 1);
    let mut client = Client::connect(dh.h.server.local_addr()).expect("client connects");
    let mut fed = 0;
    let mut promote = |client: &mut Client, what: &str| {
        feed_fresh(client, fx, fed);
        fed += 8;
        let report = client.adapt().expect("adapt round trip");
        assert_eq!(report.outcome, ADAPT_PROMOTED, "{what}");
    };
    let retained = || {
        let chain = LineageStore::open(&dir.join("lineage")).expect("chain opens");
        (chain.entries().iter())
            .filter(|e| !e.pruned)
            .map(|e| e.generation)
            .collect::<Vec<u64>>()
    };

    promote(&mut client, "first promote");
    assert_eq!(retained(), [0, 1], "generation 0 is the rollback target");
    let ack = client
        .rollback_to(0)
        .expect("round trip")
        .expect("generation 0 is retained");
    assert_eq!(ack.checksum, bundle_checksum(&fx.bytes));
    promote(&mut client, "promote after the deep rollback");
    assert_eq!(retained(), [0, 2], "generation 1 pruned, 0 kept");
    assert!(dh.h.controller.rollback().rolled, "one-deep rollback");
    assert_eq!(
        dh.h.controller.current_file().id.crc,
        bundle_checksum(&fx.bytes)
    );
    promote(&mut client, "promote from the rolled-back parent");
    let head = dh.h.controller.current_file().read().expect("head reads");
    let head = SystemBundle::from_artifact_bytes(&head).expect("head decodes");
    assert_eq!(head.lineage.generation, 3);
    assert_eq!(head.lineage.parent_checksum, bundle_checksum(&fx.bytes));
    assert_eq!(retained(), [0, 3], "generation 2 pruned, 0 kept");

    client.shutdown().expect("shutdown acknowledged");
    dh.h.server.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// The vote log drops the supervectors of records Eq. 13 can select at no
/// V. A boosting round over the trimmed window must be the round over the
/// whole records, at every V the six subsystems allow: same outcome, same
/// counts, same guard deltas, byte-identical candidate.
#[test]
#[ignore = "builds the full experiment; run with --release -- --ignored"]
fn trimming_changes_no_round_at_any_v() {
    let fx = fixture();
    let bundle = SystemBundle::from_artifact_bytes(&fx.bytes).expect("bundle reloads");
    let system = ScoringSystem::from_bundle(bundle).expect("bundle is coherent");
    let mut scratch = DecodeScratch::new();
    let details: Vec<ScoreDetail> = fx
        .waves
        .iter()
        .flatten()
        .map(|w| system.score_utt(w, &mut scratch))
        .collect();
    let whole: Vec<VoteRecord> = details.iter().cloned().map(VoteRecord::from).collect();
    let log = scratch_log(whole.len(), &Registry::new());
    for d in details {
        log.record(d);
    }
    let trimmed = log
        .drain_at_least(whole.len())
        .expect("every record admitted");
    let share = log.trimmed() as f64 / whole.len() as f64;
    eprintln!(
        "trimmed {} of {} records ({share:.3})",
        log.trimmed(),
        whole.len()
    );
    assert!(log.trimmed() > 0, "the pool must exercise the trim");

    for v in 1..=6u8 {
        // No slack limit: every round that selects seals a candidate, so
        // the bytes are compared at every V; the deltas still are too.
        let cfg = AdaptConfig {
            v_threshold: v,
            min_utts: 1,
            max_eer_regress: f64::INFINITY,
            max_cavg_regress: f64::INFINITY,
        };
        let (parent, out) = (sealed(&fx.bundle_path), scratch_path("trim.candidate"));
        let round = |records: Vec<VoteRecord>| {
            let round = boost_round(&parent, records, &guard(fx), &cfg, &out);
            verdict(round.expect("round runs"))
        };
        let (want, got) = (round(whole.clone()), round(trimmed.clone()));
        assert_eq!(got.0, want.0, "V = {v}: outcome, counts and deltas");
        assert!(got.1 == want.1, "V = {v}: candidate bytes differ");
        let (kind, selected, drained, ..) = got.0;
        eprintln!("V = {v}: outcome {kind}, selected {selected} of {drained}");
    }
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
    assert_eq!(events(&h.flight, EV_GUARD_REJECT), 1);
    assert_eq!(
        events(&h.flight, EV_PROMOTE) + events(&h.flight, EV_SWAP),
        0
    );
    assert!(
        !h.controller.rollback().rolled,
        "a rejected candidate leaves nothing to roll back"
    );
    let drained = &fx.winning_votes[di_3s][..24];
    assert_adapt_series(&mut client, &[report], &h.flight, drained);

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
        let status = wal_status(&mut client, &dh.durable, &dir);
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
        let status = wal_status(&mut client, &dh.durable, &dir);
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
        assert_ne!(dh.h.handle.checksum(), bundle_checksum(&fx.bytes));
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
        let cand_bytes =
            dh.h.controller
                .current_file()
                .read()
                .expect("candidate reads");
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

        // keep-generations pruned the oldest bytes at the promote that
        // the controller does not name: generation 1, not generation 0,
        // the parent a one-deep rollback restores. The chain still
        // validates end to end, but generation 1 is now a typed refusal
        // (as is a generation that never existed).
        let status = wal_status(&mut client, &dh.durable, &dir);
        assert_eq!(status.lineage_head, 2);
        assert_eq!(status.lineage_entries, 3);
        assert_eq!(status.lineage_retained, 2);
        assert!(status.chain_ok);
        assert_eq!(
            client.rollback_to(1).expect("round trip"),
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
    // generation 2 bit-identically. A deep rollback is an install like a
    // promote, so the one-deep rollback undoes it back to the head.
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
        // What serves, as the replica holds it, and which lineage
        // generation the controller's next round would train from.
        let head = dh.h.handle.current();
        let parent_generation = || {
            let bytes = dh.h.controller.current_file().read().expect("parent reads");
            let bundle = SystemBundle::from_artifact_bytes(&bytes).expect("parent decodes");
            bundle.lineage.generation
        };
        assert_eq!(parent_generation(), 2);
        let ack = client
            .rollback_to(0)
            .expect("round trip")
            .expect("retained");
        assert_eq!((ack.restored, ack.serving), (0, 1));
        assert!(!Arc::ptr_eq(&dh.h.handle.current().scorer, &head.scorer));
        assert_eq!(parent_generation(), 0);
        drive(
            &mut client,
            &fx.waves,
            &fx.expected_baseline,
            |_| 2,
            "deep-rolled-back-again",
        );
        let undone = dh.h.controller.rollback();
        assert_eq!((undone.rolled, undone.generation), (true, 2));
        assert!(
            Arc::ptr_eq(&dh.h.handle.current().scorer, &head.scorer),
            "the head's scorer serves again"
        );
        assert_eq!(parent_generation(), 2, "and is the next round's parent");
        drive(
            &mut client,
            &fx.waves,
            &fx.expected_adapted,
            |_| 2,
            "deep-rollback-undone",
        );
        client.shutdown().expect("shutdown acknowledged");
        dh.h.server.join();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// One member of an in-process fleet: a served replica over the fixture
/// bundle (`lre-serve --fleet`) and the `FleetReplica` a coordinator
/// drives, with the recorder the replica's installs land in.
struct Member {
    handle: Arc<ScorerHandle>,
    replica: Arc<FleetReplica>,
    server: Server,
    flight: Arc<FlightRecorder>,
}

fn start_member(fx: &Fixture) -> Member {
    let hooks = ServerHooks::default();
    let log = Arc::new(scratch_log(4096, &hooks.obs.registry));
    let r = replica(&fx.bundle_path, log, hooks);
    let flight = Arc::clone(&r.hooks.obs.flight);
    let hooks = ServerHooks {
        fleet: Some(Arc::clone(&r.replica) as _),
        ..r.hooks
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let server = Server::start(listener, Arc::clone(&r.handle), server_config(), hooks)
        .expect("server starts");
    Member {
        handle: r.handle,
        replica: r.replica,
        server,
        flight,
    }
}

#[test]
#[ignore = "builds the full experiment; run with --release -- --ignored"]
fn one_coordinator_over_two_replicas_matches_offline_run_dba() {
    let fx = fixture();
    let fleet = [start_member(fx), start_member(fx)];
    let replicas: Vec<Arc<dyn FleetControl>> =
        fleet.iter().map(|m| Arc::clone(&m.replica) as _).collect();
    let flight = Arc::new(FlightRecorder::new(64));
    let registry = Registry::new();
    let coordinator = |max_regress| {
        let cfg = AdaptConfig {
            v_threshold: V,
            min_utts: 8,
            max_eer_regress: max_regress,
            max_cavg_regress: max_regress,
        };
        AdaptController::new(
            replicas.clone(),
            None,
            &registry,
            guard(fx),
            sealed(&fx.bundle_path),
            cfg,
            Arc::clone(&flight),
        )
        .expect("controller wires up")
    };
    let ctl = coordinator(f64::INFINITY);

    // Below the floor: no log touched, nothing drained, floor generation.
    let idle = ctl.run_cycle();
    assert_eq!(
        (idle.outcome, idle.generation, idle.drained),
        (ADAPT_INSUFFICIENT_DATA, 0, 0)
    );

    // The pool goes duration-major into replica 0. Replica 1 scores two
    // of the same utterances, which the digest merge drops again.
    let mut clients: Vec<Client> = fleet
        .iter()
        .map(|m| Client::connect(m.server.local_addr()).expect("client connects"))
        .collect();
    let total = drive(
        &mut clients[0],
        &fx.waves,
        &fx.expected_baseline,
        |_| usize::MAX,
        "replica 0 baseline",
    );
    drive(
        &mut clients[1],
        &fx.waves,
        &fx.expected_baseline,
        |di| if di == 0 { 2 } else { 0 },
        "replica 1 baseline",
    );

    let report = ctl.run_cycle();
    assert_eq!(report.outcome, ADAPT_PROMOTED, "cycle must promote");
    assert_eq!(report.generation, 1, "both replicas flip to generation 1");
    assert_eq!(report.drained as usize, total, "drained counts after dedup");
    assert_eq!(report.selected as usize, fx.offline_selected);
    for (i, (m, client)) in fleet.iter().zip(&mut clients).enumerate() {
        assert_eq!(m.handle.generation(), 1);
        let what = format!("replica {i} adapted");
        drive(
            client,
            &fx.waves,
            &fx.expected_adapted,
            |_| usize::MAX,
            &what,
        );
        // The coordinator decides; each replica records its own install.
        assert_eq!(events(&m.flight, EV_SWAP), 1);
    }
    assert_eq!(events(&flight, EV_GUARD_ACCEPT), 1);
    assert_eq!(events(&flight, EV_PROMOTE), 1);
    assert_eq!(events(&flight, EV_SWAP), 0);

    // Rollback restores the baseline bits on both.
    let ack = ctl.rollback();
    assert_eq!((ack.rolled, ack.generation), (true, 2));
    for (i, (m, client)) in fleet.iter().zip(&mut clients).enumerate() {
        assert_eq!(m.handle.generation(), 2);
        let what = format!("replica {i} rolled back");
        drive(client, &fx.waves, &fx.expected_baseline, |_| 2, &what);
    }

    // Move replica 1 one generation ahead; a forced rejection must then
    // report the floor, replica 0's generation, and install nothing.
    fleet[1].replica.stage(&fx.bytes).expect("restage");
    assert_eq!(fleet[1].replica.commit().map(|c| c.generation), Ok(3));
    let reject = coordinator(-1.0);
    let report = reject.run_cycle();
    assert_eq!(report.outcome, ADAPT_REJECTED_GUARD);
    assert_eq!(
        report.generation, 2,
        "the healthy replicas' lowest generation"
    );
    assert_eq!(fleet.each_ref().map(|m| m.handle.generation()), [2, 3]);

    for (m, mut client) in fleet.into_iter().zip(clients) {
        client.shutdown().expect("shutdown acknowledged");
        m.server.join();
    }
}

/// A replica whose vote drain parks until the test opens the gate. A cycle
/// parked in it holds the controller's state lock, as a cycle does for the
/// whole of a retrain.
#[derive(Default)]
struct ParkedDrain {
    /// (a drain has entered, the gate is open)
    gate: Mutex<(bool, bool)>,
    cv: Condvar,
}

impl ParkedDrain {
    fn wait_entered(&self) {
        let mut gate = self.gate.lock().expect("gate poisoned");
        while !gate.0 {
            gate = self.cv.wait(gate).expect("gate poisoned");
        }
    }

    fn open(&self) {
        self.gate.lock().expect("gate poisoned").1 = true;
        self.cv.notify_all();
    }
}

impl FleetControl for ParkedDrain {
    /// A peek reports more than any floor; a drain parks, then takes
    /// nothing.
    fn drain_votes(&self, peek: bool, _min: u32) -> Result<Vec<VoteRecord>, u32> {
        if peek {
            return Err(u32::MAX);
        }
        let mut gate = self.gate.lock().expect("gate poisoned");
        gate.0 = true;
        self.cv.notify_all();
        while !gate.1 {
            gate = self.cv.wait(gate).expect("gate poisoned");
        }
        Err(0)
    }

    fn stage(&self, _sealed: &[u8]) -> Result<StageAck, u8> {
        Err(STATUS_INTERNAL)
    }

    fn commit(&self) -> Result<CommitAck, u8> {
        Err(STATUS_INTERNAL)
    }

    fn abort(&self) -> AbortAck {
        AbortAck { had_staged: false }
    }

    fn rollback(&self) -> RollbackAck {
        RollbackAck {
            rolled: false,
            generation: 0,
        }
    }

    fn generation(&self) -> u64 {
        0
    }
}

#[test]
#[ignore = "builds the full experiment; run with --release -- --ignored"]
fn ping_and_the_dump_answer_while_a_cycle_holds_the_controller() {
    let fx = fixture();
    let dir = std::env::temp_dir().join(format!("lre_adapt_midcycle_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let parked = Arc::new(ParkedDrain::default());
    let hooks = ServerHooks::default();
    let log = Arc::new(scratch_log(16, &hooks.obs.registry));
    let r = replica(&fx.bundle_path, log, hooks);
    let lineage = LineageStore::open(&dir).expect("lineage opens");
    let controller = AdaptController::new(
        vec![Arc::clone(&parked) as _],
        Some((lineage, 0)),
        &r.hooks.obs.registry,
        guard(fx),
        r.sealed,
        AdaptConfig::default(),
        Arc::clone(&r.hooks.obs.flight),
    )
    .expect("durable controller wires up");
    let hooks = ServerHooks {
        control: Some(Arc::new(controller) as _),
        ..r.hooks
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let server = Server::start(listener, r.handle, server_config(), hooks).expect("server starts");
    let addr = server.local_addr();
    let cycle = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("client connects");
        client.adapt().expect("adapt round trip")
    });
    parked.wait_entered();

    // Every reader the dump calls (the lineage store's included) must
    // answer without the lock the parked cycle holds.
    let mut client = Client::connect(addr).expect("client connects");
    assert_eq!(client.ping().expect("ping mid-cycle").generation, 0);
    let dump = client
        .metrics()
        .expect("stats-v3 mid-cycle")
        .expect("answered");
    let entries = dump.iter().find(|(name, _)| name == "lineage.entries");
    assert_eq!(
        entries.map(|(_, v)| v),
        Some(&MetricValue::Gauge(1)),
        "the root"
    );

    parked.open();
    let report = cycle.join().expect("cycle thread");
    assert_eq!(
        report.outcome, ADAPT_INSUFFICIENT_DATA,
        "the drain took nothing"
    );
    client.shutdown().expect("shutdown acknowledged");
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// The constructor refuses a guard whose subsystem count disagrees with
/// the bundle, and a durable chain whose head is not the serving bundle —
/// a container of another kind, or a bundle one payload byte away — before
/// any cycle runs.
#[test]
#[ignore = "builds the full experiment; run with --release -- --ignored"]
fn constructor_refuses_a_foreign_guard_or_chain_head() {
    let fx = fixture();
    let dir = std::env::temp_dir().join(format!("lre_adapt_ctor_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = Registry::new();
    let flight = Arc::new(FlightRecorder::new(8));
    let build = |guard, lineage| {
        let replicas = Vec::new();
        let cfg = AdaptConfig::default();
        let flight = Arc::clone(&flight);
        AdaptController::new(
            replicas,
            lineage,
            &registry,
            guard,
            sealed(&fx.bundle_path),
            cfg,
            flight,
        )
    };
    let refusal = |built: Result<AdaptController, ArtifactError>| match built {
        Err(ArtifactError::Corrupt(msg)) => msg,
        Err(other) => panic!("expected Corrupt, got {other:?}"),
        Ok(_) => panic!("controller wired up"),
    };

    let subsystems = fx.guard.svs.len();
    let short = GuardSet {
        labels: fx.guard.labels.clone(),
        svs: fx.guard.svs[..subsystems - 1].to_vec(),
    };
    let short_path = guard_file_path("short");
    std::fs::write(&short_path, short.to_artifact_bytes()).expect("short guard written");
    let short = GuardFile::open(&short_path).expect("a short guard is a valid file");
    std::fs::remove_file(&short_path).ok();
    assert_eq!(refusal(build(short, None)), "guard/bundle subsystem counts");

    // A chain rooted with a bundle one payload byte away from the served
    // one.
    let twin_path = scratch_path("twin.bundle");
    std::fs::write(&twin_path, twin(&fx.bytes)).expect("twin written");
    let mut near = LineageStore::open(&dir.join("near")).expect("lineage opens");
    near.record_root(&twin_path, 0).expect("chain roots");
    std::fs::remove_file(&twin_path).ok();
    assert_eq!(
        refusal(build(guard(fx), Some((near, 0)))),
        "serving bundle is not the lineage chain head"
    );

    // A chain rooted with another container than the served bundle (the
    // guard set's).
    let mut foreign = LineageStore::open(&dir.join("foreign")).expect("lineage opens");
    foreign.record_root(&fx.guard_path, 0).expect("chain roots");
    assert_eq!(
        refusal(build(guard(fx), Some((foreign, 0)))),
        "serving bundle is not the lineage chain head"
    );

    // An empty chain is rooted with the served bytes, and a restart on it
    // finds the serving bundle at its head.
    let own = |what| LineageStore::open(&dir.join("own")).expect(what);
    build(guard(fx), Some((own("lineage opens"), 0))).expect("an empty chain is rooted");
    let chain = own("lineage reopens");
    let head = chain.head().copied().expect("rooted");
    let root = chain.file(head.generation).expect("root retained");
    assert!(root.read().expect("root reads") == fx.bytes);
    build(guard(fx), Some((chain, 0))).expect("the serving bundle is the head");
    std::fs::remove_dir_all(&dir).ok();
}
