//! WAL throughput harness: sustained append and crash-replay rates.
//!
//! Drives a real [`lre_wal::Wal`] on real disk through the two
//! paths that gate the durability design: the hot append path (one sealed
//! vote-sized record per call, fsync batching on) and the cold replay
//! path (reopen the directory and rebuild every surviving record). Both
//! are correctness-checked — every replayed record must come back
//! byte-identical in order — so the bench doubles as an end-to-end WAL
//! round-trip test at scale. Results go to stdout and `BENCH_wal.json`:
//!
//! ```text
//! cargo run -p lre-bench --release --bin wal_throughput -- \
//!     --require-append-rate 45000 --require-replay-rate 12500
//! ```
//!
//! Rates are records/second. The default payload is 9 000 bytes because
//! that is what a vote weighs: `lre-adaptd --wal-dir` on the smoke bundle
//! writes `VREC` records of ≈ 9.2 KB (six sparse supervectors dominate;
//! the LLRs are ~100 bytes of it). The default 10 000 records are about
//! two and a half full windows at the default `--log-capacity 4096` —
//! 90 MB on disk, and three copies of that in memory while the replay is
//! checked.

use lre_artifact::seal;
use lre_wal::{Wal, WalOptions};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Container kind for bench records — framed exactly like vote records,
/// tagged so a leaked bench directory can never be mistaken for one.
const BENCH_KIND: [u8; 4] = *b"BNCH";
const BENCH_VERSION: u32 = 1;

struct Args {
    records: usize,
    payload_bytes: usize,
    fsync_ms: u64,
    require_append_rate: Option<f64>,
    require_replay_rate: Option<f64>,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            records: 10_000,
            payload_bytes: 9_000,
            fsync_ms: 50,
            require_append_rate: None,
            require_replay_rate: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut val = |what: &str| {
                it.next()
                    .unwrap_or_else(|| panic!("{what} needs a value"))
                    .parse::<f64>()
                    .unwrap_or_else(|e| panic!("bad value for {what}: {e}"))
            };
            match flag.as_str() {
                "--records" => args.records = val("--records") as usize,
                "--payload-bytes" => args.payload_bytes = val("--payload-bytes") as usize,
                "--fsync-ms" => args.fsync_ms = val("--fsync-ms") as u64,
                "--require-append-rate" => {
                    args.require_append_rate = Some(val("--require-append-rate"))
                }
                "--require-replay-rate" => {
                    args.require_replay_rate = Some(val("--require-replay-rate"))
                }
                other => panic!("unknown flag {other} (see --help in source)"),
            }
        }
        args.records = args.records.max(1);
        args.payload_bytes = args.payload_bytes.max(1);
        args
    }
}

/// Deterministic, distinct per-record payload (a stand-in for an encoded
/// vote at the default size).
fn payload(i: usize, bytes: usize) -> Vec<u8> {
    (0..bytes)
        .map(|b| ((i * 131 + b * 7) % 251) as u8)
        .collect()
}

fn options(args: &Args) -> WalOptions {
    let mut opts = WalOptions::new(BENCH_KIND, BENCH_VERSION);
    opts.fsync_interval = Duration::from_millis(args.fsync_ms);
    opts
}

fn main() {
    let args = Args::parse();
    let dir: PathBuf = std::env::temp_dir().join(format!("lre-wal-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let records: Vec<Vec<u8>> = (0..args.records)
        .map(|i| seal(BENCH_KIND, BENCH_VERSION, &payload(i, args.payload_bytes)))
        .collect();
    eprintln!(
        "[wal_throughput] {} records x {} payload bytes, fsync every {} ms, dir {}",
        args.records,
        args.payload_bytes,
        args.fsync_ms,
        dir.display()
    );

    // --- Append leg: open an empty log and push every record through the
    // hot path, then force a final sync so the timed window covers full
    // durability, not just page-cache writes.
    let (wal, replay) = Wal::open(&dir, options(&args), None).expect("open empty");
    assert_eq!(replay.records.len(), 0, "bench dir was not empty");
    let t0 = Instant::now();
    for rec in &records {
        wal.append(rec).expect("append");
    }
    wal.sync().expect("final sync");
    let append_s = t0.elapsed().as_secs_f64();
    let status = wal.status();
    assert_eq!(status.next_seq, args.records as u64);
    // Drop joins the fsync thread, so the replay leg below starts from
    // quiesced disk state.
    drop(wal);
    let append_rate = args.records as f64 / append_s.max(1e-9);

    // --- Replay leg: a cold open of the same directory must rebuild
    // every record, in order, byte-identical.
    let t0 = Instant::now();
    let (wal, replay) = Wal::open(&dir, options(&args), None).expect("reopen");
    let replay_s = t0.elapsed().as_secs_f64();
    assert_eq!(replay.torn_tail_records, 0, "clean log replayed torn");
    assert_eq!(replay.records.len(), args.records, "records lost");
    assert_eq!(replay.low_water, 0, "fresh log does not start at 0");
    for (i, bytes) in replay.records.iter().enumerate() {
        if bytes != &records[i] {
            panic!("record {i} came back with different bytes");
        }
    }
    drop(wal);
    let replay_rate = args.records as f64 / replay_s.max(1e-9);
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "{:<10} | {:>9} | {:>12} | {:>9}",
        "leg", "wall s", "records/s", "us/rec"
    );
    for (name, secs, rate) in [
        ("append", append_s, append_rate),
        ("replay", replay_s, replay_rate),
    ] {
        println!(
            "{:<10} | {:>9.3} | {:>12.0} | {:>9.3}",
            name,
            secs,
            rate,
            1e6 * secs / args.records as f64
        );
    }
    println!("fsyncs: {}", status.fsyncs);

    let mut json = String::new();
    let _ = write!(
        json,
        concat!(
            "{{\"config\":{{\"records\":{},\"payload_bytes\":{},",
            "\"fsync_ms\":{}}},",
            "\"append\":{{\"wall_s\":{:.6},\"rate\":{:.1}}},",
            "\"replay\":{{\"wall_s\":{:.6},\"rate\":{:.1}}},",
            "\"fsyncs\":{}}}\n"
        ),
        args.records,
        args.payload_bytes,
        args.fsync_ms,
        append_s,
        append_rate,
        replay_s,
        replay_rate,
        status.fsyncs,
    );
    std::fs::write("BENCH_wal.json", &json).expect("write BENCH_wal.json");
    eprintln!("[wal_throughput] wrote BENCH_wal.json");

    if let Some(floor) = args.require_append_rate {
        if append_rate < floor {
            eprintln!("[wal_throughput] FAIL: append {append_rate:.0} rec/s < required {floor:.0}");
            std::process::exit(1);
        }
        eprintln!("[wal_throughput] OK: append {append_rate:.0} rec/s >= {floor:.0}");
    }
    if let Some(floor) = args.require_replay_rate {
        if replay_rate < floor {
            eprintln!("[wal_throughput] FAIL: replay {replay_rate:.0} rec/s < required {floor:.0}");
            std::process::exit(1);
        }
        eprintln!("[wal_throughput] OK: replay {replay_rate:.0} rec/s >= {floor:.0}");
    }
}
