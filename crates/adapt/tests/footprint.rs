//! What `lre-adaptd` holds once it serves, read from Linux `/proc` right
//! after start-up and held to the sizes of the files it loaded.
//!
//! The daemon keeps the decoded model and nothing else of its files: the
//! bundle is streamed into the decode, the parent its next round trains
//! from is a file of its chain, and the guard set is validated at start-up
//! and read from its file by every cycle. Two bounds hold that:
//!
//! - `VmHWM − VmRSS ≤ 1 MiB`: start-up left no transient above what stays
//!   resident. A second decode of the bundle, or a file buffer held beside
//!   its own decoded copy, shows here: glibc keeps the freed heap resident,
//!   so the high-water mark is what the process costs from then on.
//! - `RssAnon ≤ bundle file + 1 MiB`: the model, and no sealed copy of
//!   the bundle beside it.
//!
//! The second case restarts on a lineage head with an undecodable
//! `--bundle`, which is still refused, and then resumes from the head with
//! a decodable one.
//!
//! Both build the smoke experiment and spawn the daemon this package
//! builds, so they are `#[ignore]` by default:
//!
//! ```text
//! cargo test --release -p lre-adapt --test footprint -- --ignored --nocapture
//! ```

use lre_artifact::ArtifactWrite;
use lre_corpus::Scale;
use lre_dba::{Experiment, ExperimentConfig, GuardSet};
use lre_serve::{Client, SystemBundle};
use lre_wal::LineageStore;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;

const KIB: u64 = 1024;
const MIB: u64 = 1024 * KIB;

/// The smoke bundle and guard set, sealed.
struct Fixture {
    bundle: Vec<u8>,
    guard: Vec<u8>,
}

static FIXTURE: OnceLock<Fixture> = OnceLock::new();

fn fixture() -> &'static Fixture {
    FIXTURE.get_or_init(|| {
        let exp = Experiment::build(&ExperimentConfig::new(Scale::Smoke, 42));
        let guard = GuardSet::from_experiment(&exp).to_artifact_bytes();
        let bundle = SystemBundle::from_experiment(exp).to_artifact_bytes();
        Fixture { bundle, guard }
    })
}

/// A fresh directory holding the fixture as `smoke.bundle` and
/// `smoke.guard`.
fn workdir(tag: &str) -> PathBuf {
    let fx = fixture();
    let dir = std::env::temp_dir().join(format!("lre_footprint_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::fs::write(dir.join("smoke.bundle"), &fx.bundle).expect("bundle written");
    std::fs::write(dir.join("smoke.guard"), &fx.guard).expect("guard written");
    dir
}

/// A running `lre-adaptd` that printed its address.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    /// Shut the daemon down over the wire and return its stderr.
    fn stop(mut self) -> String {
        let mut client = Client::connect(self.addr).expect("client connects");
        client.shutdown().expect("shutdown acknowledged");
        let status = self.child.wait().expect("daemon exits");
        assert!(status.success(), "daemon exited {status}");
        stderr(&mut self.child)
    }
}

fn stderr(child: &mut Child) -> String {
    let mut text = String::new();
    let pipe = child.stderr.as_mut().expect("stderr piped");
    pipe.read_to_string(&mut text).expect("stderr reads");
    text
}

/// Start `lre-adaptd` on an ephemeral port with two workers and the WAL
/// under `wal`, and wait for its `listening on` line. A daemon that exits
/// first is an `Err` holding its stderr.
fn adaptd(bundle: &Path, guard: &Path, wal: &Path) -> Result<Daemon, String> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_lre-adaptd"))
        .arg("--bundle")
        .arg(bundle)
        .arg("--guard")
        .arg(guard)
        .arg("--wal-dir")
        .arg(wal)
        .args(["--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("lre-adaptd spawns");
    let stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    for line in stdout.lines() {
        let line = line.expect("stdout reads");
        if let Some(addr) = line.strip_prefix("listening on ") {
            let addr = addr.trim().parse().expect("a socket address");
            return Ok(Daemon { child, addr });
        }
    }
    child.wait().expect("daemon exits");
    Err(stderr(&mut child))
}

/// One `kB` field of `/proc/<pid>/status`, in bytes.
fn status_bytes(status: &str, field: &str) -> u64 {
    let line = status
        .lines()
        .find(|l| l.starts_with(field))
        .unwrap_or_else(|| panic!("{field} missing from /proc status"));
    let kb = line[field.len()..].trim().trim_end_matches("kB").trim();
    kb.parse::<u64>().expect("a kB count") * KIB
}

#[test]
#[ignore = "builds the smoke experiment and spawns lre-adaptd; run with --release -- --ignored"]
fn adaptd_holds_the_model_and_no_bundle_bytes_and_no_startup_transient() {
    let dir = workdir("startup");
    let (bundle, guard) = (dir.join("smoke.bundle"), dir.join("smoke.guard"));
    let daemon = adaptd(&bundle, &guard, &dir.join("wal")).expect("lre-adaptd serves");
    let status = std::fs::read_to_string(format!("/proc/{}/status", daemon.child.id()))
        .expect("/proc status reads");
    let [hwm, rss, anon] = ["VmHWM:", "VmRSS:", "RssAnon:"].map(|f| status_bytes(&status, f));
    let fx = fixture();
    let bundle_len = fx.bundle.len() as u64;
    let held = bundle_len + MIB;
    eprintln!(
        "VmHWM {} kB, VmRSS {} kB, gap {} kB; RssAnon {} kB against {} + 1024 = {} kB",
        hwm / KIB,
        rss / KIB,
        hwm.saturating_sub(rss) / KIB,
        anon / KIB,
        bundle_len / KIB,
        held / KIB
    );
    daemon.stop();
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        hwm.saturating_sub(rss) <= MIB,
        "start-up peaked {} kB above what stays resident",
        (hwm - rss) / KIB
    );
    assert!(
        anon <= held,
        "anonymous RSS {} kB exceeds the model ({} kB)",
        anon / KIB,
        held / KIB
    );
}

#[test]
#[ignore = "builds the smoke experiment and spawns lre-adaptd; run with --release -- --ignored"]
fn resume_from_a_lineage_head_still_refuses_an_undecodable_bundle() {
    let dir = workdir("resume");
    let (bundle, guard, wal) = (
        dir.join("smoke.bundle"),
        dir.join("smoke.guard"),
        dir.join("wal"),
    );
    let garbage = dir.join("garbage.bundle");
    std::fs::write(&garbage, b"not a sealed bundle").expect("garbage written");
    let lineage = wal.join("lineage");
    let mut chain = LineageStore::open(&lineage).expect("lineage opens");
    chain.record_root(&bundle, 0).expect("chain roots");
    drop(chain);

    let refused = match adaptd(&garbage, &guard, &wal) {
        Err(stderr) => stderr,
        Ok(daemon) => panic!("served with an undecodable --bundle: {}", daemon.stop()),
    };
    let named = format!("loading {}", garbage.display());
    assert!(
        refused.contains(&named),
        "refusal names the bundle: {refused}"
    );
    let chain = LineageStore::open(&lineage).expect("lineage reopens");
    assert_eq!(
        chain.entries().len(),
        1,
        "the refused start left the chain alone"
    );

    let resumed = adaptd(&bundle, &guard, &wal).expect("lre-adaptd serves");
    let log = resumed.stop();
    assert!(
        log.contains("resuming from lineage head: generation 0"),
        "{log}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
