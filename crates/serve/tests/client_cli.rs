//! The `lre-client` binary against a scripted peer: what it puts on the
//! wire for the flags it is given, and what it prints of the replies.
//! The peer answers each score request at once, so nothing here waits on
//! a clock. Also the one `lre-serve` flag combination it refuses.

use lre_obs::{TraceSpan, STAGE_QUEUE, STAGE_REPLY, STAGE_SCORE};
use lre_serve::protocol::{
    decode_request, encode_score_ok_v2, encode_status_v2, read_frame, write_frame, Request,
    STATUS_DEADLINE_EXCEEDED,
};
use lre_serve::ScoredUtt;
use std::net::TcpListener;
use std::process::{Command, Output};
use std::thread::{self, JoinHandle};

/// Accept one connection and answer every score request on it with
/// `answer(id)`; the handle returns the `deadline_ms` each request carried.
fn scripted_peer(answer: fn(u64) -> Vec<u8>) -> (String, JoinHandle<Vec<u32>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind peer");
    let addr = listener.local_addr().expect("local addr").to_string();
    let peer = thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("the client connects");
        let mut deadlines = Vec::new();
        while let Ok(Some(frame)) = read_frame(&mut stream) {
            match decode_request(&frame) {
                Ok(Request::ScoreV2 {
                    id, deadline_ms, ..
                }) => {
                    deadlines.push(deadline_ms);
                    write_frame(&mut stream, &answer(id)).expect("reply");
                }
                other => panic!("the client sent {other:?}"),
            }
        }
        deadlines
    });
    (addr, peer)
}

fn run_client(addr: &str, flags: &[&str]) -> Output {
    let output = Command::new(env!("CARGO_BIN_EXE_lre-client"))
        .args(["--addr", addr, "--utts", "2", "--scale", "smoke"])
        .args(["--duration", "3s"])
        .args(flags)
        .output()
        .expect("run lre-client");
    assert!(
        output.status.success(),
        "lre-client {flags:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

#[test]
fn every_window_sends_the_deadline_it_was_given() {
    for inflight in ["1", "2"] {
        let (addr, peer) = scripted_peer(|id| encode_status_v2(id, STATUS_DEADLINE_EXCEEDED));
        let output = run_client(&addr, &["--inflight", inflight, "--deadline-ms", "250"]);
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert_eq!(
            stdout.matches("deadline exceeded").count(),
            2,
            "--inflight {inflight}: {stdout}"
        );
        assert_eq!(
            peer.join().expect("peer"),
            [250, 250],
            "--inflight {inflight}"
        );
    }
}

#[test]
fn traced_prints_every_replys_span_at_any_window() {
    fn scored(id: u64) -> Vec<u8> {
        let mut span = TraceSpan::new(0x5EED_0000 + id);
        span.mark(STAGE_QUEUE, 1);
        span.mark(STAGE_SCORE, 20);
        span.mark(STAGE_REPLY, 21);
        let scored = ScoredUtt {
            llrs: vec![0.5, -0.5],
            decision: 0,
            generation: 0,
            span,
            unknown: false,
        };
        encode_score_ok_v2(id, &scored)
    }
    let (addr, peer) = scripted_peer(scored);
    let output = run_client(&addr, &["--inflight", "2", "--traced"]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    for id in 0..2 {
        let line = format!(
            "trace {:#018x}: queue@1us score@20us reply@21us",
            0x5EED_0000 + id
        );
        assert!(stdout.contains(&line), "missing {line:?} in:\n{stdout}");
    }
    assert_eq!(peer.join().expect("peer"), [0, 0], "no deadline was given");
}

#[test]
fn serve_refuses_a_wal_dir_without_fleet() {
    // Refused before either path is touched: neither exists.
    let output = Command::new(env!("CARGO_BIN_EXE_lre-serve"))
        .args(["--bundle", "absent.bundle", "--wal-dir", "absent-wal"])
        .output()
        .expect("lre-serve runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--wal-dir needs --fleet"), "{stderr}");
    assert!(stderr.contains("usage: lre-serve"), "{stderr}");
}
