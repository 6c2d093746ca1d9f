//! The load generators. Nothing records during the timed window but two
//! clock readings per request, kept in vectors sized beforehand.

use lre_serve::protocol::{decode_score_reply_v2, encode_request};
use lre_serve::{read_frame, write_frame, PipelinedClient, Request, ScoreReply};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// What the timed window observed, per request of the stream.
pub struct Observed {
    /// Requests sent: the whole stream.
    pub attempted: usize,
    /// Seconds from the first send to the last reply.
    pub wall_s: f64,
    /// Start (send time, or due time in an open loop) and reply time of
    /// each attempted request, ns after the window opened.
    pub start_ns: Vec<u64>,
    pub reply_ns: Vec<u64>,
    /// The LLRs of each scored reply; `None` for a refusal, a missed
    /// deadline or an internal failure.
    pub llrs: Vec<Option<Vec<f32>>>,
    /// Open loop: how late each request left the generator, ms.
    pub lag_ms: Vec<f64>,
}

fn proto_err(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// Closed loop over one pipelined connection: keep `window` requests
/// outstanding until the stream is used up, then drain what is in flight.
pub fn closed_loop(addr: SocketAddr, utts: &[Vec<f32>], window: usize) -> io::Result<Observed> {
    let mut client = PipelinedClient::connect(addr)?;
    let n = utts.len();
    let mut start: Vec<Option<Instant>> = vec![None; n];
    let mut reply: Vec<Option<Instant>> = vec![None; n];
    let mut llrs: Vec<Option<Vec<f32>>> = vec![None; n];
    let opened = Instant::now();
    let mut sent = 0;
    let mut last = opened;
    loop {
        while sent < n && client.inflight() < window {
            start[sent] = Some(Instant::now());
            let id = client.submit(&utts[sent], None)?;
            if id != sent as u64 {
                return Err(proto_err(format!("request {sent} was given id {id}")));
            }
            sent += 1;
        }
        if client.inflight() == 0 {
            break;
        }
        let (id, r) = client.recv()?;
        last = Instant::now();
        let slot = usize::try_from(id)
            .ok()
            .filter(|&i| i < sent && reply[i].is_none());
        let Some(i) = slot else {
            return Err(proto_err(format!(
                "reply id {id} matches no outstanding request"
            )));
        };
        reply[i] = Some(last);
        if let ScoreReply::Scored(s) = r {
            llrs[i] = Some(s.llrs);
        }
    }
    let ns = |t: &Option<Instant>| {
        t.expect("every sent request was answered")
            .duration_since(opened)
            .as_nanos() as u64
    };
    Ok(Observed {
        attempted: sent,
        wall_s: last.duration_since(opened).as_secs_f64(),
        start_ns: start.iter().map(ns).collect(),
        reply_ns: reply.iter().map(ns).collect(),
        llrs,
        lag_ms: Vec::new(),
    })
}

/// Open loop over one connection: a sender thread writes request `i` at
/// `due_ns[i]` whatever the server is doing, a receiver thread reads
/// replies. Latency is counted from the due time, so a stalled generator
/// or a blocked socket charges the requests it delayed.
pub fn open_loop(
    addr: SocketAddr,
    utts: &[Vec<f32>],
    due_ns: &[u64],
    deadline_ms: u32,
) -> io::Result<Observed> {
    let n = utts.len();
    // Encoded before the window opens: the sender only writes.
    let frames: Vec<Vec<u8>> = utts
        .iter()
        .enumerate()
        .map(|(i, u)| {
            encode_request(&Request::ScoreV2 {
                id: i as u64,
                deadline_ms,
                samples: u.clone(),
            })
        })
        .collect();
    let mut tx = TcpStream::connect(addr)?;
    tx.set_nodelay(true)?;
    let mut rx = tx.try_clone()?;
    let opened = Instant::now();
    let (sent_ns, received) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| -> io::Result<Vec<u64>> {
            let mut sent_ns = Vec::with_capacity(n);
            for (frame, &due) in frames.iter().zip(due_ns) {
                let due_at = opened + Duration::from_nanos(due);
                std::thread::sleep(due_at.saturating_duration_since(Instant::now()));
                sent_ns.push(opened.elapsed().as_nanos() as u64);
                write_frame(&mut tx, frame)?;
            }
            Ok(sent_ns)
        });
        let receiver = scope.spawn(|| -> io::Result<_> {
            let mut reply_ns = vec![0u64; n];
            let mut llrs: Vec<Option<Vec<f32>>> = vec![None; n];
            let mut seen = vec![false; n];
            for _ in 0..n {
                let frame = read_frame(&mut rx)?
                    .ok_or_else(|| proto_err("server closed with replies outstanding".into()))?;
                let at = opened.elapsed().as_nanos() as u64;
                let (id, result) =
                    decode_score_reply_v2(&frame).map_err(|e| proto_err(e.to_string()))?;
                let slot = usize::try_from(id).ok().filter(|&i| i < n && !seen[i]);
                let Some(i) = slot else {
                    return Err(proto_err(format!(
                        "reply id {id} matches no outstanding request"
                    )));
                };
                seen[i] = true;
                reply_ns[i] = at;
                llrs[i] = result.ok().map(|s| s.llrs);
            }
            Ok((reply_ns, llrs))
        });
        (
            sender.join().expect("sender thread panicked"),
            receiver.join().expect("receiver thread panicked"),
        )
    });
    let sent_ns = sent_ns?;
    let (reply_ns, llrs) = received?;
    let last = reply_ns.iter().copied().max().unwrap_or(0);
    Ok(Observed {
        attempted: n,
        wall_s: last.saturating_sub(sent_ns[0]) as f64 / 1e9,
        lag_ms: sent_ns
            .iter()
            .zip(due_ns)
            .map(|(&s, &d)| s.saturating_sub(d) as f64 / 1e6)
            .collect(),
        start_ns: due_ns.to_vec(),
        reply_ns,
        llrs,
    })
}
